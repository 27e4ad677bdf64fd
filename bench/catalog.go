package main

import (
	"fmt"
	"math"
)

// metricDef names one metric of the benchmark. BENCHMARK.json lists the
// same names, units, directions and bounds; a test keeps the two in step.
type metricDef struct {
	Name   string
	Unit   string
	Better string // "lower" or "higher"
	// Bound is the share of the parent's median by which an end-to-end
	// metric may worsen before a change counts as a regression; 0 for
	// per-layer metrics, which are never gated.
	Bound float64
}

// endToEnd are the metrics a caller of the server would see, measured by
// the untraced run.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"pages_per_lookup", "pages", "lower", 0.15},
	{"cpu_per_lookup_rel", "ratio", "lower", 0.12},
	{"allocs_per_lookup", "count", "lower", 0.04},
	{"alloc_kb_per_lookup", "KiB", "lower", 0.03},
	{"resp_kb_per_lookup", "KiB", "lower", 0.02},
	{"rss_mb", "MiB", "lower", 0.10},
}

// perLayer are the metrics of single layers (layer = package name),
// measured by the traced run: count rows from the server's /v1/stats,
// /metrics and pprof endpoints over its HTTP phases, timed rows from
// calling the layers' exported functions in process.
var perLayer = []metricDef{
	{"hypergraph.build_s", "s", "lower", 0},
	{"placement.build_s", "s", "lower", 0},
	{"store.build_s", "s", "lower", 0},
	{"open.rest_s", "s", "lower", 0},

	{"placement.replica_ratio", "ratio", "higher", 0},
	{"selection.valid_per_read", "keys/read", "higher", 0},
	{"selection.pages_per_query", "pages", "lower", 0},
	{"selection.ns_per_query", "ns", "lower", 0},
	{"selection.invert_scans_per_query", "count", "lower", 0},

	{"cache.hit_rate", "ratio", "higher", 0},
	{"cache.evictions_per_lookup", "count", "lower", 0},
	{"cache.get_ns", "ns", "lower", 0},
	{"cache.put_ns", "ns", "lower", 0},

	{"ssd.submit_ns_per_read", "ns", "lower", 0},
	{"ssd.drain_wait_us_per_query", "us", "lower", 0},
	{"ssd.read_lat_p50_us", "us", "lower", 0},
	{"ssd.read_lat_p99_us", "us", "lower", 0},
	{"ssd.reads_per_s", "1/s", "higher", 0},
	{"ssd.raw_bw_mbps", "MB/s", "higher", 0},
	{"ssd.eff_bw_mbps", "MB/s", "higher", 0},
	{"ssd.queue_peak", "count", "higher", 0},
	{"ssd.shard_imbalance", "ratio", "lower", 0},
	{"ssd.max_shard_depth", "count", "lower", 0},

	{"store.verify_extract_ns_per_key", "ns", "lower", 0},

	{"serving.lookup_us", "us", "lower", 0},
	{"serving.batch_us_per_query", "us", "lower", 0},
	{"serving.self_us", "us", "lower", 0},
	{"serving.allocs_per_lookup", "count", "lower", 0},
	{"serving.bytes_per_lookup", "B", "lower", 0},

	{"server.serve_us", "us", "lower", 0},
	{"server.self_us", "us", "lower", 0},
	{"server.allocs_per_req", "count", "lower", 0},
	{"server.resp_bytes", "B", "lower", 0},
	{"server.coalesce_wait_p50_us", "us", "lower", 0},
	{"server.coalesce_wait_p99_us", "us", "lower", 0},
	{"server.mean_batch_size", "count", "higher", 0},
	{"server.bypass_share", "ratio", "higher", 0},
	{"server.shed", "count", "lower", 0},
	{"server.rss_growth_kb_per_klookup", "KiB", "lower", 0},

	{"metrics.record_ns", "ns", "lower", 0},

	{"runtime.gc_count", "count", "lower", 0},
	{"runtime.gc_pause_ms", "ms", "lower", 0},

	{"e2e.qps_closed", "lookups/s", "higher", 0},
	{"e2e.p50_ms_open", "ms", "lower", 0},
	{"e2e.p99_ms_open", "ms", "lower", 0},
	{"e2e.cpu_us_per_lookup", "us", "lower", 0},

	{"bench.sent", "count", "higher", 0},
	{"bench.ok", "count", "higher", 0},
	{"bench.failed", "count", "lower", 0},
	{"bench.fail_share", "ratio", "lower", 0},
	{"bench.verified", "count", "higher", 0},
	{"bench.sched_lag_p99_ms", "ms", "lower", 0},
	{"bench.p999_ms_closed", "ms", "lower", 0},
	{"bench.p99_ms_hi", "ms", "lower", 0},
	{"bench.backlog_hi", "count", "lower", 0},
	{"bench.rate_ok_rps", "1/s", "higher", 0},
	{"bench.net_overhead_us", "us", "lower", 0},
	{"bench.trace_overhead_pct", "%", "lower", 0},
}

// metricSet collects measurements by name.
type metricSet map[string]metric

func (ms metricSet) put(name string, v float64) { ms[name] = metric{Value: v} }

// finish checks that exactly the metrics of defs were measured and that
// each is a finite number, and stamps the units.
func (ms metricSet) finish(defs []metricDef) error {
	for _, d := range defs {
		m, ok := ms[d.Name]
		if !ok {
			return fmt.Errorf("metric %s was not measured", d.Name)
		}
		if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			return fmt.Errorf("metric %s is %v", d.Name, m.Value)
		}
		m.Unit = d.Unit
		ms[d.Name] = m
	}
	if len(ms) != len(defs) {
		return fmt.Errorf("%d metrics measured, %d defined", len(ms), len(defs))
	}
	return nil
}

// ratio is a/b, 0 when b is 0 (a layer that did no work).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
