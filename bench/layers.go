package main

import (
	"context"
	"fmt"
	"path/filepath"
	"slices"
	"time"

	"maxembed/internal/embedding"
)

// latencyLimitMS is the p99 limit a rate must meet to count as sustained
// in bench.rate_ok_rps.
const latencyLimitMS = 10.0

// runTraced is the traced run: it measures every per-layer metric and no
// end-to-end one. Three quarters of cfg.seconds drive the server over
// HTTP (closed loop, open loop at the low and at the high rate) for the
// rows that are counts; then the server is stopped and the same
// configuration is opened in process, where spans are recorded around
// calls into each layer's exported functions for the rows that are times.
func runTraced(ctx context.Context, cfg runConfig, s spec) (*result, error) {
	se, err := openSession(cfg, s)
	if err != nil {
		return nil, err
	}
	defer se.close()
	if _, err := se.start(ctx); err != nil {
		return nil, err
	}
	res := se.newResult()
	m := res.Metrics
	warm := se.warmUp(ctx)

	window, n := split(secs(cfg.seconds / 4))
	length := window * time.Duration(n)
	before, err := se.snapshot(ctx)
	if err != nil {
		return nil, err
	}
	closed := se.gen.closedLoop(ctx, length, false)
	lo := se.gen.openLoop(ctx, s.RateLo, length)
	hi := se.gen.openLoop(ctx, s.RateHi, length)
	after, err := se.snapshot(ctx)
	if err != nil {
		return nil, err
	}
	res.account(warm, closed, lo, hi)
	se.stop()
	closedP50 := countRows(m, s, before, after, closed, lo, hi, window, n)

	tr, err := replayInProcess(ctx, cfg, se, m)
	if err != nil {
		return nil, fmt.Errorf("%s: traced replay: %w", s.Name, err)
	}
	m.put("bench.net_overhead_us", closedP50*1000-m["server.serve_us"].Value)
	if err := m.finish(perLayer); err != nil {
		return nil, fmt.Errorf("%s: %w", s.Name, err)
	}
	if cfg.traceOut != "" {
		if err := tr.write(filepath.Join(cfg.traceOut, "trace_"+s.Name+".json")); err != nil {
			return nil, err
		}
	}
	tr.printBreakdown(cfg.log, m["bench.trace_overhead_pct"].Value)
	return res, nil
}

// countRows fills the per-layer rows that are counts or gauges, from the
// difference between two scrapes of the server around the HTTP phases, and
// the wall-clock rows of those phases. It returns the closed loop's median
// latency in ms, which the caller sets against the in-process time.
func countRows(m metricSet, s spec, before, after snapshot, closed, lo, hi *phase, window time.Duration, n int) float64 {
	phases := []*phase{closed, lo, hi}
	var ok, sent, failed, verified, keys float64
	var elapsed time.Duration
	var lags []time.Duration
	for _, p := range phases {
		ok += float64(p.ok())
		sent += float64(p.sent)
		failed += float64(p.failed)
		verified += float64(p.verified)
		keys += float64(p.keys)
		elapsed += p.elapsed
	}
	for _, p := range []*phase{lo, hi} {
		for _, sm := range p.samples {
			lags = append(lags, sm.lag)
		}
	}
	slices.Sort(lags)

	reads := float64(after.stats.Device.Reads - before.stats.Device.Reads)
	bytesRead := float64(after.stats.Device.BytesRead - before.stats.Device.BytesRead)
	var hits, misses, evictions float64
	if a, b := after.stats.Cache, before.stats.Cache; a != nil && b != nil {
		hits = float64(a.Hits - b.Hits)
		misses = float64(a.Misses - b.Misses)
		evictions = float64(a.Evictions - b.Evictions)
	}
	fromSSD := keys - hits // distinct keys the replies carried that no cache hit served
	m.put("selection.valid_per_read", ratio(fromSSD, reads))
	m.put("selection.pages_per_query", ratio(reads, ok))
	m.put("cache.hit_rate", ratio(hits, hits+misses))
	m.put("cache.evictions_per_lookup", ratio(evictions, ok))
	m.put("ssd.read_lat_p50_us", latencyQuantile(before.prom, after.prom, 0.50))
	m.put("ssd.read_lat_p99_us", latencyQuantile(before.prom, after.prom, 0.99))
	m.put("ssd.reads_per_s", ratio(reads, elapsed.Seconds()))
	m.put("ssd.raw_bw_mbps", ratio(bytesRead/1e6, elapsed.Seconds()))
	m.put("ssd.eff_bw_mbps", ratio(fromSSD*float64(embedding.BytesPerVector(embedDim))/1e6, elapsed.Seconds()))
	var peak, maxShard, sumShard float64
	for i, sh := range after.stats.Shards {
		peak = max(peak, float64(sh.QueuePeak))
		d := float64(sh.Reads)
		if i < len(before.stats.Shards) {
			d -= float64(before.stats.Shards[i].Reads)
		}
		maxShard = max(maxShard, d)
		sumShard += d
	}
	m.put("ssd.queue_peak", peak)
	m.put("ssd.shard_imbalance", ratio(maxShard*float64(len(after.stats.Shards)), sumShard))
	// The server reports per-query shard depth on multi-shard backends
	// only; 0 stands for "not reported", as for the coalescer rows of the
	// isolated workloads below: the contract wants every metric on every
	// workload.
	depth := 0.0
	if after.stats.Coact != nil {
		depth = after.stats.Coact.MeanMaxShardDepth
	}
	m.put("ssd.max_shard_depth", depth)

	ca, cb := after.stats.Coalescer, before.stats.Coalescer
	m.put("server.coalesce_wait_p50_us", float64(ca.WaitP50NS)/1e3)
	m.put("server.coalesce_wait_p99_us", float64(ca.WaitP99NS)/1e3)
	m.put("server.mean_batch_size", ca.MeanBatchSize)
	m.put("server.bypass_share", ratio(float64(ca.Bypasses-cb.Bypasses), ok))
	m.put("server.shed", float64(ca.Shed-cb.Shed))
	m.put("server.rss_growth_kb_per_klookup", ratio(float64(after.use.rssKB-before.use.rssKB)*1000, ok))
	m.put("runtime.gc_count", float64(after.mem.numGC-before.mem.numGC))
	m.put("runtime.gc_pause_ms", gcPauseMS(before.mem, after.mem))

	// The wall-clock numbers a caller sees, ungated (see runE2E).
	cw, lw := byWindow(closed.samples, window, n), byWindow(lo.samples, window, n)
	qps := make([]float64, n)
	for i, c := range cw.count {
		qps[i] = c / window.Seconds()
	}
	m["e2e.qps_closed"] = windowed(qps, cw.minCount)
	m["e2e.p50_ms_open"] = windowed(lw.p50, lw.minCount)
	m["e2e.p99_ms_open"] = windowed(lw.p99, lw.minCount)
	m.put("e2e.cpu_us_per_lookup", ratio(us(after.use.cpu-before.use.cpu), ok))

	m.put("bench.sent", sent)
	m.put("bench.ok", ok)
	m.put("bench.failed", failed)
	m.put("bench.fail_share", ratio(failed, sent))
	m.put("bench.verified", verified)
	m.put("bench.sched_lag_p99_ms", ms(percentile(lags, 0.99)))
	var closedLat []time.Duration
	for _, sm := range closed.samples {
		closedLat = append(closedLat, sm.lat)
	}
	slices.Sort(closedLat)
	m.put("bench.p999_ms_closed", ms(percentile(closedLat, 0.999)))
	loP99 := median(lw.p99)
	hiP99 := median(byWindow(hi.samples, window, n).p99)
	m.put("bench.p99_ms_hi", hiP99)
	m.put("bench.backlog_hi", float64(hi.backlog))
	// A rate is sustained when its p99 meets the limit, nothing failed and
	// the requests outstanding at the end are the few in flight, not a
	// queue that grew: under 1% of those scheduled.
	sustained := func(p *phase, p99 float64) bool {
		return p.failed == 0 && p99 <= latencyLimitMS && p.backlog*100 <= p.scheduled
	}
	rateOK := 0.0
	if sustained(lo, loP99) {
		rateOK = s.RateLo
		if sustained(hi, hiP99) {
			rateOK = s.RateHi
		}
	}
	m.put("bench.rate_ok_rps", rateOK)
	return median(cw.p50)
}
