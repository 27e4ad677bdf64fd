package server

import (
	"bytes"
	"net/http"

	"maxembed/internal/cache"
	"maxembed/internal/metrics"
	"maxembed/internal/serving"
	"maxembed/internal/ssd"
)

// StatsResponse is the /v1/stats response body, and the one value both
// stats endpoints render: encoding/json prints it for /v1/stats and
// metrics.WritePrometheus walks the same value for /metrics. Every stat is
// a field of the snapshot struct its owner fills — the backend's
// ssd.Stats, the cache's cache.Stats, the handle's serving.RecoveryTotals —
// tagged there with its JSON key and its Prometheus name; the prom tags
// on this struct only say which prefix each block's families carry.
type StatsResponse struct {
	Device ssd.Stats `json:"device" prom:"device_"`
	// Shards breaks Device down per member drive of a multi-device
	// backend (one entry on a single device), with each shard's peak
	// observed queue depth.
	Shards []ShardStatsEntry `json:"shards" prom:"shard_"`
	// Tiers aggregates shard activity per device tier (fastest first) on a
	// heterogeneous backend; omitted when the backend has a single tier.
	Tiers []TierStatsEntry `json:"tiers,omitempty" prom:"tier_"`
	// Backend describes the read executor of a real-I/O backend; omitted
	// on simulated backends.
	Backend *BackendStatsEntry `json:"backend,omitempty" prom:"backend_"`
	// Coact reports per-query shard-spread depth and the last
	// co-activation placement pass; omitted on one-shard backends.
	Coact *CoactStatsEntry `json:"coact,omitempty" prom:"coact_"`
	// Recovery and Latency aggregate across engine swaps (retired engines'
	// totals are folded in) so they stay monotonic for pollers.
	Recovery serving.RecoveryTotals `json:"recovery" prom:""`
	Health   HealthStats            `json:"health" prom:""`
	Scrub    ScrubStats             `json:"scrub" prom:"scrub_"`
	Rebuild  RebuildStats           `json:"rebuild" prom:"rebuild_"`
	Cache    *CacheStatsEntry       `json:"cache,omitempty" prom:"cache_"`
	// Shadow is the ghost-cache miss-rate curve (one point per simulated
	// DRAM capacity); present only when the engine runs shadow caches.
	Shadow []cache.CurvePoint `json:"shadow,omitempty"`
	// Latency's percentiles are bucketed (metrics.Recorder): within 4 % of
	// the exact ones.
	Latency          metrics.LatencySummary `json:"virtual_latency" prom:"lookup_latency_"`
	MeanValidPerRead float64                `json:"mean_valid_per_read" prom:"valid_per_read,gauge"`
	Refresh          RefreshStats           `json:"refresh" prom:""`
	Coalescer        CoalescerStats         `json:"coalescer" prom:"coalesce_"`
	HTTP             HTTPStats              `json:"http" prom:"http_"`
}

// ShardStatsEntry is one device shard's slice of /v1/stats: its share of
// the read/fault activity plus the highest per-worker queue depth any
// serving worker observed on its queue pair to that shard.
type ShardStatsEntry struct {
	Shard int `json:"shard" prom:"shard,label"`
	// Profile names the shard's device model; Tier is its tier rank
	// (0 = fastest) on a tiered backend, 0 otherwise.
	Profile string `json:"profile,omitempty"`
	Tier    int    `json:"tier"`
	ssd.Stats
	QueuePeak int64 `json:"queue_peak" prom:"queue_peak,gauge"`
	// Health state machine detail, present when the backend tracks
	// per-shard health (a multi-device array).
	*ssd.ShardHealthInfo
}

// TierStatsEntry is one device tier's aggregate slice of /v1/stats.
type TierStatsEntry struct {
	Tier    int    `json:"tier" prom:"tier,label"`
	Profile string `json:"profile" prom:"profile,label"`
	Shards  []int  `json:"shards"`
	// Pages is how many of the current layout's pages live on this tier.
	Pages     int   `json:"pages" prom:"pages,gauge"`
	Reads     int64 `json:"reads" prom:"reads_total,counter"`
	BytesRead int64 `json:"bytes_read" prom:"bytes_read_total,counter"`
	// ReadShare is this tier's fraction of all backend reads.
	ReadShare float64 `json:"read_share" prom:"read_share,gauge"`
	// RatedBandwidth sums the member shards' rated bandwidth (bytes/s).
	RatedBandwidth float64 `json:"rated_bandwidth"`
}

// BackendStatsEntry is a real-I/O backend's slice of /v1/stats. The ring
// fields are present on the io_uring executor only: ReadsPerEnter near the
// pages a lookup reads means submissions batch (one io_uring_enter per
// Drain); near 1 means every read pays its own syscall.
type BackendStatsEntry struct {
	Executor      string   `json:"executor"`
	RingEnters    *int64   `json:"ring_enters,omitempty" prom:"ring_enters_total,counter"`
	ReadsPerEnter *float64 `json:"reads_per_enter,omitempty"`
	// ReadLatency is each shard's measured (wall-clock) read latency.
	ReadLatency []ShardLatency `json:"-" prom:""`
}

// ShardLatency is one shard's read-latency histogram on /metrics.
type ShardLatency struct {
	Shard int               `prom:"shard,label"`
	Hist  metrics.Histogram `prom:"read_latency_seconds,histogram,/1e9"`
}

// CacheStatsEntry is the DRAM cache's slice of /v1/stats: the cache's own
// counters (the pin-set's, and the three outcomes of offering a full shard a
// key — Evictions, each of which made room for an admitted key; Rejected,
// solo-read keys the frequency gate turned down; Bypassed, keys read from a
// shared page — with SketchResets, the halvings that age the gate's counts)
// plus what is derived from them.
type CacheStatsEntry struct {
	cache.Stats
	HitRate float64 `json:"hit_rate"`
	Entries int     `json:"entries" prom:"entries,gauge"`
}

// RefreshStats reports online layout-refresh activity. The handle's part
// advances even when refreshes are driven externally (through the shared
// handle) rather than by this server's loop or endpoint.
type RefreshStats struct {
	Enabled bool `json:"enabled"`
	serving.SwapStats
	Refreshes      int64 `json:"refreshes" prom:"refresh_total,counter"`
	Errors         int64 `json:"errors" prom:"refresh_errors_total,counter"`
	LastDurationNS int64 `json:"last_duration_ns" prom:"refresh_duration_seconds,gauge,/1e9"`
	PendingQueries int64 `json:"pending_queries"`
	// ValidPerReadAfter accumulates on the live engine (it is
	// mean_valid_per_read); ValidPerReadBefore was frozen at the swap.
	// After > Before means the refresh paid off.
	ValidPerReadAfter float64 `json:"valid_per_read_after_swap"`
}

// snapshot builds the stats tree from one read of the engine handle.
func (h *Handler) snapshot() *StatsResponse { return h.snapshotOf(h.handle.View()) }

// snapshotOf builds the stats tree for the engine in v: every
// engine-owned block comes from that engine and its backend, whatever has
// been swapped into the handle since.
func (h *Handler) snapshotOf(v serving.View) *StatsResponse {
	eng, be := v.Engine, v.Engine.Backend()
	resp := &StatsResponse{
		Device:           be.Stats(),
		Shards:           shardStats(eng, be),
		Tiers:            tierStats(eng, be),
		Coact:            h.coactStats(eng),
		Recovery:         v.Recovery,
		Health:           h.nodeHealth(be, nil).stats(),
		Latency:          v.Latency.Summary(),
		MeanValidPerRead: eng.ValidPerRead.Mean(),
		HTTP:             h.http.stats(),
	}
	if fb, ok := be.(*ssd.FileBackend); ok {
		resp.Backend = backendStats(fb, resp.Device.Reads)
	}
	if c := eng.Cache(); c != nil {
		cs := c.Stats()
		resp.Cache = &CacheStatsEntry{Stats: cs, HitRate: cs.HitRate(), Entries: c.Len()}
	}
	if sh := eng.Shadow(); sh != nil {
		resp.Shadow = sh.Curve()
	}
	h.statsMu.Lock()
	resp.Refresh, resp.Scrub, resp.Rebuild = h.refreshStats, h.scrubStats, h.rebuildStats
	h.statsMu.Unlock()
	resp.Refresh.SwapStats = v.SwapStats
	if h.refreshSrc != nil {
		resp.Refresh.PendingQueries = h.refreshSrc.PendingQueries()
	}
	resp.Refresh.ValidPerReadAfter = resp.MeanValidPerRead
	if h.coal != nil {
		resp.Coalescer = h.coal.stats()
	}
	return resp
}

// shardStats snapshots per-shard device counters and the engine's
// per-shard queue-depth peaks.
func shardStats(eng *serving.Engine, be ssd.Backend) []ShardStatsEntry {
	peaks := eng.ShardQueuePeaks()
	tr, _ := be.(ssd.TierReporter)
	hr, _ := be.(ssd.HealthReporter)
	out := make([]ShardStatsEntry, be.NumShards())
	for i := range out {
		sh := be.Shard(i)
		out[i] = ShardStatsEntry{Shard: i, Profile: sh.Profile().Name, Stats: sh.Stats()}
		if tr != nil {
			out[i].Tier = tr.TierOf(i)
		}
		if i < len(peaks) {
			out[i].QueuePeak = peaks[i]
		}
		if hr != nil {
			info := hr.ShardHealth(i)
			out[i].ShardHealthInfo = &info
		}
	}
	return out
}

// tierStats aggregates shard activity per device tier of a heterogeneous
// backend, nil when the backend has a single tier. Page occupancy comes
// from the engine's layout: page p stripes to shard p mod n.
func tierStats(eng *serving.Engine, be ssd.Backend) []TierStatsEntry {
	tr, ok := be.(ssd.TierReporter)
	if !ok || tr.NumTiers() < 2 {
		return nil
	}
	n := be.NumShards()
	out := make([]TierStatsEntry, tr.NumTiers())
	var totalReads int64
	for t := range out {
		info := tr.Tier(t)
		out[t] = TierStatsEntry{Tier: t, Profile: info.Profile.Name, Shards: info.Shards}
		for _, s := range info.Shards {
			ds := be.Shard(s).Stats()
			out[t].Reads += ds.Reads
			out[t].BytesRead += ds.BytesRead
			out[t].RatedBandwidth += be.Shard(s).Profile().Bandwidth
			totalReads += ds.Reads
		}
	}
	for p := range eng.Layout().Pages {
		out[tr.TierOf(p%n)].Pages++
	}
	if totalReads > 0 {
		for t := range out {
			out[t].ReadShare = float64(out[t].Reads) / float64(totalReads)
		}
	}
	return out
}

// backendStats builds the executor block of a real-I/O backend.
func backendStats(fb *ssd.FileBackend, reads int64) *BackendStatsEntry {
	e := &BackendStatsEntry{Executor: fb.ExecutorKind(), ReadLatency: make([]ShardLatency, fb.NumShards())}
	if n, ok := fb.RingEnters(); ok {
		per := 0.0
		if n > 0 {
			per = float64(reads) / float64(n)
		}
		e.RingEnters, e.ReadsPerEnter = &n, &per
	}
	for s := range e.ReadLatency {
		e.ReadLatency[s] = ShardLatency{Shard: s, Hist: fb.ShardReadLatency(s).Histogram()}
	}
	return e
}

func (h *Handler) stats(w http.ResponseWriter, _ *http.Request) { writeJSON(w, h.snapshot()) }

// metrics renders the same snapshot in Prometheus text exposition format
// for scrape-based monitoring.
func (h *Handler) metrics(w http.ResponseWriter, _ *http.Request) {
	var buf bytes.Buffer
	if err := metrics.WritePrometheus(&buf, "maxembed_", h.snapshot()); err != nil {
		httpError(w, http.StatusInternalServerError, "%v", err)
		return
	}
	w.Header().Set("Content-Type", "text/plain; version=0.0.4")
	w.Write(buf.Bytes())
}
