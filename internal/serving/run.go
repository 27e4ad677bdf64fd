package serving

import (
	"fmt"

	"maxembed/internal/layout"
	"maxembed/internal/metrics"
)

// RunResult aggregates one closed-loop serving run.
type RunResult struct {
	// Queries processed and total raw keys requested.
	Queries int64
	Keys    int64
	// ElapsedNS is the virtual makespan: the largest worker clock at the
	// end of the run.
	ElapsedNS int64
	// QPS is Queries per virtual second.
	QPS float64
	// EffectiveBandwidth is the paper's headline metric (§8.2): the
	// fraction of every page read that is useful embedding bytes, scaled
	// by the device's rated bandwidth — i.e. the read bandwidth the
	// workload would extract from a saturated drive. It is a property of
	// the placement and selection quality alone, independent of software
	// costs and of how far the run actually pushed the device.
	EffectiveBandwidth float64
	// RawBandwidth is total page bytes read per virtual second of the run.
	RawBandwidth float64
	// Utilization is EffectiveBandwidth over the device's rated bandwidth
	// (= useful bytes / bytes read).
	Utilization float64
	// PagesRead counts SSD reads; UsefulKeys the embeddings they served,
	// SoloKeys those of them that were the only key their read served.
	PagesRead  int64
	UsefulKeys int64
	SoloKeys   int64
	// MeanValidPerRead is the Fig 9 average: embeddings per page read.
	MeanValidPerRead float64
	// MeanMaxShardDepth is the mean, over queries, of the deepest
	// per-shard count of each query's planned reads — the per-query
	// serialization bound co-activation-aware placement minimizes.
	// Always 0 on runs that read no pages; equals mean pages per query
	// on a one-shard backend.
	MeanMaxShardDepth float64
	// ServiceBandwidth is embedding bytes *delivered to queries* per
	// virtual second, counting both SSD-served and DRAM-served keys.
	// Unlike EffectiveBandwidth (which scales read efficiency by the
	// backend's rated bandwidth and so is incomparable across backends
	// with different ratings), ServiceBandwidth is the throughput a
	// client observes, making it the metric for comparing tier mixes at
	// a fixed TCO budget.
	ServiceBandwidth float64
	// CacheHits counts keys served from DRAM.
	CacheHits int64
	// Latency summarizes per-query end-to-end latency.
	Latency metrics.LatencySummary
	// Software time breakdown totals (Fig 15). RecoveryNS is time spent in
	// fault recovery (backoff plus recovery reads).
	SortNS, SelectNS, OtherSoftNS, SSDWaitNS, RecoveryNS int64
	// Fault-recovery totals: recovery reads issued, keys rescued from an
	// alternate replica page, corrupt payloads detected, queries that
	// returned partial results, and the keys those results were missing.
	Retries         int64
	ReplicaRescues  int64
	Corruptions     int64
	DegradedQueries int64
	FailedKeys      int64
	// Cross-request coalescing totals (RunBatched only): distinct keys
	// requested by more than one query of a batch, and page reads whose
	// covered keys spanned more than one query.
	SharedKeys      int64
	SharedPageReads int64
}

// Run processes the queries on the engine with the given number of
// closed-loop workers. Queries are interleaved round-robin across workers,
// which keeps the run single-threaded and deterministic while the virtual
// clocks of the workers overlap on the shared device, modelling concurrent
// serving threads (the paper's multi-thread configuration, §8.4).
func Run(e *Engine, queries [][]Key, workers int) (RunResult, error) {
	if workers < 1 {
		workers = 1
	}
	e.resetRunState()
	ws := make([]*Worker, workers)
	for i := range ws {
		ws[i] = e.NewWorker()
	}
	var res RunResult
	lats := make([]int64, 0, len(queries))
	for i, q := range queries {
		w := ws[i%workers]
		r, err := w.Lookup(q)
		if err != nil {
			return res, fmt.Errorf("serving: query %d: %w", i, err)
		}
		st := r.Stats
		lats = append(lats, st.LatencyNS())
		res.Queries++
		res.Keys += int64(st.Keys)
		res.PagesRead += int64(st.PagesRead)
		res.UsefulKeys += int64(st.UsefulFromSSD)
		res.SoloKeys += int64(st.SoloKeys)
		res.CacheHits += int64(st.CacheHits)
		res.SortNS += st.SortNS
		res.SelectNS += st.SelectNS
		res.OtherSoftNS += st.OtherSoftNS
		res.SSDWaitNS += st.SSDWaitNS
		res.RecoveryNS += st.RecoveryNS
		res.Retries += int64(st.Retries)
		res.ReplicaRescues += int64(st.ReplicaRescues)
		res.Corruptions += int64(st.Corruptions)
		res.FailedKeys += int64(st.FailedKeys)
		if st.Degraded {
			res.DegradedQueries++
		}
	}
	finalizeRun(e, &res, ws, lats)
	return res, nil
}

// resetRunState clears device and engine counters before a measured run.
func (e *Engine) resetRunState() {
	e.be.Reset()
	e.Latency.Reset()
	e.ValidPerRead.Reset()
	e.SpreadDepth.Reset()
	e.Recovery.Reset()
	for i := range e.shardQueuePeak {
		e.shardQueuePeak[i].Store(0)
	}
	if e.cache != nil {
		e.cache.ResetStats()
	}
	if e.shadow != nil {
		e.shadow.Reset()
	}
}

// finalizeRun derives the run's rates from its totals and worker clocks, and
// its latency summary from the per-query samples the harness kept: a run is
// bounded and its tables want exact percentiles, which the engine's
// fixed-size histogram does not give.
func finalizeRun(e *Engine, res *RunResult, ws []*Worker, lats []int64) {
	for _, w := range ws {
		if w.Now() > res.ElapsedNS {
			res.ElapsedNS = w.Now()
		}
	}
	res.QPS = metrics.PerSecond(res.Queries, res.ElapsedNS)
	prof := e.be.Profile()
	res.RawBandwidth = metrics.BytesPerSecond(res.PagesRead*int64(prof.PageSize), res.ElapsedNS)
	res.Utilization = metrics.Utilization(
		float64(res.UsefulKeys*int64(e.vecSize)),
		float64(res.PagesRead*int64(prof.PageSize)))
	res.EffectiveBandwidth = res.Utilization * prof.Bandwidth
	res.ServiceBandwidth = metrics.BytesPerSecond(
		(res.UsefulKeys+res.CacheHits)*int64(e.vecSize), res.ElapsedNS)
	res.MeanValidPerRead = e.ValidPerRead.Mean()
	res.MeanMaxShardDepth = e.SpreadDepth.Mean()
	res.Latency = metrics.Summarize(lats)
}

// WarmCache pre-populates the engine's cache by running the queries
// through the cache admission path only (no timing, no device activity).
// Used to reach steady-state hit rates before a measured run. When the
// engine has a Store the cached payloads are real: uncached keys are
// grouped by home page so each page image is read once per warm pass
// (not once per key), and each distinct key is admitted once, in
// first-appearance order, so the LRU state is deterministic.
func (e *Engine) WarmCache(queries [][]Key) error {
	if e.cache == nil {
		return nil
	}
	lay := e.cfg.Layout

	// First pass: distinct uncached keys in first-appearance order (seen
	// maps each to its position in ordered), grouped by home page.
	var ordered []Key
	seen := make(map[Key]int)
	byPage := make(map[layout.PageID][]Key)
	for _, q := range queries {
		for _, k := range q {
			if _, dup := seen[k]; dup {
				continue
			}
			seen[k] = len(ordered)
			if _, ok := e.cache.Get(k); ok {
				continue
			}
			ordered = append(ordered, k)
			byPage[lay.Home[k]] = append(byPage[lay.Home[k]], k)
		}
	}
	if e.cfg.Store == nil {
		for _, k := range ordered {
			e.cache.Put(k, nil)
		}
		e.cache.ResetStats()
		return nil
	}

	// Second pass: one read per touched page, each wanted key's payload
	// copied to its position in one staging arena.
	staged := make([]byte, len(ordered)*e.vecSize)
	err := e.homePayloads(byPage, func(k Key, payload []byte) {
		copy(staged[seen[k]*e.vecSize:], payload)
	})
	if err != nil {
		return fmt.Errorf("serving: warm cache: %w", err)
	}
	// Admit through the lookup path's storage cycle, so a warm set larger
	// than the cache costs no more storage than the cache holds.
	var spare []byte
	for i, k := range ordered {
		spare, _ = e.cache.Put(k, append(e.vecs.Get(spare), staged[i*e.vecSize:(i+1)*e.vecSize]...))
	}
	e.vecs.Put(spare)
	e.cache.ResetStats()
	return nil
}
