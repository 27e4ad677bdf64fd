package serving

import (
	"errors"
	"sync"
	"sync/atomic"

	"maxembed/internal/metrics"
)

// Online layout refresh needs to replace a running engine — new layout, new
// store, new selection index — without stranding in-flight sessions on the
// old layout or dropping requests. Swappable is that seam: a versioned,
// atomically swappable engine handle. Serving frontends load the current
// (engine, generation) pair at each query boundary and re-bind their
// workers when the generation has moved, so a swap is picked up between
// queries, never inside one; the old engine (and its page images) stays
// alive until the last worker bound to it finishes, which is what lets two
// store generations coexist during a swap.

// engineEntry pairs an engine with the layout generation it serves.
type engineEntry struct {
	eng *Engine
	gen uint64
}

// RecoveryTotals is a plain-value snapshot of recovery activity summed
// across every engine a Swappable has held. Keeping the totals monotonic
// across swaps is what lets Prometheus-style counters survive a refresh
// (a fresh engine's counters start at zero).
type RecoveryTotals struct {
	ReadErrors      int64 `json:"read_errors" prom:"read_errors_total,counter"`
	Timeouts        int64 `json:"timeouts" prom:"read_timeouts_total,counter"`
	Corruptions     int64 `json:"corruptions_detected" prom:"corruptions_detected_total,counter"`
	Retries         int64 `json:"retries" prom:"read_retries_total,counter"`
	ReplicaRescues  int64 `json:"replica_rescues" prom:"replica_rescues_total,counter"`
	RecoveredKeys   int64 `json:"recovered_keys" prom:"recovered_keys_total,counter"`
	DegradedQueries int64 `json:"degraded_queries" prom:"degraded_queries_total,counter"`
	FailedKeys      int64 `json:"failed_keys" prom:"failed_keys_total,counter"`
	// ShardReroutes counts keys proactively moved off failed/rebuilding
	// shards before submit; StoreFallbacks counts keys served by
	// host-store read-through because no live replica covered them.
	ShardReroutes  int64 `json:"shard_reroutes" prom:"shard_reroutes_total,counter"`
	StoreFallbacks int64 `json:"store_fallbacks" prom:"store_fallbacks_total,counter"`
	// Lookups counts queries served: the samples of View.Latency.
	Lookups int64 `json:"lookups" prom:"lookups_total,counter"`
}

// add accumulates an engine's current counters into the totals.
func (t *RecoveryTotals) add(e *Engine) {
	r := e.Recovery
	t.ReadErrors += r.ReadErrors.Load()
	t.Timeouts += r.Timeouts.Load()
	t.Corruptions += r.Corruptions.Load()
	t.Retries += r.Retries.Load()
	t.ReplicaRescues += r.ReplicaRescues.Load()
	t.RecoveredKeys += r.RecoveredKeys.Load()
	t.DegradedQueries += r.DegradedQueries.Load()
	t.FailedKeys += r.FailedKeys.Load()
	t.ShardReroutes += r.ShardReroutes.Load()
	t.StoreFallbacks += r.StoreFallbacks.Load()
}

// SwapStats is the handle's own slice of the stats.
type SwapStats struct {
	// Generation is the current engine's layout generation; Swaps counts
	// the engines swapped in before it.
	Generation uint64 `json:"layout_generation" prom:"layout_generation,gauge"`
	Swaps      int64  `json:"engine_swaps" prom:"engine_swaps_total,counter"`
	// ValidPerReadBefore is the valid-embeddings-per-read mean of the
	// engine most recently replaced (0 before any swap). Read next to the
	// current engine's running mean it shows whether a refresh recovered
	// placement quality.
	ValidPerReadBefore float64 `json:"valid_per_read_before_swap" prom:"valid_per_read_before_swap,gauge"`
}

// View is one consistent read of a Swappable: the current engine and the
// handle's state as of that engine. A stats render reports from one View,
// so a render that straddles a swap still describes one engine.
type View struct {
	Engine *Engine
	SwapStats
	// Recovery and Latency sum over every engine the handle has held —
	// what the replaced ones had counted when they were swapped out, plus
	// Engine's live state — so both are monotonic across swaps.
	Recovery RecoveryTotals
	Latency  metrics.LatencyHist
}

// Swappable is a versioned engine handle supporting atomic hot swap: Load
// returns the current engine and its layout generation, and Swap publishes
// a replacement built from a refreshed layout. It is safe for concurrent
// use; loads are a single atomic pointer read on the serving hot path.
type Swappable struct {
	cur   atomic.Pointer[engineEntry]
	swaps atomic.Int64

	mu         sync.Mutex          // serializes Swap
	retired    RecoveryTotals      // counters carried over from replaced engines
	retiredLat metrics.LatencyHist // their latency samples
	beforeMean float64             // replaced engine's ValidPerRead mean at last swap
}

// NewSwappable returns a handle serving the given engine at generation 1.
func NewSwappable(e *Engine) *Swappable {
	if e == nil {
		panic("serving: NewSwappable(nil)")
	}
	s := &Swappable{}
	e.gen = 1
	s.cur.Store(&engineEntry{eng: e, gen: 1})
	return s
}

// Load returns the current engine and its layout generation.
func (s *Swappable) Load() (*Engine, uint64) {
	e := s.cur.Load()
	return e.eng, e.gen
}

// Engine returns the current engine.
func (s *Swappable) Engine() *Engine { return s.cur.Load().eng }

// Generation returns the current layout generation (starts at 1 and
// increments on every Swap).
func (s *Swappable) Generation() uint64 { return s.cur.Load().gen }

// Swaps returns how many engines have been swapped in since creation.
func (s *Swappable) Swaps() int64 { return s.swaps.Load() }

// Swap atomically publishes e as the current engine under the next
// generation and returns that generation. The replaced engine's counters
// and latency histogram are folded into the handle's retired totals and its
// valid-per-read mean is retained (SwapStats.ValidPerReadBefore) so a
// refresh's effect is observable as a before/after pair. The caller must
// not have exposed e to any worker yet: Swap stamps its generation before
// publishing it.
func (s *Swappable) Swap(e *Engine) (uint64, error) {
	if e == nil {
		return 0, errors.New("serving: Swap(nil)")
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	old := s.cur.Load()
	if e == old.eng {
		return old.gen, errors.New("serving: Swap of the already-current engine")
	}
	s.retired.add(old.eng)
	s.retiredLat.Add(old.eng.Latency.Snapshot())
	s.beforeMean = old.eng.ValidPerRead.Mean()
	gen := old.gen + 1
	e.gen = gen
	s.cur.Store(&engineEntry{eng: e, gen: gen})
	s.swaps.Add(1)
	return gen, nil
}

// View reads the handle once (see View). It is taken under the swap mutex
// so a concurrent Swap cannot fold the current engine into the retired
// totals between two of its reads, which would make them transiently dip.
func (s *Swappable) View() View {
	s.mu.Lock()
	defer s.mu.Unlock()
	cur := s.cur.Load()
	v := View{
		Engine:    cur.eng,
		SwapStats: SwapStats{Generation: cur.gen, Swaps: s.swaps.Load(), ValidPerReadBefore: s.beforeMean},
		Recovery:  s.retired,
		Latency:   s.retiredLat,
	}
	v.Recovery.add(cur.eng)
	v.Latency.Add(cur.eng.Latency.Snapshot())
	v.Recovery.Lookups = v.Latency.Count
	return v
}
