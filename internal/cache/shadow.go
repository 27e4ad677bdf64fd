package cache

import (
	"sort"
	"sync"
)

// Shadow is a bank of keys-only ghost caches: each simulates a plain LRU
// of a different capacity over the same access stream, recording only
// whether each access would have hit. Feeding the serving engine's
// distinct-key stream through a Shadow yields the cache's miss-rate curve
// at capacities the real cache does not have — the Bandana technique for
// sizing DRAM per table from measurement instead of guesses. The curve
// then picks both the DRAM size and (via the page-heat analogue) the
// fast-tier cut point. What it predicts is plain LRU: a cache filled through
// PutIfHotter keeps what it has counted most and hits more often than the
// ghost of its size says, so as a sizing guide the curve is conservative.
//
// All state is preallocated at construction: every simulated LRU is an
// intrusive doubly-linked list over fixed index arrays with a free list,
// so steady-state Touch performs no allocations (the per-LRU position map
// reuses deleted slots once the simulated capacity has been reached).
// A Shadow is safe for concurrent use; one mutex guards the whole bank —
// it is bookkeeping off the latency-critical path, and batching through
// TouchAll keeps the lock acquisition per query, not per key.
type Shadow[K comparable] struct {
	mu       sync.Mutex
	sims     []keyLRU[K]
	accesses int64
}

// CurvePoint is one simulated capacity on the miss-rate curve.
type CurvePoint struct {
	// Capacity is the simulated LRU's entry capacity.
	Capacity int `json:"capacity"`
	// Hits is how many accesses would have hit at this capacity.
	Hits int64 `json:"hits"`
	// Accesses is the total accesses observed (same for every point).
	Accesses int64 `json:"accesses"`
	// HitRate is Hits / Accesses (0 with no accesses).
	HitRate float64 `json:"hit_rate"`
}

// NewShadow returns a shadow bank simulating the given capacities.
// Non-positive and duplicate capacities are dropped; capacities are kept
// in ascending order.
func NewShadow[K comparable](capacities []int) *Shadow[K] {
	caps := make([]int, 0, len(capacities))
	seen := map[int]bool{}
	for _, c := range capacities {
		if c > 0 && !seen[c] {
			seen[c] = true
			caps = append(caps, c)
		}
	}
	sort.Ints(caps)
	s := &Shadow[K]{sims: make([]keyLRU[K], len(caps))}
	for i, c := range caps {
		s.sims[i].init(c)
	}
	return s
}

// Touch records one access to k against every simulated capacity.
func (s *Shadow[K]) Touch(k K) {
	s.mu.Lock()
	s.accesses++
	for i := range s.sims {
		s.sims[i].touch(k)
	}
	s.mu.Unlock()
}

// TouchAll records one access per key under a single lock acquisition —
// the form the serving engine uses with its per-query distinct-key list.
func (s *Shadow[K]) TouchAll(keys []K) {
	s.mu.Lock()
	s.accesses += int64(len(keys))
	for i := range s.sims {
		for _, k := range keys {
			s.sims[i].touch(k)
		}
	}
	s.mu.Unlock()
}

// Curve returns the measured hit-rate curve, ascending by capacity.
func (s *Shadow[K]) Curve() []CurvePoint {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]CurvePoint, len(s.sims))
	for i := range s.sims {
		p := CurvePoint{
			Capacity: s.sims[i].cap,
			Hits:     s.sims[i].hits,
			Accesses: s.accesses,
		}
		if s.accesses > 0 {
			p.HitRate = float64(p.Hits) / float64(s.accesses)
		}
		out[i] = p
	}
	return out
}

// Recommend returns the smallest simulated capacity whose hit rate is
// within tolerance of the best simulated capacity's (e.g. 0.05 accepts
// ≥ 95% of the maximum hit rate) — the knee of the miss-rate curve, the
// point past which DRAM dollars stop buying hits. Returns 0 when nothing
// has been observed.
func (s *Shadow[K]) Recommend(tolerance float64) int {
	curve := s.Curve()
	best := 0.0
	for _, p := range curve {
		if p.HitRate > best {
			best = p.HitRate
		}
	}
	if best == 0 {
		return 0
	}
	for _, p := range curve {
		if p.HitRate >= (1-tolerance)*best {
			return p.Capacity
		}
	}
	return curve[len(curve)-1].Capacity
}

// Reset clears hit counters and evicts every simulated entry, keeping the
// configured capacities.
func (s *Shadow[K]) Reset() {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.accesses = 0
	for i := range s.sims {
		c := s.sims[i].cap
		s.sims[i].init(c)
	}
}

// keyLRU is one fixed-capacity keys-only LRU simulated over preallocated
// index arrays. Nodes are 1..cap; node 0 is the sentinel whose next is the
// MRU and whose prev is the LRU. Unused nodes are chained through next as
// a free list.
type keyLRU[K comparable] struct {
	cap  int
	pos  map[K]int32
	keys []K
	next []int32
	prev []int32
	free int32
	hits int64
}

func (l *keyLRU[K]) init(capacity int) {
	l.cap = capacity
	l.hits = 0
	l.pos = make(map[K]int32, capacity)
	l.keys = make([]K, capacity+1)
	l.next = make([]int32, capacity+1)
	l.prev = make([]int32, capacity+1)
	// Sentinel self-loop; all nodes on the free list.
	l.free = 0
	for i := capacity; i >= 1; i-- {
		l.next[i] = l.free
		l.free = int32(i)
	}
}

func (l *keyLRU[K]) unlink(n int32) {
	l.next[l.prev[n]] = l.next[n]
	l.prev[l.next[n]] = l.prev[n]
}

func (l *keyLRU[K]) pushFront(n int32) {
	l.next[n] = l.next[0]
	l.prev[n] = 0
	l.prev[l.next[0]] = n
	l.next[0] = n
}

func (l *keyLRU[K]) touch(k K) {
	if n, ok := l.pos[k]; ok {
		l.hits++
		if l.prev[n] != 0 {
			l.unlink(n)
			l.pushFront(n)
		}
		return
	}
	n := l.free
	if n != 0 {
		l.free = l.next[n]
	} else {
		// Full: recycle the LRU node.
		n = l.prev[0]
		delete(l.pos, l.keys[n])
		l.unlink(n)
	}
	l.keys[n] = k
	l.pos[k] = n
	l.pushFront(n)
}
