package cache

import (
	"runtime"
	"testing"
)

func TestShadowCurveTracksLRUHitRates(t *testing.T) {
	s := NewShadow[uint32]([]int{2, 4, 0, 4, -1}) // dropped: 0, -1, dup 4
	// Cyclic scan over 4 keys: an LRU of 2 never hits, an LRU of 4 hits
	// everything after the first pass.
	for pass := 0; pass < 10; pass++ {
		for k := uint32(0); k < 4; k++ {
			s.Touch(k)
		}
	}
	curve := s.Curve()
	if len(curve) != 2 || curve[0].Capacity != 2 || curve[1].Capacity != 4 {
		t.Fatalf("curve capacities = %+v, want [2 4]", curve)
	}
	if curve[0].Hits != 0 {
		t.Errorf("capacity-2 hits = %d on a 4-key cycle, want 0", curve[0].Hits)
	}
	if want := int64(36); curve[1].Hits != want { // 40 accesses − 4 cold misses
		t.Errorf("capacity-4 hits = %d, want %d", curve[1].Hits, want)
	}
	if curve[1].Accesses != 40 {
		t.Errorf("accesses = %d, want 40", curve[1].Accesses)
	}
	if got := s.Recommend(0.05); got != 4 {
		t.Errorf("Recommend = %d, want 4", got)
	}
}

func TestShadowRecommendPicksKnee(t *testing.T) {
	s := NewShadow[uint32]([]int{1, 2, 8})
	// Two hot keys alternating: capacity 2 captures everything capacity 8
	// does, so the knee is 2.
	for i := 0; i < 100; i++ {
		s.Touch(uint32(i % 2))
	}
	if got := s.Recommend(0.05); got != 2 {
		t.Errorf("Recommend = %d, want 2", got)
	}
	if got := NewShadow[uint32]([]int{4}).Recommend(0.05); got != 0 {
		t.Errorf("Recommend with no accesses = %d, want 0", got)
	}
}

func TestShadowTouchAllMatchesTouch(t *testing.T) {
	a := NewShadow[uint32]([]int{3})
	b := NewShadow[uint32]([]int{3})
	stream := []uint32{5, 1, 5, 2, 3, 1, 4, 5, 1, 2}
	for _, k := range stream {
		a.Touch(k)
	}
	b.TouchAll(stream)
	ca, cb := a.Curve(), b.Curve()
	if ca[0] != cb[0] {
		t.Errorf("Touch curve %+v != TouchAll curve %+v", ca[0], cb[0])
	}
}

func TestShadowReset(t *testing.T) {
	s := NewShadow[uint32]([]int{2})
	s.Touch(1)
	s.Touch(1)
	s.Reset()
	c := s.Curve()
	if c[0].Hits != 0 || c[0].Accesses != 0 {
		t.Errorf("after Reset: %+v, want zeroed", c[0])
	}
	s.Touch(1)
	if s.Curve()[0].Hits != 0 {
		t.Error("entry survived Reset")
	}
}

func TestCachePin(t *testing.T) {
	c := New[uint32, int](2, Uint32Hasher)
	c.Pin(100, -1)
	c.Pin(101, -2)
	if v, ok := c.Get(100); !ok || v != -1 {
		t.Fatalf("Get(pinned) = %v, %v", v, ok)
	}
	if !c.Contains(101) {
		t.Error("Contains(pinned) = false")
	}
	// Pins survive arbitrary churn and never consume LRU capacity.
	for k := uint32(0); k < 50; k++ {
		c.Put(k, int(k))
	}
	if _, ok := c.Get(100); !ok {
		t.Error("pinned entry evicted by churn")
	}
	st := c.Stats()
	if st.PinnedEntries != 2 {
		t.Errorf("PinnedEntries = %d, want 2", st.PinnedEntries)
	}
	if st.PinnedHits != 2 { // the two Gets; Contains never counts
		t.Errorf("PinnedHits = %d, want 2", st.PinnedHits)
	}
	if c.PinnedLen() != 2 {
		t.Errorf("PinnedLen = %d, want 2", c.PinnedLen())
	}
	if c.Len() > 2 {
		t.Errorf("Len = %d > capacity 2: pins leaked into the LRU", c.Len())
	}
}

// TestCacheHitPathAllocs is the zero-allocation guard for the cache hit
// path: steady-state Get hits (resident and pinned, counted in the sketch
// through its halvings), misses, and ghost-cache touches must not allocate
// — the shadow-cache addition may not put allocations on the hit path.
func TestCacheHitPathAllocs(t *testing.T) {
	c := New[uint32, int](1024, Uint32Hasher)
	c.Pin(1_000_000, 1)
	for k := uint32(0); k < 512; k++ {
		c.Put(k, int(k))
	}
	sh := NewShadow[uint32]([]int{64, 256, 1024})
	keys := []uint32{3, 7, 11, 13, 17, 19, 23, 29}
	// Warm the shadow past every simulated capacity so its maps stop
	// growing.
	for k := uint32(0); k < 4096; k++ {
		sh.Touch(k)
	}

	var i uint32
	allocs := testing.AllocsPerRun(500, func() {
		c.Get(i % 512)     // resident hit
		c.Get(1_000_000)   // pinned hit
		sh.TouchAll(keys)  // ghost-cache batch touch
		sh.Touch(i % 4096) // ghost-cache single touch
		c.Get(9_999_999)   // miss
		i += 37
	})
	if allocs > 0 {
		t.Errorf("cache hit path allocates %.1f times per op, want 0", allocs)
	}
}

// TestCachePutAllocBudget holds the full Get/Put/PutIfRoom/PutIfHotter mix
// — hits, misses, updates, evicting inserts, bypassed and rejected ones,
// with the sketch counting and halving underneath — to zero allocations once
// the shards' slabs and key indexes have reached capacity: an evicting
// insert reuses the victim's node, and the value it displaced (a refused
// insert's own) goes back to the caller.
func TestCachePutAllocBudget(t *testing.T) {
	c := New[uint32, int](1024, Uint32Hasher)
	for k := uint32(0); k < 2048; k++ {
		c.Put(k, int(k))
	}
	const runs = 20_000 // past several sketch windows of 10 × 1024 events over all shards
	var i uint32
	allocs := testing.AllocsPerRun(runs, func() {
		c.Get(i % 4096)                 // mix of hits and misses
		c.Put(i%4096, 0)                // mix of updates and evicting inserts
		c.PutIfRoom((i+2048)%4096, 0)   // mix of updates and bypasses
		c.PutIfHotter((i+1024)%4096, 0) // mix of updates, evictions and rejections
		i += 37
	})
	if allocs > 0 {
		t.Errorf("cache Get/Put/PutIfRoom/PutIfHotter mix allocates %.1f times per op, want 0", allocs)
	}
	st := c.Stats()
	if st.Bypassed == 0 || st.Bypassed > runs {
		t.Errorf("%d of %d PutIfRoom calls bypassed, want a mix of updates and bypasses", st.Bypassed, runs+1)
	}
	if st.Rejected == 0 || st.Evictions == 0 || st.SketchResets == 0 {
		t.Errorf("stats %+v: want rejections, evictions and sketch halvings in the measured mix", st)
	}
}

// TestCacheFillAllocBudget holds filling a cache to zero allocations: the
// slabs, key indexes and sketches are sized for capacity when the cache is
// built, so a server's allocation rate does not depend on how full its
// cache is.
func TestCacheFillAllocBudget(t *testing.T) {
	const capacity = 4096
	// Counted over the whole fill, not averaged per Put: growth would show
	// as a handful of allocations among thousands of calls. Half the
	// capacity, so that no shard's share of a hashed key range overflows.
	// The count is the process's, and under the race detector the runtime
	// now and then allocates in the background: growth allocates on every
	// fill, so the least of three fills is what is held to zero.
	least, bytes := ^uint64(0), uint64(0)
	for attempt := 0; attempt < 3 && least > 0; attempt++ {
		c := New[uint32, int](capacity, Uint32Hasher)
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for k := uint32(0); k < capacity/2; k += 2 {
			c.Put(k, 0)
			c.PutIfHotter(k+1, 0)
		}
		runtime.ReadMemStats(&after)
		if n := after.Mallocs - before.Mallocs; n < least {
			least, bytes = n, after.TotalAlloc-before.TotalAlloc
		}
		if c.Len() != capacity/2 || c.Stats().Evictions != 0 {
			t.Fatalf("%d entries, %d evictions after %d distinct Puts, want all resident", c.Len(), c.Stats().Evictions, capacity/2)
		}
	}
	if least > 0 {
		t.Errorf("filling a cache halfway allocated %d times (%d bytes), want 0", least, bytes)
	}
}

func BenchmarkShadowTouchAll(b *testing.B) {
	sh := NewShadow[uint32]([]int{1_000, 10_000, 100_000})
	keys := make([]uint32, 26)
	for i := range keys {
		keys[i] = uint32(i * 997)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for j := range keys {
			keys[j] = uint32((i*31 + j*997) % 200_000)
		}
		sh.TouchAll(keys)
	}
}
