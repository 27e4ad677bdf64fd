package cache

import (
	"math/rand"
	"sync"
	"testing"
)

// TestSketchHalvesAtWindow pins the sketch's geometry and its forgetting:
// 16 counters and a window of ten events per slot, every counter halved by
// exactly the event that completes a window, estimates capped at 15.
func TestSketchHalvesAtWindow(t *testing.T) {
	for _, capacity := range []int{1, 3, 100, 1600} {
		s := newSketch(capacity)
		if got := 16 * len(s.table); got < 16*capacity || got >= 2*16*max(capacity, 1) || got&(got-1) != 0 {
			t.Fatalf("capacity %d: %d counters, want the power of two in [%d, %d)", capacity, got, 16*capacity, 32*capacity)
		}
		if s.window != 10*capacity {
			t.Fatalf("capacity %d: window %d, want %d", capacity, s.window, 10*capacity)
		}
		const hot, other = 0xfeed, 0xbeef
		want := 0
		for round := 1; round <= 3; round++ {
			// All but the last event of a window: nothing is forgotten.
			for i := 0; i < s.window-1; i++ {
				before := s.estimate(hot)
				s.add(hot)
				if got := s.estimate(hot); got > sketchMax || got < before {
					t.Fatalf("capacity %d: estimate went from %d to %d on a count", capacity, before, got)
				}
			}
			if got := s.resets; got != int64(round-1) {
				t.Fatalf("capacity %d: %d halvings one event short of window %d, want %d", capacity, got, round, round-1)
			}
			before := s.estimate(hot)
			s.add(other)
			if got := s.resets; got != int64(round) {
				t.Fatalf("capacity %d: %d halvings after window %d, want %d", capacity, got, round, round)
			}
			if got := s.estimate(hot); got != before/2 {
				t.Fatalf("capacity %d: estimate %d after a halving of %d, want %d", capacity, got, before, before/2)
			}
			if want = min(sketchMax, want+s.window-1); before != want {
				t.Fatalf("capacity %d, window %d: estimate %d before the halving, want %d", capacity, round, before, want)
			}
			want /= 2
		}
	}
}

// TestSketchNeverUndercounts: a count-min estimate is at least the true
// count (below saturation), whatever else was counted.
func TestSketchNeverUndercounts(t *testing.T) {
	s := newSketch(1024)
	s.window = 1 << 30 // no halving in this test
	rng := rand.New(rand.NewSource(5))
	truth := map[uint64]int{}
	for i := 0; i < 4000; i++ {
		h := Uint32Hasher(uint32(rng.Intn(700)))
		s.add(h)
		truth[h]++
	}
	exact := 0
	for h, n := range truth {
		got := s.estimate(h)
		if got < min(n, sketchMax) || got > sketchMax {
			t.Fatalf("estimate %d for a hash counted %d times", got, n)
		}
		if got == min(n, sketchMax) {
			exact++
		}
	}
	// 700 keys over 4096 counters a row: most estimates are exact.
	if exact < len(truth)/2 {
		t.Errorf("%d of %d estimates exact, want most", exact, len(truth))
	}
}

// TestPutIfHotterEvictsOnlyForHotterKey checks every gated insert of a
// random stream against the sketch, white-box: on a full shard a new key
// evicts exactly when its estimate (the offer included) is strictly above
// the least-recently-used entry's; otherwise nothing leaves the cache, the
// caller's value comes back and the spared entry moves to the front.
func TestPutIfHotterEvictsOnlyForHotterKey(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	c := NewSharded[uint32, int](32, 1, Uint32Hasher)
	s := &c.shards[0]
	var evictions, rejections int
	for i := 0; i < 50_000; i++ {
		// A skewed stream over 4× the capacity, with reads in between so
		// that entries differ in count and recency.
		k := uint32(rng.Intn(32) * rng.Intn(5))
		if rng.Intn(3) == 0 {
			c.Get(k)
			continue
		}
		_, present := s.index[k]
		full := s.len == s.capacity
		victim := s.nodes[s.nodes[sentinel].prev].key
		// The offer counts before it is weighed; a halving it triggers
		// applies to both sides.
		probe := s.freq
		probe.table = append([]uint64(nil), s.freq.table...)
		probe.add(Uint32Hasher(k))
		hotter := probe.estimate(Uint32Hasher(k)) > probe.estimate(Uint32Hasher(victim))

		before := c.Stats()
		old, displaced := c.PutIfHotter(k, i)
		after := c.Stats()
		switch {
		case present || !full:
			if after.Evictions != before.Evictions || after.Rejected != before.Rejected {
				t.Fatalf("op %d: an update or a fill counted as %+v -> %+v", i, before, after)
			}
		case hotter:
			evictions++
			if after.Evictions != before.Evictions+1 || c.Contains(victim) || !c.Contains(k) || !displaced {
				t.Fatalf("op %d: key %d is hotter than victim %d but did not replace it", i, k, victim)
			}
		default:
			rejections++
			if after.Rejected != before.Rejected+1 || after.Evictions != before.Evictions ||
				c.Contains(k) || !displaced || old != i {
				t.Fatalf("op %d: key %d is no hotter than victim %d but %+v -> %+v, displaced %d, %v",
					i, k, victim, before, after, old, displaced)
			}
			if front := s.nodes[s.nodes[sentinel].next].key; front != victim {
				t.Fatalf("op %d: spared victim %d is not at the front (%d is)", i, victim, front)
			}
		}
	}
	if evictions == 0 || rejections == 0 {
		t.Fatalf("%d evictions, %d rejections: want both", evictions, rejections)
	}
}

// TestPutIfHotterScanResistance: a scan of keys never seen before, thirty
// times the cache long, cannot push out a working set that is being read —
// but for the odd scanned key that shares all its counters with hot ones —
// and a new working set gets in once the old one is read no more and the
// halvings have aged its counts.
func TestPutIfHotterScanResistance(t *testing.T) {
	const capacity = 64
	c := NewSharded[uint32, int](capacity, 1, Uint32Hasher)
	for k := uint32(0); k < capacity; k++ {
		c.PutIfHotter(k, int(k))
	}
	held := func(from uint32) (n int) {
		for k := from; k < from+capacity; k++ {
			if c.Contains(k) {
				n++
			}
		}
		return n
	}
	const scan = 30 * capacity
	for i := uint32(0); i < scan; i++ {
		c.Get(i % capacity)
		c.PutIfHotter(1000+i, 0)
	}
	if st := c.Stats(); held(0) < capacity*7/8 || st.Rejected < scan*95/100 {
		t.Fatalf("%d of %d keys of the working set outlasted the scan, stats %+v", held(0), capacity, st)
	}
	for round := 0; round < 40; round++ {
		for k := uint32(5000); k < 5000+capacity; k++ {
			if _, ok := c.Get(k); !ok {
				c.PutIfHotter(k, 0)
			}
		}
	}
	if held(5000) < capacity-4 {
		t.Fatalf("%d of %d keys of the new working set cached after 40 rounds, stats %+v", held(5000), capacity, c.Stats())
	}
}

// TestPutIfHotterSingleSlotShard: the smallest shard there is still gates.
func TestPutIfHotterSingleSlotShard(t *testing.T) {
	c := NewSharded[uint32, int](1, 1, Uint32Hasher)
	c.PutIfHotter(1, 1)
	c.Get(1)
	if old, displaced := c.PutIfHotter(2, 2); !displaced || old != 2 || !c.Contains(1) {
		t.Fatalf("a key offered once displaced %d (%v) from a shard holding a read key", old, displaced)
	}
	c.PutIfHotter(2, 2)
	if old, displaced := c.PutIfHotter(2, 2); !displaced || old != 1 || !c.Contains(2) || c.Len() != 1 {
		t.Fatalf("a key offered three times displaced %d (%v), Len %d", old, displaced, c.Len())
	}
}

// TestConcurrentGatedInserts hammers a tiny cache from many goroutines with
// the serving engine's calls — GetAppend and PeekAppend + Touch probes,
// gated and never-evicting inserts that recycle displaced storage — so that
// the race detector sees the sketch, the recency list and the value handoff
// under contention. Values carry their key; a torn or aliased one shows.
func TestConcurrentGatedInserts(t *testing.T) {
	c := NewSharded[uint32, []uint32](16, 2, Uint32Hasher)
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(w)))
			var spare, dst []uint32
			for i := 0; i < 20_000; i++ {
				k := uint32(rng.Intn(8) * rng.Intn(12))
				get := GetAppend[uint32, uint32]
				if i%2 == 0 {
					get = PeekAppend[uint32, uint32]
				}
				var ok bool
				if dst, ok = get(c, k, dst[:0]); ok {
					if len(dst) != 4 || dst[0] != k || dst[3] != k {
						t.Errorf("key %d read as %v", k, dst)
						return
					}
					c.Touch(k)
					continue
				}
				if spare == nil {
					spare = make([]uint32, 4)
				}
				v := spare[:4]
				v[0], v[1], v[2], v[3] = k, k, k, k
				put := c.PutIfHotter
				if i%3 == 0 {
					put = c.PutIfRoom
				}
				spare, _ = put(k, v)
			}
		}(w)
	}
	wg.Wait()
	st := c.Stats()
	if c.Len() > c.Capacity() || st.Rejected == 0 || st.Bypassed == 0 || st.Evictions == 0 || st.SketchResets == 0 {
		t.Errorf("Len %d of %d, stats %+v: want every outcome exercised", c.Len(), c.Capacity(), st)
	}
}
