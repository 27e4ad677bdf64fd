package cache

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"
)

// model is the trivially correct reference the cache is checked against:
// per shard, a key slice in recency order (most recent first), a map of
// values and the sketch spelled out as one byte per counter, every operation
// a linear scan. It takes its geometry (shard count, per-shard capacity,
// sketch width and window) from the cache under test; TestShardedCapacity
// and TestSketchHalvesAtWindow pin that geometry separately.
type model struct {
	mask   uint64
	shards []modelShard
	pinned map[uint32][]uint64
	stats  Stats
}

type modelShard struct {
	capacity int
	order    []uint32
	vals     map[uint32][]uint64

	// The sketch: row r keeps four counters for each of the packed table's
	// words, where the packed sketch keeps them in nibbles 4r…4r+3.
	rows           [sketchRows][]uint8
	events, window int
}

func newModel(c *Cache[uint32, []uint64]) *model {
	m := &model{mask: c.mask, shards: make([]modelShard, len(c.shards)), pinned: map[uint32][]uint64{}}
	for i := range c.shards {
		s := &c.shards[i]
		ms := modelShard{capacity: s.capacity, vals: map[uint32][]uint64{}, window: s.freq.window}
		for r := range ms.rows {
			ms.rows[r] = make([]uint8, 4*len(s.freq.table))
		}
		m.shards[i] = ms
	}
	return m
}

func (m *model) shard(k uint32) *modelShard { return &m.shards[Uint32Hasher(k)&m.mask] }

// counter is k's counter in row r.
func (s *modelShard) counter(k uint32, r int) *uint8 {
	x := Uint32Hasher(k) * sketchSeeds[r]
	words := uint64(len(s.rows[r]) / 4)
	return &s.rows[r][4*(x>>32%words)+x>>62]
}

// count records one event for k.
func (s *modelShard) count(k uint32, st *Stats) {
	for r := range s.rows {
		if c := s.counter(k, r); *c < sketchMax {
			*c++
		}
	}
	if s.events++; s.events == s.window {
		for r := range s.rows {
			for i := range s.rows[r] {
				s.rows[r][i] /= 2
			}
		}
		s.events = 0
		st.SketchResets++
	}
}

func (s *modelShard) estimate(k uint32) uint8 {
	least := uint8(sketchMax)
	for r := range s.rows {
		least = min(least, *s.counter(k, r))
	}
	return least
}

func (s *modelShard) toFront(k uint32) {
	s.order = slices.DeleteFunc(s.order, func(x uint32) bool { return x == k })
	s.order = slices.Insert(s.order, 0, k)
}

// get is Get and GetAppend; with touch unset, PeekAppend.
func (m *model) get(k uint32, touch bool) ([]uint64, bool) {
	if v, ok := m.pinned[k]; ok {
		m.stats.Hits++
		m.stats.PinnedHits++
		return v, true
	}
	s := m.shard(k)
	v, ok := s.vals[k]
	if !ok {
		m.stats.Misses++
		return nil, false
	}
	m.stats.Hits++
	if touch {
		m.touch(k)
	}
	return v, true
}

func (m *model) touch(k uint32) {
	if s := m.shard(k); s.vals[k] != nil {
		s.toFront(k)
		s.count(k, &m.stats)
	}
}

func (m *model) contains(k uint32) bool {
	if _, ok := m.pinned[k]; ok {
		return true
	}
	_, ok := m.shard(k).vals[k]
	return ok
}

func (m *model) put(k uint32, v []uint64, may eviction) (old []uint64, displaced bool) {
	s := m.shard(k)
	if may == evictIfHotter {
		s.count(k, &m.stats)
	}
	if prev, ok := s.vals[k]; ok {
		s.toFront(k)
		s.vals[k] = v
		return prev, true
	}
	if len(s.vals) >= s.capacity {
		if s.capacity <= 0 {
			return v, true
		}
		victim := s.order[len(s.order)-1]
		switch {
		case may == evictNever:
			m.stats.Bypassed++
			return v, true
		case may == evictIfHotter && s.estimate(k) <= s.estimate(victim):
			m.stats.Rejected++
			s.toFront(victim)
			return v, true
		}
		s.order = s.order[:len(s.order)-1]
		old, displaced = s.vals[victim], true
		delete(s.vals, victim)
		m.stats.Evictions++
	}
	s.toFront(k)
	s.vals[k] = v
	return old, displaced
}

func (m *model) snapshot() Stats {
	st := m.stats
	st.PinnedEntries = len(m.pinned)
	return st
}

// order walks the shard's recency list front to back and checks the back
// links and the length on the way.
func (s *shard[K, V]) order() ([]K, error) {
	var keys []K
	prev := uint32(sentinel)
	for n := s.nodes[sentinel].next; n != sentinel; prev, n = n, s.nodes[n].next {
		e := &s.nodes[n]
		if e.prev != prev || s.index[e.key] != n {
			return nil, fmt.Errorf("node %d: prev %d (want %d), index %d", n, e.prev, prev, s.index[e.key])
		}
		keys = append(keys, e.key)
	}
	if s.nodes[sentinel].prev != prev || len(keys) != s.len {
		return nil, fmt.Errorf("tail %d (want %d), %d linked, len %d", s.nodes[sentinel].prev, prev, len(keys), s.len)
	}
	return keys, nil
}

const (
	opKeys   = 40 // key universe of an op stream
	opHeader = 2  // shard count, capacity
)

// checkOps decodes data as a cache geometry followed by (op, key) byte
// pairs, applies the stream to a cache and to the model, and compares every
// return value — a Put's displaced value names the eviction victim, a
// PutIfRoom's or PutIfHotter's own value coming back says nothing was
// cached — and, after every op, contents, recency order, every key's sketch
// estimate, Len and Stats.
func checkOps(t testing.TB, data []byte) {
	if len(data) < opHeader {
		return
	}
	capacity := int(data[1] % 24)
	c := NewSharded[uint32, []uint64](capacity, 1<<(data[0]%4), Uint32Hasher)
	m := newModel(c)
	var version uint64
	for i := opHeader; i+1 < len(data); i += 2 {
		op, k := data[i]%20, uint32(data[i+1]%opKeys)
		at := fmt.Sprintf("op %d (%d on key %d)", (i-opHeader)/2, op, k)
		switch {
		case op < 3:
			got, ok := c.Get(k)
			want, wok := m.get(k, true)
			if ok != wok || !slices.Equal(got, want) {
				t.Fatalf("%s: Get = %v, %v; model %v, %v", at, got, ok, want, wok)
			}
		case op < 7:
			get, touch := GetAppend[uint32, uint64], op < 5
			if !touch {
				get = PeekAppend[uint32, uint64]
			}
			got, ok := get(c, k, []uint64{7})
			want, wok := m.get(k, touch)
			if ok != wok || !slices.Equal(got, append([]uint64{7}, want...)) {
				t.Fatalf("%s: GetAppend (touch: %v) = %v, %v; model %v, %v", at, touch, got, ok, want, wok)
			}
		case op < 9:
			c.Touch(k)
			m.touch(k)
		case op < 17:
			version++
			v := []uint64{uint64(k), version}
			put, may := c.Put, evictAlways
			switch {
			case op >= 14:
				put, may = c.PutIfHotter, evictIfHotter
			case op >= 12:
				put, may = c.PutIfRoom, evictNever
			}
			got, ok := put(k, v)
			want, wok := m.put(k, v, may)
			if ok != wok || !slices.Equal(got, want) {
				t.Fatalf("%s: put (eviction %d) displaced %v, %v; model %v, %v", at, may, got, ok, want, wok)
			}
		case op < 19:
			if got, want := c.Contains(k), m.contains(k); got != want {
				t.Fatalf("%s: Contains = %v; model %v", at, got, want)
			}
		default:
			version++
			v := []uint64{uint64(k), version}
			c.Pin(k, v)
			m.pinned[k] = v
		}
		if got, want := c.Stats(), m.snapshot(); got != want {
			t.Fatalf("%s: Stats = %+v; model %+v", at, got, want)
		}
		held := 0
		for si := range c.shards {
			s, ms := &c.shards[si], &m.shards[si]
			if len(s.nodes) > firstEntry+s.capacity {
				t.Fatalf("%s: shard %d slab has %d nodes for capacity %d", at, si, len(s.nodes), s.capacity)
			}
			keys, err := s.order()
			if err != nil {
				t.Fatalf("%s: shard %d: %v", at, si, err)
			}
			if !slices.Equal(keys, ms.order) {
				t.Fatalf("%s: shard %d holds %v; model %v", at, si, keys, ms.order)
			}
			for _, k := range keys {
				if !slices.Equal(s.nodes[s.index[k]].val, ms.vals[k]) {
					t.Fatalf("%s: key %d holds %v; model %v", at, k, s.nodes[s.index[k]].val, ms.vals[k])
				}
			}
			held += len(keys)
		}
		if c.Len() > c.Capacity() || c.Len() != held {
			t.Fatalf("%s: Len = %d, capacity %d, model holds %d", at, c.Len(), c.Capacity(), held)
		}
		for k := uint32(0); k < opKeys; k++ {
			s, h := c.shardFor(k)
			if got, want := s.freq.estimate(h), int(m.shard(k).estimate(k)); got != want || got > sketchMax {
				t.Fatalf("%s: key %d estimated at %d; model %d", at, k, got, want)
			}
		}
	}
}

// opStream draws a random op stream for the given geometry.
func opStream(rng *rand.Rand, shardExp, capacity, ops int) []byte {
	data := make([]byte, opHeader+2*ops)
	rng.Read(data)
	data[0], data[1] = byte(shardExp), byte(capacity)
	return data
}

// TestCacheDifferential is the proof that the slab cache over a packed
// sketch makes the same decisions as lists, maps and one byte per counter:
// random Get/GetAppend/PeekAppend/Touch/Put/PutIfRoom/PutIfHotter/Contains/Pin
// streams, over shard counts from one to more than the capacity and
// capacities from zero up — long enough for the smaller sketches to halve
// many times — must match the reference model op for op.
func TestCacheDifferential(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	for shardExp := 0; shardExp < 4; shardExp++ {
		for _, capacity := range []int{0, 1, 2, 3, 5, 8, 13, 23} {
			checkOps(t, opStream(rng, shardExp, capacity, 3000))
		}
	}
}

// FuzzCacheOps feeds checkOps arbitrary geometries and op streams, seeded
// with streams of the kind TestCacheDifferential draws.
func FuzzCacheOps(f *testing.F) {
	rng := rand.New(rand.NewSource(14))
	for _, shardExp := range []int{0, 2} {
		for _, capacity := range []int{0, 1, 4, 17} {
			f.Add(opStream(rng, shardExp, capacity, 64))
		}
	}
	f.Fuzz(func(t *testing.T, data []byte) { checkOps(t, data) })
}
