package cache

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"
)

// model is the trivially correct reference the cache is checked against:
// per shard, two key slices in recency order (most recent first) and a map
// of values, every operation a linear scan. It takes its geometry (shard
// count, per-shard capacity, protected budget) from the cache under test;
// TestShardedCapacity pins that geometry separately.
type model struct {
	mask   uint64
	shards []modelShard
	pinned map[uint32][]uint64
	stats  Stats
}

type modelShard struct {
	capacity, protectedCap int
	segmented              bool
	seg                    [2][]uint32
	vals                   map[uint32][]uint64
}

func newModel(c *Cache[uint32, []uint64]) *model {
	m := &model{mask: c.mask, shards: make([]modelShard, len(c.shards)), pinned: map[uint32][]uint64{}}
	for i := range c.shards {
		s := &c.shards[i]
		m.shards[i] = modelShard{
			capacity: s.capacity, protectedCap: s.protectedCap, segmented: s.segmented,
			vals: map[uint32][]uint64{},
		}
	}
	return m
}

func (m *model) shard(k uint32) *modelShard { return &m.shards[Uint32Hasher(k)&m.mask] }

func (s *modelShard) segOf(k uint32) int {
	if slices.Contains(s.seg[protected], k) {
		return protected
	}
	return probation
}

func (s *modelShard) remove(k uint32) {
	seg := s.segOf(k)
	s.seg[seg] = slices.DeleteFunc(s.seg[seg], func(x uint32) bool { return x == k })
}

func (s *modelShard) pushFront(seg int, k uint32) { s.seg[seg] = slices.Insert(s.seg[seg], 0, k) }

func (m *model) get(k uint32) ([]uint64, bool) {
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
	seg := s.segOf(k)
	s.remove(k)
	if !s.segmented || seg == protected {
		s.pushFront(seg, k)
		return v, true
	}
	s.pushFront(protected, k)
	m.stats.Promotions++
	for len(s.seg[protected]) > s.protectedCap {
		last := len(s.seg[protected]) - 1
		d := s.seg[protected][last]
		s.seg[protected] = s.seg[protected][:last]
		s.pushFront(probation, d)
		m.stats.Demotions++
	}
	return v, true
}

func (m *model) contains(k uint32) bool {
	if _, ok := m.pinned[k]; ok {
		return true
	}
	_, ok := m.shard(k).vals[k]
	return ok
}

// put is Put with mayEvict set and PutIfRoom without.
func (m *model) put(k uint32, v []uint64, mayEvict bool) (old []uint64, displaced bool) {
	s := m.shard(k)
	if prev, ok := s.vals[k]; ok {
		seg := s.segOf(k)
		s.remove(k)
		s.pushFront(seg, k)
		s.vals[k] = v
		return prev, true
	}
	if len(s.vals) >= s.capacity && !mayEvict {
		m.stats.Bypassed++
		return v, true
	}
	if s.capacity <= 0 {
		return v, true
	}
	if len(s.vals) >= s.capacity {
		seg := probation
		if len(s.seg[probation]) == 0 {
			seg = protected
		}
		last := len(s.seg[seg]) - 1
		victim := s.seg[seg][last]
		s.seg[seg] = s.seg[seg][:last]
		old, displaced = s.vals[victim], true
		delete(s.vals, victim)
		m.stats.Evictions++
		if seg == probation {
			m.stats.ProbationEvictions++
		} else {
			m.stats.ProtectedEvictions++
		}
	}
	s.pushFront(probation, k)
	s.vals[k] = v
	return old, displaced
}

func (m *model) snapshot() Stats {
	st := m.stats
	st.PinnedEntries = len(m.pinned)
	for i := range m.shards {
		st.ProbationLen += len(m.shards[i].seg[probation])
		st.ProtectedLen += len(m.shards[i].seg[protected])
	}
	return st
}

// order walks one of a shard's recency lists front to back and checks the
// back links and the length on the way.
func (s *shard[K, V]) order(seg uint8) ([]K, error) {
	var keys []K
	prev := uint32(seg)
	for n := s.nodes[seg].next; n != uint32(seg); prev, n = n, s.nodes[n].next {
		e := &s.nodes[n]
		if e.prev != prev || e.seg != seg || s.index[e.key] != n {
			return nil, fmt.Errorf("segment %d node %d: prev %d (want %d), seg %d, index %d",
				seg, n, e.prev, prev, e.seg, s.index[e.key])
		}
		keys = append(keys, e.key)
	}
	if s.nodes[seg].prev != prev || len(keys) != s.segLen[seg] {
		return nil, fmt.Errorf("segment %d: tail %d (want %d), %d linked, segLen %d",
			seg, s.nodes[seg].prev, prev, len(keys), s.segLen[seg])
	}
	return keys, nil
}

const (
	opKeys   = 40 // key universe of an op stream
	opHeader = 3  // policy, shard count, capacity
)

// checkOps decodes data as a cache geometry followed by (op, key) byte
// pairs, applies the stream to a cache and to the model, and compares every
// return value — a Put's displaced value names the eviction victim, a
// PutIfRoom's own value coming back says nothing was cached — and, after
// every op, contents, recency order, Len and Stats.
func checkOps(t testing.TB, data []byte) {
	if len(data) < opHeader {
		return
	}
	capacity := int(data[2] % 24)
	c := NewSharded[uint32, []uint64](capacity, 1<<(data[1]%4), Uint32Hasher)
	if data[0]&1 == 1 {
		c.enableSegmented()
	}
	m := newModel(c)
	var version uint64
	for i := opHeader; i+1 < len(data); i += 2 {
		op, k := data[i]%16, uint32(data[i+1]%opKeys)
		at := fmt.Sprintf("op %d (%d on key %d)", (i-opHeader)/2, op, k)
		switch {
		case op < 4:
			got, ok := c.Get(k)
			want, wok := m.get(k)
			if ok != wok || !slices.Equal(got, want) {
				t.Fatalf("%s: Get = %v, %v; model %v, %v", at, got, ok, want, wok)
			}
		case op < 7:
			got, ok := GetAppend(c, k, []uint64{7})
			want, wok := m.get(k)
			if ok != wok || !slices.Equal(got, append([]uint64{7}, want...)) {
				t.Fatalf("%s: GetAppend = %v, %v; model %v, %v", at, got, ok, want, wok)
			}
		case op < 13:
			version++
			v := []uint64{uint64(k), version}
			put, mayEvict := c.Put, op < 10
			if !mayEvict {
				put = c.PutIfRoom
			}
			got, ok := put(k, v)
			want, wok := m.put(k, v, mayEvict)
			if ok != wok || !slices.Equal(got, want) {
				t.Fatalf("%s: put (may evict: %v) displaced %v, %v; model %v, %v", at, mayEvict, got, ok, want, wok)
			}
		case op < 15:
			if got, want := c.Contains(k), m.contains(k); got != want {
				t.Fatalf("%s: Contains = %v; model %v", at, got, want)
			}
		default:
			version++
			v := []uint64{uint64(k), version}
			c.Pin(k, v)
			m.pinned[k] = v
		}
		want := m.snapshot()
		if got := c.Stats(); got != want {
			t.Fatalf("%s: Stats = %+v; model %+v", at, got, want)
		}
		if held := want.ProbationLen + want.ProtectedLen; c.Len() > c.Capacity() || c.Len() != held {
			t.Fatalf("%s: Len = %d, capacity %d, model holds %d", at, c.Len(), c.Capacity(), held)
		}
		for si := range c.shards {
			s, ms := &c.shards[si], &m.shards[si]
			if len(s.nodes) > firstEntry+s.capacity {
				t.Fatalf("%s: shard %d slab has %d nodes for capacity %d", at, si, len(s.nodes), s.capacity)
			}
			for seg := uint8(0); seg < 2; seg++ {
				keys, err := s.order(seg)
				if err != nil {
					t.Fatalf("%s: shard %d: %v", at, si, err)
				}
				if !slices.Equal(keys, ms.seg[seg]) {
					t.Fatalf("%s: shard %d segment %d holds %v; model %v", at, si, seg, keys, ms.seg[seg])
				}
				for _, k := range keys {
					if !slices.Equal(s.nodes[s.index[k]].val, ms.vals[k]) {
						t.Fatalf("%s: key %d holds %v; model %v", at, k, s.nodes[s.index[k]].val, ms.vals[k])
					}
				}
			}
		}
	}
}

// opStream draws a random op stream for the given geometry.
func opStream(rng *rand.Rand, segmented bool, shardExp, capacity, ops int) []byte {
	data := make([]byte, opHeader+2*ops)
	rng.Read(data)
	data[0], data[1], data[2] = 0, byte(shardExp), byte(capacity)
	if segmented {
		data[0] = 1
	}
	return data
}

// TestCacheDifferential is the proof that the slab cache makes the same
// decisions as the list-based one it replaced: random
// Get/Put/PutIfRoom/Contains/Pin streams under both policies, over shard counts from one to more than the
// capacity, and capacities from zero up, must match the reference model op
// for op.
func TestCacheDifferential(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	for _, segmented := range []bool{false, true} {
		for shardExp := 0; shardExp < 4; shardExp++ {
			for _, capacity := range []int{0, 1, 2, 3, 5, 8, 13, 23} {
				checkOps(t, opStream(rng, segmented, shardExp, capacity, 1500))
			}
		}
	}
}

// FuzzCacheOps feeds checkOps arbitrary geometries and op streams, seeded
// with streams of the kind TestCacheDifferential draws.
func FuzzCacheOps(f *testing.F) {
	rng := rand.New(rand.NewSource(14))
	for _, segmented := range []bool{false, true} {
		for _, capacity := range []int{0, 1, 4, 17} {
			f.Add(opStream(rng, segmented, capacity%4, capacity, 64))
		}
	}
	f.Fuzz(func(t *testing.T, data []byte) { checkOps(t, data) })
}
