// Package cache implements a sharded, concurrent LRU cache.
//
// The paper fronts the SSD with Meta's CacheLib configured as an LRU cache
// with update-on-read (but not update-on-write) — a read-intensive
// configuration (§8.1). CacheLib is a C++ library and is not available
// here, so this package provides an LRU with the same externally
// observable semantics: bounded entry count, recency updated on Get,
// insertion at the head on Put, eviction from the tail. PutIfRoom is the
// one addition: an insert that never evicts, for callers that admit
// selectively. Sharding keeps contention low for the multi-worker serving
// engine.
//
// Like CacheLib, the cache takes its memory when it is built and serving
// never touches the heap: each shard keeps its entries in a slab of
// index-linked nodes with a free list, sized with its key index for the
// shard's capacity, Put hands the displaced value back to the caller for
// reuse, and Slab holds fixed-width value storage for a full cache.
package cache

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// Hasher maps a key to a shard-selection hash. It must be deterministic.
type Hasher[K comparable] func(K) uint64

// Stats aggregates cache activity. The per-segment fields are only
// meaningful under the segmented policy (probation/protected); a plain LRU
// reports its whole population as probation. Pinned* cover the immutable
// pin-set installed with Pin, which lives outside the LRU segments.
type Stats struct {
	Hits      int64 `json:"hits" prom:"hits_total,counter"`
	Misses    int64 `json:"misses" prom:"misses_total,counter"`
	Evictions int64 `json:"evictions" prom:"evictions_total,counter"`
	// Bypassed counts PutIfRoom calls that found no free slot and cached
	// nothing.
	Bypassed int64 `json:"bypassed" prom:"bypassed_total,counter"`

	// Segment occupancy at snapshot time.
	ProbationLen int `json:"probation_entries" prom:"probation_entries,gauge"`
	ProtectedLen int `json:"protected_entries" prom:"protected_entries,gauge"`
	// Per-segment eviction counters (ProbationEvictions + the plain-LRU
	// evictions sum to Evictions together with ProtectedEvictions).
	ProbationEvictions int64 `json:"probation_evictions" prom:"probation_evictions_total,counter"`
	ProtectedEvictions int64 `json:"protected_evictions" prom:"protected_evictions_total,counter"`
	// Promotions counts probation → protected moves (first hit);
	// Demotions counts protected → probation displacements.
	Promotions int64 `json:"promotions" prom:"promotions_total,counter"`
	Demotions  int64 `json:"demotions" prom:"demotions_total,counter"`

	// PinnedEntries is the pin-set size; PinnedHits counts Gets served
	// from it (also included in Hits).
	PinnedEntries int   `json:"pinned_entries" prom:"pinned_entries,gauge"`
	PinnedHits    int64 `json:"pinned_hits" prom:"pinned_hits_total,counter"`
}

// HitRate returns Hits / (Hits+Misses), or 0 with no lookups.
func (s Stats) HitRate() float64 {
	total := s.Hits + s.Misses
	if total == 0 {
		return 0
	}
	return float64(s.Hits) / float64(total)
}

// Cache is a sharded LRU cache from K to V. The zero value is not usable;
// construct with New. All methods are safe for concurrent use.
//
// The cache stores values as given and never copies or allocates them:
// whoever calls Put owns the value's storage until the call, the cache owns
// it while the entry lives, and Put returns the value it displaced so the
// caller can refill and reuse it. A value obtained from Get therefore
// stays intact only until some Put displaces it; callers that recycle
// displaced storage read hits with GetAppend, which copies under the shard
// lock.
type Cache[K comparable, V any] struct {
	shards []shard[K, V]
	mask   uint64
	hash   Hasher[K]

	// pinned is the immutable DRAM pin-set: entries that always hit and
	// are never evicted. It is written only by Pin, which must complete
	// before the cache is shared between goroutines; afterwards the map
	// is read-only, so Get can probe it without a lock.
	pinned map[K]V

	hits       atomic.Int64
	misses     atomic.Int64
	evictions  atomic.Int64
	bypassed   atomic.Int64
	pinnedHits atomic.Int64
}

// Segment ids. Each doubles as the slab index of its segment's list
// sentinel, so entry nodes start at firstEntry.
const (
	probation  = 0
	protected  = 1
	firstEntry = 2
)

// node is one slab slot: an entry linked into its segment's recency list,
// or a free slot chained through next.
type node[K comparable, V any] struct {
	key        K
	val        V
	prev, next uint32
	seg        uint8
}

// shard is one lock domain: a key index over a slab of nodes, both sized for
// capacity when the shard is built, so a filling cache allocates no more
// than a full one. nodes[probation] and nodes[protected] are the
// sentinels of two circular recency lists (sentinel.next is the most
// recent entry, sentinel.prev the eviction victim); a plain LRU keeps
// everything on the probation list. Links are uint32 slab indexes, so a
// shard holds at most 2^32-3 entries.
type shard[K comparable, V any] struct {
	mu       sync.Mutex
	capacity int
	index    map[K]uint32
	nodes    []node[K, V]
	free     uint32 // head of the free chain; 0 (a sentinel) means empty
	segLen   [2]int

	// Segmented (2Q-style) policy state; see segmented.go.
	segmented    bool
	protectedCap int

	// Per-segment activity, guarded by mu (summed into Stats on demand;
	// plain ints keep the hot path free of extra atomic traffic).
	evicted    [2]int64
	promotions int64
	demotions  int64
}

// New returns a cache holding at most capacity entries, split over a
// power-of-two shard count derived from GOMAXPROCS. A capacity of zero or
// below yields a cache that stores nothing (every Get misses), matching a
// "no DRAM cache" configuration (§8.3 / Fig 13).
func New[K comparable, V any](capacity int, hash Hasher[K]) *Cache[K, V] {
	nShards := 1
	for nShards < runtime.GOMAXPROCS(0)*2 {
		nShards *= 2
	}
	return NewSharded[K, V](capacity, nShards, hash)
}

// NewSharded is New with an explicit shard count, which must be a power of
// two; other values are rounded up. Capacity is divided evenly among
// shards (each shard gets at least one slot if capacity > 0), and each
// shard's index and node slab are made for its share here: memory is
// proportional to capacity from the start, not to what is cached.
func NewSharded[K comparable, V any](capacity, nShards int, hash Hasher[K]) *Cache[K, V] {
	capacity = max(capacity, 0)
	if nShards < 1 {
		nShards = 1
	}
	p := 1
	for p < nShards {
		p *= 2
	}
	nShards = p
	if capacity > 0 && nShards > capacity {
		// More shards than slots would strand capacity; shrink.
		nShards = 1
		for nShards*2 <= capacity {
			nShards *= 2
		}
	}
	c := &Cache[K, V]{
		shards: make([]shard[K, V], nShards),
		mask:   uint64(nShards - 1),
		hash:   hash,
	}
	per := capacity / nShards
	extra := capacity % nShards
	for i := range c.shards {
		s := &c.shards[i]
		s.capacity = per
		if i < extra {
			s.capacity++
		}
		s.index = make(map[K]uint32, s.capacity)
		s.nodes = make([]node[K, V], firstEntry, firstEntry+s.capacity)
		s.nodes[protected].prev, s.nodes[protected].next = protected, protected
	}
	return c
}

// Uint32Hasher is a Hasher for uint32 keys (splitmix-style finalizer).
func Uint32Hasher(k uint32) uint64 {
	x := uint64(k) + 0x9e3779b97f4a7c15
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

func (c *Cache[K, V]) shardFor(k K) *shard[K, V] {
	return &c.shards[c.hash(k)&c.mask]
}

// Pin installs k as a permanent DRAM-resident entry: it always hits and
// is never evicted, and does not consume LRU capacity. Pin must not be
// called concurrently with any other method — install the pin-set before
// the cache is shared (the serving engine pins at construction).
func (c *Cache[K, V]) Pin(k K, v V) {
	if c.pinned == nil {
		c.pinned = make(map[K]V)
	}
	c.pinned[k] = v
}

// PinnedLen returns the number of pinned entries.
func (c *Cache[K, V]) PinnedLen() int { return len(c.pinned) }

// Get returns the cached value for k, promoting it to most-recently-used
// (update-on-read). The second result reports whether k was present.
func (c *Cache[K, V]) Get(k K) (V, bool) {
	if v, ok := c.pinned[k]; ok {
		c.pinnedHits.Add(1)
		c.hits.Add(1)
		return v, true
	}
	var v V
	s := c.shardFor(k)
	s.mu.Lock()
	n, ok := s.touch(k)
	if ok {
		v = s.nodes[n].val
	}
	s.mu.Unlock()
	c.count(ok)
	return v, ok
}

// GetAppend is Get for slice values whose storage the caller recycles
// through Put: a hit's elements are appended to dst while the shard lock is
// still held, so the copy cannot observe a concurrent Put's displaced
// value being refilled.
func GetAppend[K comparable, E any](c *Cache[K, []E], k K, dst []E) ([]E, bool) {
	if v, ok := c.pinned[k]; ok {
		c.pinnedHits.Add(1)
		c.hits.Add(1)
		return append(dst, v...), true
	}
	s := c.shardFor(k)
	s.mu.Lock()
	n, ok := s.touch(k)
	if ok {
		dst = append(dst, s.nodes[n].val...)
	}
	s.mu.Unlock()
	c.count(ok)
	return dst, ok
}

func (c *Cache[K, V]) count(hit bool) {
	if hit {
		c.hits.Add(1)
	} else {
		c.misses.Add(1)
	}
}

// Contains reports whether k is cached without promoting it and without
// touching hit/miss statistics.
func (c *Cache[K, V]) Contains(k K) bool {
	if _, ok := c.pinned[k]; ok {
		return true
	}
	s := c.shardFor(k)
	s.mu.Lock()
	_, ok := s.index[k]
	s.mu.Unlock()
	return ok
}

// Put inserts or replaces the value for k at the most-recently-used
// position, evicting the least-recently-used entry of k's shard if the
// shard is at capacity. Following the paper's CacheLib configuration,
// writes do not refresh recency of other entries (updateOnWrite is off);
// the inserted entry itself naturally starts most-recent.
//
// Whenever the cache did not grow, the value that lost its place comes
// back with displaced set: the evicted entry's, the replaced one's, or v
// itself when k's shard has no capacity. The caller owns it again.
func (c *Cache[K, V]) Put(k K, v V) (old V, displaced bool) {
	return c.put(k, v, true)
}

// PutIfRoom is Put that never evicts: a key that is new to a full shard is
// not cached, and v itself comes back as displaced, exactly as from a shard
// without capacity. Replacing a present key and filling a free slot behave
// as in Put.
func (c *Cache[K, V]) PutIfRoom(k K, v V) (old V, displaced bool) {
	return c.put(k, v, false)
}

func (c *Cache[K, V]) put(k K, v V, mayEvict bool) (old V, displaced bool) {
	evicted, bypassed := false, false
	s := c.shardFor(k)
	s.mu.Lock()
	n, present := s.index[k]
	full := s.len() >= s.capacity
	switch {
	case present:
		old, displaced = s.nodes[n].val, true
		s.nodes[n].val = v
		s.moveToFront(n, s.nodes[n].seg)
	case full && (!mayEvict || s.capacity <= 0):
		old, displaced, bypassed = v, true, !mayEvict
	default:
		if full {
			old, displaced, evicted = s.evict(), true, true
		}
		// New entries start in the probation segment (plain LRU has only
		// that segment).
		n = s.alloc()
		s.nodes[n].key, s.nodes[n].val = k, v
		s.index[k] = n
		s.pushFront(n, probation)
	}
	s.mu.Unlock()
	if evicted {
		c.evictions.Add(1)
	} else if bypassed {
		c.bypassed.Add(1)
	}
	return old, displaced
}

// The methods below require the shard lock.

func (s *shard[K, V]) len() int { return s.segLen[probation] + s.segLen[protected] }

func (s *shard[K, V]) unlink(n uint32) {
	e := &s.nodes[n]
	s.nodes[e.prev].next = e.next
	s.nodes[e.next].prev = e.prev
	s.segLen[e.seg]--
}

func (s *shard[K, V]) pushFront(n uint32, seg uint8) {
	head := uint32(seg)
	e := &s.nodes[n]
	e.seg, e.prev, e.next = seg, head, s.nodes[head].next
	s.nodes[e.next].prev = n
	s.nodes[head].next = n
	s.segLen[seg]++
}

func (s *shard[K, V]) moveToFront(n uint32, seg uint8) {
	s.unlink(n)
	s.pushFront(n, seg)
}

// touch looks k up and, on a hit, applies the read's recency update.
func (s *shard[K, V]) touch(k K) (uint32, bool) {
	n, ok := s.index[k]
	if !ok {
		return 0, false
	}
	if s.segmented && s.nodes[n].seg == probation {
		s.promote(n)
	} else {
		s.moveToFront(n, s.nodes[n].seg)
	}
	return n, true
}

// alloc returns an unlinked slot of a shard that is below capacity: a freed
// one, or the next of the slab, which was made with room for them all.
func (s *shard[K, V]) alloc() uint32 {
	if n := s.free; n != 0 {
		s.free = s.nodes[n].next
		return n
	}
	s.nodes = append(s.nodes, node[K, V]{})
	return uint32(len(s.nodes) - 1)
}

// evict removes the eviction victim of a shard that holds at least one
// entry — the probation LRU, or the protected LRU when probation is empty
// — charges the victim's segment counter, and returns its value.
func (s *shard[K, V]) evict() V {
	n := s.nodes[probation].prev
	if n == probation {
		n = s.nodes[protected].prev
	}
	e := &s.nodes[n]
	v := e.val
	s.unlink(n)
	s.evicted[e.seg]++
	delete(s.index, e.key)
	*e = node[K, V]{next: s.free}
	s.free = n
	return v
}

// Len returns the current number of cached entries.
func (c *Cache[K, V]) Len() int {
	n := 0
	for i := range c.shards {
		s := &c.shards[i]
		s.mu.Lock()
		n += s.len()
		s.mu.Unlock()
	}
	return n
}

// Capacity returns the total entry capacity.
func (c *Cache[K, V]) Capacity() int {
	n := 0
	for i := range c.shards {
		n += c.shards[i].capacity
	}
	return n
}

// Stats returns a snapshot of hit/miss/eviction counters, per-segment
// occupancy and activity, and pin-set accounting.
func (c *Cache[K, V]) Stats() Stats {
	st := Stats{
		Hits:          c.hits.Load(),
		Misses:        c.misses.Load(),
		Evictions:     c.evictions.Load(),
		Bypassed:      c.bypassed.Load(),
		PinnedEntries: len(c.pinned),
		PinnedHits:    c.pinnedHits.Load(),
	}
	for i := range c.shards {
		s := &c.shards[i]
		s.mu.Lock()
		st.ProbationLen += s.segLen[probation]
		st.ProtectedLen += s.segLen[protected]
		st.ProbationEvictions += s.evicted[probation]
		st.ProtectedEvictions += s.evicted[protected]
		st.Promotions += s.promotions
		st.Demotions += s.demotions
		s.mu.Unlock()
	}
	return st
}

// ResetStats zeroes the statistics counters without touching contents.
func (c *Cache[K, V]) ResetStats() {
	c.hits.Store(0)
	c.misses.Store(0)
	c.evictions.Store(0)
	c.bypassed.Store(0)
	c.pinnedHits.Store(0)
	for i := range c.shards {
		s := &c.shards[i]
		s.mu.Lock()
		s.evicted = [2]int64{}
		s.promotions = 0
		s.demotions = 0
		s.mu.Unlock()
	}
}
