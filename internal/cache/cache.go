// Package cache implements a sharded, concurrent LRU cache.
//
// The paper fronts the SSD with Meta's CacheLib configured as an LRU cache
// with update-on-read (but not update-on-write) — a read-intensive
// configuration (§8.1). CacheLib is a C++ library and is not available
// here, so this package provides an LRU with the same externally
// observable semantics: bounded entry count, recency updated on Get,
// insertion at the head on Put, eviction from the tail. Two more inserts
// serve callers that admit selectively: PutIfRoom never evicts, and
// PutIfHotter evicts only for a key the shard's frequency sketch (sketch.go)
// has counted more often than the victim. Sharding keeps contention low for
// the multi-worker serving engine.
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

// Stats aggregates cache activity. Pinned* cover the immutable pin-set
// installed with Pin, which lives outside the LRU.
type Stats struct {
	Hits      int64 `json:"hits" prom:"hits_total,counter"`
	Misses    int64 `json:"misses" prom:"misses_total,counter"`
	Evictions int64 `json:"evictions" prom:"evictions_total,counter"`
	// Bypassed counts PutIfRoom calls that found no free slot and cached
	// nothing.
	Bypassed int64 `json:"bypassed" prom:"bypassed_total,counter"`
	// Rejected counts PutIfHotter calls that found no free slot and a
	// victim counted at least as often as their key, and cached nothing.
	Rejected int64 `json:"rejected" prom:"rejected_total,counter"`
	// SketchResets counts the halvings of a shard's frequency sketch.
	SketchResets int64 `json:"sketch_resets" prom:"sketch_resets_total,counter"`

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
	rejected   atomic.Int64
	pinnedHits atomic.Int64
}

// sentinel is the slab index of the recency list's sentinel, so entry nodes
// start at firstEntry.
const (
	sentinel   = 0
	firstEntry = 1
)

// node is one slab slot: an entry linked into the recency list, or a free
// slot chained through next.
type node[K comparable, V any] struct {
	key        K
	val        V
	prev, next uint32
}

// shard is one lock domain: a key index over a slab of nodes and a frequency
// sketch, all sized for capacity when the shard is built, so a filling cache
// allocates no more than a full one. nodes[sentinel] closes the circular
// recency list (its next is the most recent entry, its prev the eviction
// victim). Links are uint32 slab indexes, so a shard holds at most 2^32-2
// entries.
type shard[K comparable, V any] struct {
	mu       sync.Mutex
	capacity int
	index    map[K]uint32
	nodes    []node[K, V]
	free     uint32 // head of the free chain; 0 (the sentinel) means empty
	len      int
	freq     sketch
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
		s.freq = newSketch(s.capacity)
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

// shardFor returns k's shard and k's hash, which the shard's sketch files
// k under.
func (c *Cache[K, V]) shardFor(k K) (*shard[K, V], uint64) {
	h := c.hash(k)
	return &c.shards[h&c.mask], h
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
// (update-on-read) and counting the hit in the shard's sketch. The second
// result reports whether k was present.
func (c *Cache[K, V]) Get(k K) (V, bool) {
	if v, ok := c.pinned[k]; ok {
		c.pinnedHits.Add(1)
		c.hits.Add(1)
		return v, true
	}
	var v V
	s, h := c.shardFor(k)
	s.mu.Lock()
	n, ok := s.index[k]
	if ok {
		v = s.nodes[n].val
		s.touch(n, h)
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
	return getAppend(c, k, dst, true)
}

// PeekAppend is GetAppend that leaves k where it is: the hit counts in
// Stats, but k is neither promoted nor counted in the sketch. It is for
// callers that learn only after the read what the hit was worth, and follow
// up with Touch.
func PeekAppend[K comparable, E any](c *Cache[K, []E], k K, dst []E) ([]E, bool) {
	return getAppend(c, k, dst, false)
}

func getAppend[K comparable, E any](c *Cache[K, []E], k K, dst []E, touch bool) ([]E, bool) {
	if v, ok := c.pinned[k]; ok {
		c.pinnedHits.Add(1)
		c.hits.Add(1)
		return append(dst, v...), true
	}
	s, h := c.shardFor(k)
	s.mu.Lock()
	n, ok := s.index[k]
	if ok {
		dst = append(dst, s.nodes[n].val...)
		if touch {
			s.touch(n, h)
		}
	}
	s.mu.Unlock()
	c.count(ok)
	return dst, ok
}

// Touch gives k, if it is cached, what a Get hit gives it — promotion to
// most-recently-used and one count in the sketch — without reading it or
// counting in Stats.
func (c *Cache[K, V]) Touch(k K) {
	s, h := c.shardFor(k)
	s.mu.Lock()
	if n, ok := s.index[k]; ok {
		s.touch(n, h)
	}
	s.mu.Unlock()
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
	s, _ := c.shardFor(k)
	s.mu.Lock()
	_, ok := s.index[k]
	s.mu.Unlock()
	return ok
}

// eviction is what an insert may do to a full shard.
type eviction uint8

const (
	evictAlways   eviction = iota // Put
	evictIfHotter                 // PutIfHotter
	evictNever                    // PutIfRoom
)

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
	return c.put(k, v, evictAlways)
}

// PutIfRoom is Put that never evicts: a key that is new to a full shard is
// not cached, and v itself comes back as displaced, exactly as from a shard
// without capacity. Replacing a present key and filling a free slot behave
// as in Put.
func (c *Cache[K, V]) PutIfRoom(k K, v V) (old V, displaced bool) {
	return c.put(k, v, evictNever)
}

// PutIfHotter is Put that evicts only for a hotter key. The call itself is
// counted in the shard's sketch; then a key that is new to a full shard
// takes the least-recently-used entry's place only if the sketch estimates
// it strictly higher than that entry. Otherwise it is not cached, v coming
// back as from PutIfRoom, and the entry that held its place is moved to the
// most-recently-used position, so that the shard's next offer is weighed
// against a different one. A key seen once therefore never evicts an entry
// that was read, and an entry that stops being read loses its place once the
// sketch's halving has aged its count below a newcomer's.
func (c *Cache[K, V]) PutIfHotter(k K, v V) (old V, displaced bool) {
	return c.put(k, v, evictIfHotter)
}

func (c *Cache[K, V]) put(k K, v V, may eviction) (old V, displaced bool) {
	var outcome *atomic.Int64 // what a full shard did with the offer, counted once unlocked
	s, h := c.shardFor(k)
	s.mu.Lock()
	if may == evictIfHotter {
		s.freq.add(h)
	}
	n, present := s.index[k]
	full := s.len >= s.capacity
	switch {
	case present:
		old, displaced = s.nodes[n].val, true
		s.nodes[n].val = v
		s.moveToFront(n)
	case full && s.capacity <= 0:
		old, displaced = v, true
	case full && may == evictNever:
		old, displaced, outcome = v, true, &c.bypassed
	case full && may == evictIfHotter && !c.hotterThanVictim(s, h):
		// The victim outlasts the offer and moves to the front: the next
		// offer meets the next entry in line, not one counted entry
		// holding the tail against all comers.
		old, displaced, outcome = v, true, &c.rejected
		s.moveToFront(s.nodes[sentinel].prev)
	default:
		if full {
			old, displaced, outcome = s.evict(), true, &c.evictions
		}
		n = s.alloc()
		s.nodes[n].key, s.nodes[n].val = k, v
		s.index[k] = n
		s.pushFront(n)
	}
	s.mu.Unlock()
	if outcome != nil {
		outcome.Add(1)
	}
	return old, displaced
}

// The methods below require the shard lock.

// hotterThanVictim reports whether the sketch of s, a shard holding at least
// one entry, estimates hash h strictly above its least-recently-used entry.
func (c *Cache[K, V]) hotterThanVictim(s *shard[K, V], h uint64) bool {
	victim := s.nodes[s.nodes[sentinel].prev].key
	return s.freq.estimate(h) > s.freq.estimate(c.hash(victim))
}

func (s *shard[K, V]) unlink(n uint32) {
	e := &s.nodes[n]
	s.nodes[e.prev].next = e.next
	s.nodes[e.next].prev = e.prev
	s.len--
}

func (s *shard[K, V]) pushFront(n uint32) {
	e := &s.nodes[n]
	e.prev, e.next = sentinel, s.nodes[sentinel].next
	s.nodes[e.next].prev = n
	s.nodes[sentinel].next = n
	s.len++
}

func (s *shard[K, V]) moveToFront(n uint32) {
	s.unlink(n)
	s.pushFront(n)
}

// touch applies a read's recency update to entry n and counts the read in
// the sketch under the entry's hash h.
func (s *shard[K, V]) touch(n uint32, h uint64) {
	s.moveToFront(n)
	s.freq.add(h)
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

// evict removes the least-recently-used entry of a shard that holds at
// least one and returns its value.
func (s *shard[K, V]) evict() V {
	n := s.nodes[sentinel].prev
	e := &s.nodes[n]
	v := e.val
	s.unlink(n)
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
		n += s.len
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

// Stats returns a snapshot of the activity counters and pin-set accounting.
func (c *Cache[K, V]) Stats() Stats {
	st := Stats{
		Hits:          c.hits.Load(),
		Misses:        c.misses.Load(),
		Evictions:     c.evictions.Load(),
		Bypassed:      c.bypassed.Load(),
		Rejected:      c.rejected.Load(),
		PinnedEntries: len(c.pinned),
		PinnedHits:    c.pinnedHits.Load(),
	}
	for i := range c.shards {
		s := &c.shards[i]
		s.mu.Lock()
		st.SketchResets += s.freq.resets
		s.mu.Unlock()
	}
	return st
}

// ResetStats zeroes the statistics counters without touching contents or
// the sketches' counts.
func (c *Cache[K, V]) ResetStats() {
	c.hits.Store(0)
	c.misses.Store(0)
	c.evictions.Store(0)
	c.bypassed.Store(0)
	c.rejected.Store(0)
	c.pinnedHits.Store(0)
	for i := range c.shards {
		s := &c.shards[i]
		s.mu.Lock()
		s.freq.resets = 0
		s.mu.Unlock()
	}
}
