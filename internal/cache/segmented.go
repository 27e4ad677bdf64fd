package cache

// The per-shard eviction discipline is one of two policies over the same
// node links. Plain LRU with update-on-read is the paper's CacheLib
// configuration (§8.1). The segmented policy is a 2Q-style segmented LRU:
// new entries enter a probation segment and are promoted to a protected
// segment on their first hit, so one-shot scans cannot evict the
// established working set. CacheLib ships this as its scan-resistant
// configuration.

// protectedFraction is the protected segment's share of shard capacity
// under the segmented policy.
const protectedFraction = 0.75

// NewSegmentedLRU returns a cache using the segmented policy with a
// GOMAXPROCS-derived shard count.
func NewSegmentedLRU[K comparable, V any](capacity int, hash Hasher[K]) *Cache[K, V] {
	c := New[K, V](capacity, hash)
	c.enableSegmented()
	return c
}

// enableSegmented switches every shard to the segmented policy. Must be
// called before any entries are inserted.
func (c *Cache[K, V]) enableSegmented() {
	for i := range c.shards {
		s := &c.shards[i]
		s.segmented = true
		s.protectedCap = int(protectedFraction * float64(s.capacity))
		if s.protectedCap >= s.capacity && s.capacity > 0 {
			s.protectedCap = s.capacity - 1
		}
	}
}

// promote moves a probation entry that was just hit to the protected
// segment, demoting the protected LRU back to probation while the segment
// is over budget (caller holds the lock).
func (s *shard[K, V]) promote(n uint32) {
	s.moveToFront(n, protected)
	s.promotions++
	for s.segLen[protected] > s.protectedCap {
		s.moveToFront(s.nodes[protected].prev, probation)
		s.demotions++
	}
}
