package cache

import (
	"math/rand"
	"testing"
)

func newSegTest(capacity int) *Cache[uint32, int] {
	c := NewSharded[uint32, int](capacity, 1, Uint32Hasher)
	c.enableSegmented()
	return c
}

func TestSegmentedBasics(t *testing.T) {
	c := newSegTest(8)
	for k := uint32(0); k < 8; k++ {
		c.Put(k, int(k))
	}
	if c.Len() != 8 {
		t.Fatalf("Len = %d", c.Len())
	}
	for k := uint32(0); k < 8; k++ {
		if v, ok := c.Get(k); !ok || v != int(k) {
			t.Fatalf("Get(%d) = %d,%v", k, v, ok)
		}
	}
	// Replacement preserves presence and value.
	c.Put(3, 300)
	if v, _ := c.Get(3); v != 300 {
		t.Errorf("replaced value = %d", v)
	}
}

func TestSegmentedScanResistance(t *testing.T) {
	// Working set of 6 keys, all hit once (promoted to protected). A scan
	// of 100 one-shot keys must not evict them — unlike plain LRU.
	const capacity = 8
	working := []uint32{0, 1, 2, 3, 4, 5}

	seg := newSegTest(capacity)
	lru := NewSharded[uint32, int](capacity, 1, Uint32Hasher)
	for _, c := range []*Cache[uint32, int]{seg, lru} {
		for _, k := range working {
			c.Put(k, 1)
			c.Get(k)
		}
		for k := uint32(100); k < 200; k++ {
			c.Put(k, 0) // the scan
		}
	}
	segSurvived, lruSurvived := 0, 0
	for _, k := range working {
		if seg.Contains(k) {
			segSurvived++
		}
		if lru.Contains(k) {
			lruSurvived++
		}
	}
	if segSurvived < len(working) {
		t.Errorf("segmented kept %d of %d working-set keys through a scan", segSurvived, len(working))
	}
	if lruSurvived != 0 {
		t.Errorf("plain LRU kept %d keys through a scan twice its capacity (test premise broken)", lruSurvived)
	}
}

func TestSegmentedProtectedBounded(t *testing.T) {
	// Hammer every key with hits: the protected segment must stay within
	// its budget, demoting back to probation rather than growing.
	c := newSegTest(8) // protectedCap = 6
	for round := 0; round < 5; round++ {
		for k := uint32(0); k < 8; k++ {
			c.Put(k, 1)
			c.Get(k)
		}
	}
	if c.Len() > 8 {
		t.Errorf("Len = %d exceeds capacity", c.Len())
	}
	s := &c.shards[0]
	if s.segLen[protected] > s.protectedCap {
		t.Errorf("protected segment %d exceeds budget %d", s.segLen[protected], s.protectedCap)
	}
}

func TestSegmentedCapacityProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 10; trial++ {
		capacity := 2 + rng.Intn(20)
		c := newSegTest(capacity)
		for op := 0; op < 2000; op++ {
			k := uint32(rng.Intn(64))
			if rng.Intn(2) == 0 {
				c.Put(k, int(k))
			} else if v, ok := c.Get(k); ok && v != int(k) {
				t.Fatalf("Get(%d) = %d", k, v)
			}
			if c.Len() > capacity {
				t.Fatalf("Len %d > capacity %d", c.Len(), capacity)
			}
		}
		// Every Get must return the value last Put for its key.
		for k := uint32(0); k < 64; k++ {
			if v, ok := c.Get(k); ok && v != int(k) {
				t.Fatalf("stale value for %d: %d", k, v)
			}
		}
	}
}

func TestNewSegmentedLRUConstructor(t *testing.T) {
	c := NewSegmentedLRU[uint32, int](1000, Uint32Hasher)
	if c.Capacity() != 1000 {
		t.Errorf("Capacity = %d", c.Capacity())
	}
	c.Put(1, 1)
	if v, ok := c.Get(1); !ok || v != 1 {
		t.Errorf("Get = %d,%v", v, ok)
	}
}

func TestSegmentedSingleSlotShard(t *testing.T) {
	// capacity 1: protectedCap clamps to 0 — every promotion demotes
	// immediately, but the entry must never be lost.
	c := newSegTest(1)
	c.Put(1, 1)
	if _, ok := c.Get(1); !ok {
		t.Fatal("entry lost on promotion with protectedCap 0")
	}
	if _, ok := c.Get(1); !ok {
		t.Fatal("entry lost on second hit")
	}
	c.Put(2, 2)
	if c.Len() != 1 {
		t.Errorf("Len = %d", c.Len())
	}
}
