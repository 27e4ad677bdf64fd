package cache

import (
	"math/rand"
	"testing"
)

func benchCache(n int) *Cache[uint32, []float32] {
	c := New[uint32, []float32](n, Uint32Hasher)
	vec := make([]float32, 64)
	for k := uint32(0); k < uint32(n); k++ {
		c.Put(k, vec)
	}
	return c
}

func BenchmarkCacheGetHit(b *testing.B) {
	// Keys hash across shards unevenly, so insert only half the capacity
	// to guarantee residency.
	c := New[uint32, []float32](100_000, Uint32Hasher)
	vec := make([]float32, 64)
	for k := uint32(0); k < 50_000; k++ {
		c.Put(k, vec)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, ok := c.Get(uint32(i % 50_000)); !ok {
			b.Fatal("miss")
		}
	}
}

func BenchmarkCacheGetMiss(b *testing.B) {
	c := benchCache(100_000)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Get(uint32(100_000 + i%100_000))
	}
}

func BenchmarkCachePutEvict(b *testing.B) {
	c := benchCache(100_000)
	vec := make([]float32, 64)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Put(uint32(100_000+i), vec)
	}
}

// BenchmarkCachePutIfHotter offers a full cache a stream of keys in which a
// few recur — the gated insert's mix of sketch counts, rejections and the
// occasional eviction.
func BenchmarkCachePutIfHotter(b *testing.B) {
	c := benchCache(100_000)
	vec := make([]float32, 64)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		k := uint32(100_000 + i)
		if i%4 == 0 {
			k = uint32(100_000 + i%1024)
		}
		c.PutIfHotter(k, vec)
	}
}

func BenchmarkCacheParallelMixed(b *testing.B) {
	c := benchCache(100_000)
	vec := make([]float32, 64)
	b.ReportAllocs()
	b.RunParallel(func(pb *testing.PB) {
		rng := rand.New(rand.NewSource(1))
		for pb.Next() {
			k := uint32(rng.Intn(200_000))
			if rng.Intn(4) == 0 {
				c.Put(k, vec)
			} else {
				c.Get(k)
			}
		}
	})
}
