package cache

import "sync"

// slabChunk is how many vectors a Slab allocates at a time once it has
// handed out the ones it was built with.
const slabChunk = 256

// Slab is the value store behind a Cache of fixed-width vectors. It is built
// holding one vector per cache entry, so filling the cache allocates
// nothing, and a full cache needs no more: from then on every Put into the
// cache displaces a value, which the caller passes to Get as spare and
// refills for its next Put. Beyond that the slab only bridges the gaps — a
// caller's first fill, and the vector it is left holding when done, which
// goes back through Put instead of staying with the caller — from chunks
// allocated on demand. The population is therefore bounded by the cache's
// capacity plus one vector per concurrent caller.
//
// A Slab is safe for concurrent use.
type Slab[E any] struct {
	mu    sync.Mutex
	width int
	chunk []E   // vectors not handed out yet
	free  [][]E // vectors handed back by Put
}

// NewSlab returns a slab of width-element vectors that holds reserve of them
// from the start.
func NewSlab[E any](width, reserve int) *Slab[E] {
	return &Slab[E]{width: width, chunk: make([]E, max(reserve, 0)*width)}
}

// Get returns an empty vector to append one value's width elements into,
// with capacity for exactly those: spare when the caller has one, otherwise
// one of the slab's.
func (s *Slab[E]) Get(spare []E) []E {
	if spare != nil {
		return spare[:0]
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if n := len(s.free); n > 0 {
		v := s.free[n-1]
		s.free[n-1] = nil
		s.free = s.free[:n-1]
		return v[:0]
	}
	if len(s.chunk) < s.width {
		s.chunk = make([]E, slabChunk*s.width)
	}
	v := s.chunk[:0:s.width]
	s.chunk = s.chunk[s.width:]
	return v
}

// Put hands back a vector that came from Get, directly or as the value a
// cache Put displaced. A nil v is a no-op.
func (s *Slab[E]) Put(v []E) {
	if v == nil {
		return
	}
	s.mu.Lock()
	s.free = append(s.free, v)
	s.mu.Unlock()
}
