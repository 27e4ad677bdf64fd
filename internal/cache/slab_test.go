package cache

import "testing"

func TestSlabCarvesAndRecycles(t *testing.T) {
	const width = 8
	s := NewSlab[float32](width, 0)
	// Carve across a chunk boundary: every vector is width long, cannot
	// grow into its neighbour, and shares no element with another.
	vecs := make([][]float32, slabChunk+3)
	for i := range vecs {
		v := s.Get(nil)
		if len(v) != 0 || cap(v) != width {
			t.Fatalf("vector %d: len %d cap %d, want 0/%d", i, len(v), cap(v), width)
		}
		for len(v) < width {
			v = append(v, float32(i))
		}
		vecs[i] = v
	}
	for i, v := range vecs {
		for _, x := range v {
			if x != float32(i) {
				t.Fatalf("vector %d overwritten by a later carve: %v", i, v)
			}
		}
	}
	s.Put(vecs[5])
	if got := s.Get(nil); len(got) != 0 || &got[:1][0] != &vecs[5][0] {
		t.Error("Get did not hand out, emptied, the vector Put took back")
	}
	if got := s.Get(vecs[7]); len(got) != 0 || &got[:1][0] != &vecs[7][0] {
		t.Error("Get did not hand the caller's spare back emptied")
	}
	s.Put(nil)
	// A slab built with a reserve hands that many out without allocating
	// and falls back to chunks after them.
	const reserve = 300
	r := NewSlab[float32](width, reserve)
	if allocs := testing.AllocsPerRun(reserve-1, func() { r.Get(nil) }); allocs > 0 {
		t.Errorf("handing out a reserved vector allocates %.1f times, want 0", allocs)
	}
	if v := r.Get(nil); len(v) != 0 || cap(v) != width {
		t.Errorf("first vector past the reserve: len %d cap %d, want 0/%d", len(v), cap(v), width)
	}
	// The bridge a full cache needs — take one, hand one back — is free.
	if allocs := testing.AllocsPerRun(200, func() { s.Put(s.Get(nil)) }); allocs > 0 {
		t.Errorf("steady-state Get/Put allocates %.1f times per op, want 0", allocs)
	}
}
