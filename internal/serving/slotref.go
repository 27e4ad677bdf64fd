package serving

import (
	"encoding/binary"
	"math"

	"maxembed/internal/ssd"
)

// SlotRef is a view of one served embedding's payload: the slot's raw
// little-endian float32 bytes, exactly as the page image holds them. It is
// the one form a result entry takes, whatever served the key. A key read
// from a page is checksum-verified in place and its view points into the
// page image — a reference-counted completion buffer on a real-I/O backend
// (see ssd.PageBuf and DESIGN.md §17), a worker-owned page buffer filled
// from Config.Store otherwise. A DRAM cache hit's view points into the
// worker's byte arena, where the probe copied it.
//
// Lifetime: a view returned in a Result is valid until the worker's next
// lookup, exactly like Result's other slices — the Refs slice itself is
// worker scratch whose entries the next lookup overwrites in place. A
// holder that needs a view past that point (the server handing a scattered
// batch result to concurrent response encoders) takes its own with Hold
// before the worker moves on, and Releases it when done.
//
// The zero SlotRef is an empty payload: what a timing-only engine (no
// Store) serves.
type SlotRef struct {
	// Payload is the raw little-endian float32 vector (4×dim bytes).
	Payload []byte
	// buf is the completion buffer Payload points into; nil when the bytes
	// are worker memory.
	buf *ssd.PageBuf
}

// Pinned reports whether the view points into a reference-counted
// completion buffer, so that Hold pins it instead of copying it.
func (r SlotRef) Pinned() bool { return r.buf != nil }

// Dim returns the embedding dimension of the view.
func (r SlotRef) Dim() int { return len(r.Payload) / 4 }

// Float32 decodes element i of the vector in place.
func (r SlotRef) Float32(i int) float32 {
	return math.Float32frombits(binary.LittleEndian.Uint32(r.Payload[4*i:]))
}

// AppendVector appends the decoded vector to dst and returns it; a dst with
// room for Dim more elements makes the decode allocation-free.
func (r SlotRef) AppendVector(dst []float32) []float32 {
	for i := 0; i < len(r.Payload); i += 4 {
		dst = append(dst, math.Float32frombits(binary.LittleEndian.Uint32(r.Payload[i:])))
	}
	return dst
}

// Hold returns a view of the same payload that outlives the worker's next
// lookup, and arena as extended: a pinned view takes a reference on its
// completion buffer (no byte is copied), any other is copied to the end of
// arena. The caller sizes arena up front — an append that reallocated it
// would leave earlier held views on the old array — and Releases the view
// when done.
func (r SlotRef) Hold(arena []byte) (SlotRef, []byte) {
	if r.buf != nil {
		r.buf.Retain()
		return r, arena
	}
	from := len(arena)
	arena = append(arena, r.Payload...)
	return SlotRef{Payload: arena[from:len(arena):len(arena)]}, arena
}

// Release drops the reference Hold took. No-op on a view Hold copied.
func (r SlotRef) Release() {
	if r.buf != nil {
		r.buf.Release()
	}
}
