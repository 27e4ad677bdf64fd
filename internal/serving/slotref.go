package serving

import (
	"encoding/binary"
	"math"

	"maxembed/internal/ssd"
)

// SlotRef is a zero-copy view of one embedding's payload inside a
// reference-counted completion buffer of a real-I/O backend (see
// ssd.PageBuf and DESIGN.md §17). The payload bytes are the slot's raw
// little-endian float32 vector, checksum-verified in place at extraction;
// no copy is made between the device read and whatever consumes the view
// (the HTTP encoders read it directly into the response body).
//
// Lifetime: a ref returned in a Result is valid until the worker's next
// lookup, exactly like Result's other slices. A holder that needs the view
// past that point (the server handing a scattered batch result to
// concurrent response encoders) must, before the worker moves on, Retain
// AND copy the SlotRef value out of Result.Refs — the Refs slice itself is
// worker scratch whose entries the next lookup overwrites in place — then
// Release when done; the underlying buffer recycles only after every
// retained view is released.
//
// The zero SlotRef is not Valid; it marks result entries whose payload
// lives elsewhere (DRAM cache hits, host-store fallbacks, the simulated
// read path), where Result.Vectors carries the value instead.
type SlotRef struct {
	buf     *ssd.PageBuf
	payload []byte
}

// Valid reports whether the ref carries a payload view.
func (r SlotRef) Valid() bool { return r.buf != nil }

// Payload returns the raw little-endian float32 payload bytes (4×dim).
func (r SlotRef) Payload() []byte { return r.payload }

// Dim returns the embedding dimension of the view.
func (r SlotRef) Dim() int { return len(r.payload) / 4 }

// Float32 decodes element i of the vector in place.
func (r SlotRef) Float32(i int) float32 {
	return math.Float32frombits(binary.LittleEndian.Uint32(r.payload[4*i:]))
}

// AppendVector appends the decoded vector to dst and returns it; a dst with
// room for Dim more elements makes the decode allocation-free.
func (r SlotRef) AppendVector(dst []float32) []float32 {
	for i := 0; i < len(r.payload); i += 4 {
		dst = append(dst, math.Float32frombits(binary.LittleEndian.Uint32(r.payload[i:])))
	}
	return dst
}

// Retain adds a reference to the underlying completion buffer. No-op on
// an invalid ref.
func (r SlotRef) Retain() {
	if r.buf != nil {
		r.buf.Retain()
	}
}

// Release drops a reference taken with Retain (or the result's own, when
// the holder consumes it early). No-op on an invalid ref.
func (r SlotRef) Release() {
	if r.buf != nil {
		r.buf.Release()
	}
}
