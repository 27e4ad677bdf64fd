package server

import (
	"math"
	"strconv"
	"sync"

	"maxembed/internal/serving"
)

// Zero-copy response path. A lookup's Result references worker scratch
// that the worker's next lookup overwrites, so the handler snapshots each
// result into a pooled respLease before the worker moves on: uint32 keys
// are copied (cheap), zero-copy SlotRef views are copied by value and
// Retained (pinning their completion buffers — the payload bytes
// themselves are never copied), and value-backed vectors (cache hits,
// simulated reads, store fallbacks) are copied into a pooled arena. The
// response encoders then read ref payloads directly out of the device's
// completion buffers into the HTTP body; releasing the lease unpins the
// buffers so the backend can recycle them. See DESIGN.md §17.

// respLease owns one response's data after the serving worker has moved
// on. Entries are parallel to keys: a valid refs[i] carries the payload
// view, otherwise vecs[i] holds the (arena-backed) value.
type respLease struct {
	keys     []uint32
	refs     []serving.SlotRef
	vecs     [][]float32
	arena    []float32
	failed   []uint32
	stats    LookupStats
	degraded bool
}

var leasePool = sync.Pool{New: func() any { return new(respLease) }}

// respBufPool recycles response body buffers across requests.
var respBufPool = sync.Pool{New: func() any { return new([]byte) }}

// Pool caps: a pooled object that has grown past these is dropped rather
// than returned, so one jumbo request (65 536 keys is a ~40 MB JSON reply)
// does not park its buffers on every P for the life of the process.
const (
	maxPooledBytes = 1 << 20 // request bodies, response bodies, lease arenas
	maxPooledKeys  = 1 << 12 // request key lists, lease entry slices
)

// putRespBuf returns a response body buffer to the pool, or drops it when
// it has outgrown the cap.
func putRespBuf(bp *[]byte) {
	if cap(*bp) <= maxPooledBytes {
		respBufPool.Put(bp)
	}
}

// newLease snapshots res out of worker scratch. Must be called before the
// owning worker's next lookup; the lease stays valid until release.
func newLease(res serving.Result) *respLease {
	l := leasePool.Get().(*respLease)
	l.keys = append(l.keys[:0], res.Keys...)
	l.failed = append(l.failed[:0], res.FailedKeys...)
	l.degraded = res.Stats.Degraded
	l.stats = toLookupStats(res.Stats)
	l.refs = l.refs[:0]
	if res.Refs != nil {
		l.refs = append(l.refs, res.Refs...)
		for i := range l.refs {
			l.refs[i].Retain()
		}
	}
	// Copy value-backed vectors into one arena carve. The arena is sized
	// up front so append never reallocates under the carved subslices.
	total := 0
	for i, v := range res.Vectors {
		if i < len(l.refs) && l.refs[i].Valid() {
			continue
		}
		total += len(v)
	}
	if cap(l.arena) < total {
		l.arena = make([]float32, 0, total)
	}
	l.arena = l.arena[:0]
	l.vecs = l.vecs[:0]
	off := 0
	for i, v := range res.Vectors {
		if i < len(l.refs) && l.refs[i].Valid() {
			l.vecs = append(l.vecs, nil)
			continue
		}
		l.arena = append(l.arena, v...)
		l.vecs = append(l.vecs, l.arena[off:off+len(v):off+len(v)])
		off += len(v)
	}
	return l
}

// release unpins the lease's completion buffers and returns it to the
// pool (or drops it, past the pool caps). The lease must not be used
// afterwards.
func (l *respLease) release() {
	for i := range l.refs {
		l.refs[i].Release()
		l.refs[i] = serving.SlotRef{}
	}
	l.refs = l.refs[:0]
	if cap(l.keys) <= maxPooledKeys && 4*cap(l.arena) <= maxPooledBytes {
		leasePool.Put(l)
	}
}

// refAt returns the ref view for entry i, or the zero ref when the entry
// is value-backed (engines without a real-I/O backend return no refs).
func (l *respLease) refAt(i int) serving.SlotRef {
	if i < len(l.refs) {
		return l.refs[i]
	}
	return serving.SlotRef{}
}

// dim returns the embedding dimension of the response's vectors (0 when
// the lease has no entries or the engine is timing-only).
func (l *respLease) dim() int {
	for i := range l.keys {
		if r := l.refAt(i); r.Valid() {
			return r.Dim()
		}
		if len(l.vecs[i]) > 0 {
			return len(l.vecs[i])
		}
	}
	return 0
}

func toLookupStats(st serving.QueryStats) LookupStats {
	return LookupStats{
		DistinctKeys:   st.DistinctKeys,
		CacheHits:      st.CacheHits,
		PagesRead:      st.PagesRead,
		PageShare:      st.PageShare,
		BatchSize:      st.BatchSize,
		Retries:        st.Retries,
		ReplicaRescues: st.ReplicaRescues,
		ShardReroutes:  st.ShardReroutes,
		StoreFallbacks: st.StoreFallbacks,
		LatencyNS:      st.LatencyNS(),
		Generation:     st.Generation,
	}
}

// encodeJSON appends the LookupResponse JSON encoding of the lease to
// buf. Hand-rolled: ref-backed vectors are rendered straight from the
// completion buffers' bytes into the body (f32json.go) with no
// intermediate map, slice-of-slices, or reflection pass.
func (l *respLease) encodeJSON(buf []byte) []byte {
	buf = append(buf, `{"embeddings":{`...)
	for i, k := range l.keys {
		if i > 0 {
			buf = append(buf, ',')
		}
		buf = append(buf, '"')
		buf = strconv.AppendUint(buf, uint64(k), 10)
		buf = append(buf, `":`...)
		if ref := l.refAt(i); ref.Valid() {
			buf = appendFloat32sLE(buf, ref.Payload())
		} else {
			buf = appendFloat32s(buf, l.vecs[i])
		}
	}
	buf = append(buf, '}')
	if l.degraded {
		buf = append(buf, `,"degraded":true,"failed_keys":[`...)
		for i, k := range l.failed {
			if i > 0 {
				buf = append(buf, ',')
			}
			buf = strconv.AppendUint(buf, uint64(k), 10)
		}
		buf = append(buf, ']')
	}
	buf = append(buf, `,"stats":`...)
	buf = l.stats.appendJSON(buf)
	buf = append(buf, '}', '\n')
	return buf
}

// appendJSON appends the LookupStats JSON object, matching the
// encoding/json rendering of the struct tags (omitempty included).
func (s LookupStats) appendJSON(buf []byte) []byte {
	buf = append(buf, `{"distinct_keys":`...)
	buf = strconv.AppendInt(buf, int64(s.DistinctKeys), 10)
	buf = append(buf, `,"cache_hits":`...)
	buf = strconv.AppendInt(buf, int64(s.CacheHits), 10)
	buf = append(buf, `,"pages_read":`...)
	buf = strconv.AppendInt(buf, int64(s.PagesRead), 10)
	buf = append(buf, `,"page_share":`...)
	buf = strconv.AppendFloat(buf, s.PageShare, 'g', -1, 64)
	buf = append(buf, `,"batch_size":`...)
	buf = strconv.AppendInt(buf, int64(s.BatchSize), 10)
	if s.Retries != 0 {
		buf = append(buf, `,"retries":`...)
		buf = strconv.AppendInt(buf, int64(s.Retries), 10)
	}
	if s.ReplicaRescues != 0 {
		buf = append(buf, `,"replica_rescues":`...)
		buf = strconv.AppendInt(buf, int64(s.ReplicaRescues), 10)
	}
	if s.ShardReroutes != 0 {
		buf = append(buf, `,"shard_reroutes":`...)
		buf = strconv.AppendInt(buf, int64(s.ShardReroutes), 10)
	}
	if s.StoreFallbacks != 0 {
		buf = append(buf, `,"store_fallbacks":`...)
		buf = strconv.AppendInt(buf, int64(s.StoreFallbacks), 10)
	}
	buf = append(buf, `,"virtual_latency_ns":`...)
	buf = strconv.AppendInt(buf, s.LatencyNS, 10)
	buf = append(buf, `,"layout_generation":`...)
	buf = strconv.AppendUint(buf, s.Generation, 10)
	return append(buf, '}')
}

// Binary lookup encoding (content negotiation: Accept:
// application/octet-stream). All integers little-endian:
//
//	magic  [4]byte "MXE1"
//	dim    uint32  embedding dimension (elements)
//	count  uint32  served keys
//	nfail  uint32  failed keys
//	count × { key uint32, payload [4*dim]byte (raw little-endian float32s) }
//	nfail × { key uint32 }
//
// Ref-backed payloads are appended directly from the completion-buffer
// views: the bytes the NVMe read produced are the bytes on the wire.
const binaryMagic = "MXE1"

func appendU32(buf []byte, v uint32) []byte {
	return append(buf, byte(v), byte(v>>8), byte(v>>16), byte(v>>24))
}

// encodeBinary appends the binary encoding of the lease to buf.
func (l *respLease) encodeBinary(buf []byte) []byte {
	dim := l.dim()
	buf = append(buf, binaryMagic...)
	buf = appendU32(buf, uint32(dim))
	buf = appendU32(buf, uint32(len(l.keys)))
	buf = appendU32(buf, uint32(len(l.failed)))
	for i, k := range l.keys {
		buf = appendU32(buf, k)
		if ref := l.refAt(i); ref.Valid() {
			buf = append(buf, ref.Payload()...)
			continue
		}
		for _, f := range l.vecs[i] {
			buf = appendU32(buf, math.Float32bits(f))
		}
		for j := len(l.vecs[i]); j < dim; j++ {
			// Timing-only engines serve empty vectors; pad to the frame.
			buf = appendU32(buf, 0)
		}
	}
	for _, k := range l.failed {
		buf = appendU32(buf, k)
	}
	return buf
}
