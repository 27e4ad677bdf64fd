package server

import (
	"strconv"
	"sync"

	"maxembed/internal/serving"
)

// Response path. A lookup's Result references worker scratch that the
// worker's next lookup overwrites, so the handler snapshots each result
// into a pooled respLease before the worker moves on: uint32 keys are
// copied (cheap) and every payload view is held (serving.SlotRef.Hold) —
// a view into a completion buffer pins the buffer, the payload bytes
// themselves never copied; a view into worker memory (cache hits, pages
// read from the host store) is copied into the lease's arena. The response
// encoders then read payload bytes straight into the HTTP body; releasing
// the lease unpins the buffers so the backend can recycle them. See
// DESIGN.md §17.

// respLease owns one response's data after the serving worker has moved
// on. refs is parallel to keys.
type respLease struct {
	keys     []uint32
	refs     []serving.SlotRef
	arena    []byte // the copied views' bytes
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
	// The arena is sized up front so Hold's appends never reallocate it
	// under the views already carved from it.
	total := 0
	for _, r := range res.Refs {
		if !r.Pinned() {
			total += len(r.Payload)
		}
	}
	if cap(l.arena) < total {
		l.arena = make([]byte, 0, total)
	}
	l.arena = l.arena[:0]
	l.refs = l.refs[:0]
	for _, r := range res.Refs {
		r, l.arena = r.Hold(l.arena)
		l.refs = append(l.refs, r)
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
	if cap(l.keys) <= maxPooledKeys && cap(l.arena) <= maxPooledBytes {
		leasePool.Put(l)
	}
}

// dim returns the embedding dimension of the response's vectors (0 when
// the lease has no entries or the engine is timing-only).
func (l *respLease) dim() int {
	if len(l.refs) == 0 {
		return 0
	}
	return l.refs[0].Dim()
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
// buf. Hand-rolled: vectors are rendered straight from their payload bytes
// — a completion buffer's, for a pinned view — into the body (f32json.go)
// with no intermediate map, slice-of-slices, or reflection pass.
func (l *respLease) encodeJSON(buf []byte) []byte {
	buf = append(buf, `{"embeddings":{`...)
	for i, k := range l.keys {
		if i > 0 {
			buf = append(buf, ',')
		}
		buf = append(buf, '"')
		buf = strconv.AppendUint(buf, uint64(k), 10)
		buf = append(buf, `":`...)
		buf = appendFloat32sLE(buf, l.refs[i].Payload)
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
// Payloads are appended as they are: for a pinned view, the bytes the NVMe
// read produced are the bytes on the wire.
const binaryMagic = "MXE1"

func appendU32(buf []byte, v uint32) []byte {
	return append(buf, byte(v), byte(v>>8), byte(v>>16), byte(v>>24))
}

// encodeBinary appends the binary encoding of the lease to buf.
func (l *respLease) encodeBinary(buf []byte) []byte {
	buf = append(buf, binaryMagic...)
	buf = appendU32(buf, uint32(l.dim()))
	buf = appendU32(buf, uint32(len(l.keys)))
	buf = appendU32(buf, uint32(len(l.failed)))
	for i, k := range l.keys {
		buf = appendU32(buf, k)
		buf = append(buf, l.refs[i].Payload...)
	}
	for _, k := range l.failed {
		buf = appendU32(buf, k)
	}
	return buf
}
