package server

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"

	"maxembed/internal/embedding"
	"maxembed/internal/hypergraph"
	"maxembed/internal/placement"
	"maxembed/internal/serving"
	"maxembed/internal/ssd"
	"maxembed/internal/store"
	"maxembed/internal/workload"
)

// fileStack is a serving stack over the real-I/O backend: shard files in a
// temp dir read through the async executor, zero-copy views end to end.
type fileStack struct {
	eng *serving.Engine
	fb  *ssd.FileBackend
	syn *embedding.Synthesizer
	tr  *workload.Trace
}

func newFileStack(t testing.TB, shards int, mutate func(*serving.Config)) *fileStack {
	t.Helper()
	return newFileStackDim(t, shards, testDim, mutate)
}

func newFileStackDim(t testing.TB, shards, dim int, mutate func(*serving.Config)) *fileStack {
	t.Helper()
	p := workload.Profile{
		Name: "t", Items: 800, Queries: 1500, MeanQueryLen: 8,
		Communities: 60, CommunityAffinity: 0.8, CommunitySpread: 0.5,
		ZipfS: 1.2, PopularityOffset: 0.05, Seed: 3,
	}
	tr, err := workload.Generate(p)
	if err != nil {
		t.Fatal(err)
	}
	g, err := hypergraph.FromQueries(tr.NumItems, tr.Queries)
	if err != nil {
		t.Fatal(err)
	}
	lay, err := placement.Build(placement.StrategyMaxEmbed, g, placement.Options{
		Capacity: embedding.PageCapacity(4096, dim), ReplicationRatio: 0.2, Seed: 1,
		Shards: shards,
	})
	if err != nil {
		t.Fatal(err)
	}
	syn, err := embedding.NewSynthesizer(dim, 5)
	if err != nil {
		t.Fatal(err)
	}
	sh, err := store.BuildSharded(lay, syn, 4096, shards)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	files := make([]*store.FileStore, shards)
	for i := range files {
		path := filepath.Join(dir, fmt.Sprintf("shard%03d.bin", i))
		f, err := os.Create(path)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := sh.Shard(i).WriteTo(f); err != nil {
			t.Fatal(err)
		}
		if err := f.Close(); err != nil {
			t.Fatal(err)
		}
		if files[i], _, err = store.OpenFileAuto(path); err != nil {
			t.Fatal(err)
		}
	}
	fb, err := ssd.NewFileBackend(files, ssd.FileBackendConfig{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { fb.Close() })
	cfg := serving.Config{Layout: lay, Backend: fb, Store: sh, Pipeline: true}
	if mutate != nil {
		mutate(&cfg)
	}
	eng, err := serving.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return &fileStack{eng: eng, fb: fb, syn: syn, tr: tr}
}

func (s *fileStack) serve(t *testing.T, opts ...Option) *httptest.Server {
	t.Helper()
	h := New(s.eng, s.fb, opts...)
	srv := httptest.NewServer(h)
	t.Cleanup(func() {
		srv.Close()
		h.Close()
	})
	return srv
}

// postLookupBinary negotiates the binary encoding and parses the frame.
func postLookupBinary(t *testing.T, url string, keys []uint32) (status int, dim int, got map[uint32][]float32, failed []uint32) {
	t.Helper()
	body, err := json.Marshal(LookupRequest{Keys: keys})
	if err != nil {
		t.Fatal(err)
	}
	req, err := http.NewRequest(http.MethodPost, url+"/v1/lookup", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set("Accept", "application/octet-stream")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	status = resp.StatusCode
	if status != http.StatusOK && status != http.StatusPartialContent {
		return status, 0, nil, nil
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/octet-stream" {
		t.Fatalf("Content-Type = %q, want application/octet-stream", ct)
	}
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if len(raw) < 16 || string(raw[:4]) != binaryMagic {
		t.Fatalf("binary frame header malformed: % x", raw[:min(len(raw), 16)])
	}
	u32 := func(off int) uint32 { return binary.LittleEndian.Uint32(raw[off:]) }
	dim = int(u32(4))
	count, nfail := int(u32(8)), int(u32(12))
	wantLen := 16 + count*(4+4*dim) + nfail*4
	if len(raw) != wantLen {
		t.Fatalf("binary frame length %d, want %d (dim=%d count=%d nfail=%d)",
			len(raw), wantLen, dim, count, nfail)
	}
	got = make(map[uint32][]float32, count)
	off := 16
	for i := 0; i < count; i++ {
		k := u32(off)
		off += 4
		vec := make([]float32, dim)
		for j := range vec {
			vec[j] = math.Float32frombits(u32(off))
			off += 4
		}
		got[k] = vec
	}
	for i := 0; i < nfail; i++ {
		failed = append(failed, u32(off))
		off += 4
	}
	return status, dim, got, failed
}

// TestLookupJSONOverFileBackend checks the hand-rolled JSON encoder against
// the ground truth through the full zero-copy path: NVMe-style read →
// completion buffer → ref view → response body.
func TestLookupJSONOverFileBackend(t *testing.T) {
	s := newFileStack(t, 2, nil)
	eachTransport(t, func() *Handler { return New(s.eng, s.fb) }, func(t *testing.T, url string) {
		s.checkLookupJSON(t, url)
	})
	if st := s.fb.Stats(); st.Reads == 0 {
		t.Fatal("no backend reads recorded")
	}
}

func (s *fileStack) checkLookupJSON(t *testing.T, url string) {
	var want []float32
	for i := 0; i < 40; i++ {
		resp, lr := postLookup(t, url, s.tr.Queries[i])
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("query %d: status %d", i, resp.StatusCode)
		}
		if len(lr.Embeddings) == 0 {
			t.Fatalf("query %d: no embeddings", i)
		}
		for k, got := range lr.Embeddings {
			want = s.syn.Vector(k, want[:0])
			if len(got) != len(want) {
				t.Fatalf("query %d key %d: dim %d want %d", i, k, len(got), len(want))
			}
			for j := range want {
				if got[j] != want[j] {
					t.Fatalf("query %d key %d elem %d: %v want %v", i, k, j, got[j], want[j])
				}
			}
		}
		if lr.Stats.PagesRead == 0 && lr.Stats.CacheHits == 0 {
			t.Fatalf("query %d: no reads and no hits in stats", i)
		}
	}
}

// TestLookupBinaryEncoding checks the negotiated binary frame: raw
// little-endian payload bytes straight out of the completion buffers.
func TestLookupBinaryEncoding(t *testing.T) {
	s := newFileStack(t, 2, nil)
	eachTransport(t, func() *Handler { return New(s.eng, s.fb) }, func(t *testing.T, url string) {
		s.checkLookupBinary(t, url)
	})
}

func (s *fileStack) checkLookupBinary(t *testing.T, url string) {
	var want []float32
	for i := 0; i < 25; i++ {
		status, dim, got, failed := postLookupBinary(t, url, s.tr.Queries[i])
		if status != http.StatusOK {
			t.Fatalf("query %d: status %d", i, status)
		}
		if dim != testDim {
			t.Fatalf("query %d: dim %d, want %d", i, dim, testDim)
		}
		if len(failed) != 0 {
			t.Fatalf("query %d: failed keys %v", i, failed)
		}
		distinct := map[uint32]bool{}
		for _, k := range s.tr.Queries[i] {
			distinct[k] = true
		}
		if len(got) != len(distinct) {
			t.Fatalf("query %d: %d keys returned, want %d", i, len(got), len(distinct))
		}
		for k, vec := range got {
			want = s.syn.Vector(k, want[:0])
			for j := range want {
				if vec[j] != want[j] {
					t.Fatalf("query %d key %d elem %d: %v want %v", i, k, j, vec[j], want[j])
				}
			}
		}
	}
}

// TestLookupBinaryMatchesJSON cross-checks the two encodings of the same
// query byte-for-value, through the coalesced path as well.
func TestLookupBinaryMatchesJSON(t *testing.T) {
	s := newFileStack(t, 1, nil)
	eachTransport(t, func() *Handler { return New(s.eng, s.fb, WithCoalescing(4, 0)) }, func(t *testing.T, url string) {
		s.checkBinaryMatchesJSON(t, url)
	})
}

func (s *fileStack) checkBinaryMatchesJSON(t *testing.T, url string) {
	for i := 0; i < 10; i++ {
		q := s.tr.Queries[i]
		_, lr := postLookup(t, url, q)
		_, _, got, _ := postLookupBinary(t, url, q)
		if len(got) != len(lr.Embeddings) {
			t.Fatalf("query %d: binary %d keys, JSON %d", i, len(got), len(lr.Embeddings))
		}
		for k, jv := range lr.Embeddings {
			bv, ok := got[k]
			if !ok {
				t.Fatalf("query %d: key %d missing from binary response", i, k)
			}
			for j := range jv {
				if jv[j] != bv[j] {
					t.Fatalf("query %d key %d elem %d: JSON %v, binary %v", i, k, j, jv[j], bv[j])
				}
			}
		}
	}
}

// viewsOf returns one unpinned payload view per vector, as cache hits and
// pages read from the host store come back.
func viewsOf(vecs ...[]float32) []serving.SlotRef {
	refs := make([]serving.SlotRef, len(vecs))
	for i, v := range vecs {
		refs[i].Payload = embedding.EncodeVector(v, nil)
	}
	return refs
}

// TestHandRolledJSONMatchesEncodingJSON pins the hand-rolled encoder to the
// reflection-based rendering of the same response structs, so the wire
// shape can never drift from the documented LookupResponse.
func TestHandRolledJSONMatchesEncodingJSON(t *testing.T) {
	for _, l := range []*respLease{
		{
			keys:  []uint32{7, 42},
			refs:  viewsOf([]float32{1.5, -2.25}, []float32{0, 3e-7}),
			stats: LookupStats{DistinctKeys: 2, PagesRead: 1, PageShare: 0.5, BatchSize: 1, LatencyNS: 1234, Generation: 1},
		},
		{
			keys:     []uint32{9},
			refs:     viewsOf([]float32{float32(math.Inf(1))}),
			failed:   []uint32{11, 12},
			degraded: true,
			stats: LookupStats{DistinctKeys: 3, CacheHits: 1, PagesRead: 2, BatchSize: 4,
				Retries: 2, ReplicaRescues: 1, ShardReroutes: 3, StoreFallbacks: 1, LatencyNS: 99, Generation: 7},
		},
	} {
		hand := l.encodeJSON(nil)
		ref := LookupResponse{
			Embeddings: map[uint32][]float32{},
			Degraded:   l.degraded,
			Stats:      l.stats,
		}
		for i, k := range l.keys {
			vec := l.refs[i].AppendVector(nil)
			for j, f := range vec {
				if f64 := float64(f); math.IsNaN(f64) || math.IsInf(f64, 0) {
					f = 0 // the hand encoder's non-finite clamp
				}
				vec[j] = f
			}
			ref.Embeddings[k] = vec
		}
		if l.degraded {
			ref.FailedKeys = l.failed
		}
		var fromHand, fromRef LookupResponse
		if err := json.Unmarshal(hand, &fromHand); err != nil {
			t.Fatalf("hand-rolled output does not parse: %v\n%s", err, hand)
		}
		refBytes, err := json.Marshal(ref)
		if err != nil {
			t.Fatal(err)
		}
		if err := json.Unmarshal(refBytes, &fromRef); err != nil {
			t.Fatal(err)
		}
		if !jsonEqual(t, fromHand, fromRef) {
			t.Fatalf("hand-rolled JSON diverges:\nhand: %s\nref:  %s", hand, refBytes)
		}
	}
}

func jsonEqual(t *testing.T, a, b LookupResponse) bool {
	t.Helper()
	ab, err := json.Marshal(a)
	if err != nil {
		t.Fatal(err)
	}
	bb, err := json.Marshal(b)
	if err != nil {
		t.Fatal(err)
	}
	return bytes.Equal(ab, bb)
}

// TestPprofGating: profiling endpoints exist only when opted in.
func TestPprofGating(t *testing.T) {
	s := newTestStack(t, 0.2, nil)
	off := s.serve(t)
	resp, err := http.Get(off.URL + "/debug/pprof/")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("pprof without opt-in: status %d, want 404", resp.StatusCode)
	}

	s2 := newTestStack(t, 0.2, nil)
	on := s2.serve(t, WithPprof())
	for _, path := range []string{"/debug/pprof/", "/debug/pprof/cmdline", "/debug/pprof/symbol"} {
		resp, err := http.Get(on.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET %s with -pprof: status %d", path, resp.StatusCode)
		}
	}
}

// TestMetricsBackendLatencyHistogram: a real-I/O backend exports its
// measured per-shard read-latency histogram; the simulator does not.
func TestMetricsBackendLatencyHistogram(t *testing.T) {
	s := newFileStack(t, 2, nil)
	srv := s.serve(t)
	for i := 0; i < 10; i++ {
		if resp, _ := postLookup(t, srv.URL, s.tr.Queries[i]); resp.StatusCode != http.StatusOK {
			t.Fatalf("lookup %d: status %d", i, resp.StatusCode)
		}
	}
	r, err := http.Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer r.Body.Close()
	body, err := io.ReadAll(r.Body)
	if err != nil {
		t.Fatal(err)
	}
	text := string(body)
	for _, needle := range []string{
		"# TYPE maxembed_backend_read_latency_seconds histogram",
		`maxembed_backend_read_latency_seconds_bucket{shard="0",le="+Inf"}`,
		`maxembed_backend_read_latency_seconds_bucket{shard="1",le="+Inf"}`,
		`maxembed_backend_read_latency_seconds_count{shard="0"}`,
		`maxembed_backend_read_latency_seconds_sum{shard="0"}`,
	} {
		if !strings.Contains(text, needle) {
			t.Errorf("metrics output missing %q", needle)
		}
	}
	// Buckets must be cumulative and end at the total count.
	var total int64
	fmt.Sscanf(textAfter(t, text, `maxembed_backend_read_latency_seconds_count{shard="0"} `), "%d", &total)
	if total == 0 {
		t.Fatal("shard 0 histogram count is zero after lookups")
	}
	var inf int64
	fmt.Sscanf(textAfter(t, text, `maxembed_backend_read_latency_seconds_bucket{shard="0",le="+Inf"} `), "%d", &inf)
	if inf != total {
		t.Fatalf("+Inf bucket %d != count %d", inf, total)
	}

	// The executor block and the ring counter: on io_uring the reads of a
	// lookup share one io_uring_enter, on the pread pool both are absent.
	be := getStats(t, srv.URL).Backend
	if be == nil || be.Executor != s.fb.ExecutorKind() {
		t.Fatalf("/v1/stats backend block %+v, executor %s", be, s.fb.ExecutorKind())
	}
	hasRing := strings.Contains(text, "maxembed_backend_ring_enters_total ")
	if be.Executor == "io_uring" {
		if !hasRing || be.RingEnters == nil || *be.RingEnters == 0 || *be.ReadsPerEnter < 1 {
			t.Errorf("io_uring ring counters: metric %v, stats %+v", hasRing, be)
		}
	} else if hasRing || be.RingEnters != nil || be.ReadsPerEnter != nil {
		t.Errorf("pread executor exported ring counters: metric %v, stats %+v", hasRing, be)
	}

	// The simulated stack has no measured latency to report.
	sim := newTestStack(t, 0.2, nil)
	simSrv := sim.serve(t)
	if sb := getStats(t, simSrv.URL).Backend; sb != nil {
		t.Errorf("simulated backend exported an executor block: %+v", sb)
	}
	r2, err := http.Get(simSrv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer r2.Body.Close()
	simBody, err := io.ReadAll(r2.Body)
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(string(simBody), "maxembed_backend_") {
		t.Error("simulated backend exported real-I/O backend metrics")
	}
}

func textAfter(t *testing.T, text, prefix string) string {
	t.Helper()
	i := strings.Index(text, prefix)
	if i < 0 {
		t.Fatalf("metrics output missing %q", prefix)
	}
	return text[i+len(prefix):]
}

// Codec benchmark shape: one reply of 26 keys × 64 dimensions, the repo
// benchmark's mean query.
const (
	codecKeys = 26
	codecDim  = 64
)

// codecLeases returns a lease of pinned views (out of a file backend's
// completion buffers) and one of views copied into the lease's arena (as
// cache hits and simulated reads produce) over the same keys and values.
func codecLeases(t testing.TB) (ref, arena *respLease) {
	t.Helper()
	s := newFileStackDim(t, 1, codecDim, nil)
	keys := make([]uint32, codecKeys)
	for i := range keys {
		keys[i] = uint32(i * 29)
	}
	res, err := s.eng.NewWorker().Lookup(keys)
	if err != nil {
		t.Fatal(err)
	}
	ref = newLease(res)
	t.Cleanup(ref.release)
	for i := range ref.keys {
		if !ref.refs[i].Pinned() {
			t.Fatalf("entry %d of the file-backend lease is not pinned", i)
		}
	}
	// Same entries in the same (engine-chosen) order.
	vecs := make([][]float32, len(ref.keys))
	for i, k := range ref.keys {
		vecs[i] = s.syn.Vector(k, nil)
	}
	arena = newLease(serving.Result{Keys: ref.keys, Refs: viewsOf(vecs...)})
	t.Cleanup(arena.release)
	return ref, arena
}

// TestEncodeJSONZeroAllocs: into a body buffer that has reached its
// steady-state size, encoding a reply allocates nothing, and the two kinds
// of lease render the same bytes.
func TestEncodeJSONZeroAllocs(t *testing.T) {
	ref, arena := codecLeases(t)
	buf := ref.encodeJSON(nil)
	embeddings := func(b []byte) []byte { return b[:bytes.Index(b, []byte(`,"stats":`))] }
	if a, b := embeddings(buf), embeddings(arena.encodeJSON(nil)); !bytes.Equal(a, b) {
		t.Fatalf("ref-backed and arena-backed leases encode differently:\n%s\n%s", a, b)
	}
	var lr LookupResponse
	if err := json.Unmarshal(buf, &lr); err != nil || len(lr.Embeddings) != codecKeys {
		t.Fatalf("encoded reply: %d embeddings, err %v", len(lr.Embeddings), err)
	}
	for name, l := range map[string]*respLease{"ref": ref, "arena": arena} {
		if n := testing.AllocsPerRun(100, func() { buf = l.encodeJSON(buf[:0]) }); n != 0 {
			t.Errorf("%s-backed encodeJSON allocates %.1f/op, want 0", name, n)
		}
	}
}

// BenchmarkEncodeJSON encodes one reply. Pinned and copied views go
// through the same code (payload bytes in, JSON out), so one lease is
// measured.
func BenchmarkEncodeJSON(b *testing.B) {
	l, _ := codecLeases(b)
	buf := l.encodeJSON(nil)
	b.SetBytes(int64(len(buf)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf = l.encodeJSON(buf[:0])
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/(codecKeys*codecDim), "ns/float")
}

// TestPoolsDropJumboBuffers: a reply past the pool caps must not leave its
// body buffer or its lease behind for later (small) replies to inherit. One
// P, so everything a Put kept is what the next Gets return.
func TestPoolsDropJumboBuffers(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	s := newTestStack(t, 0.2, nil)
	h := New(s.eng, s.dev, WithoutCoalescing())
	serve := func(keys int) {
		res := serving.Result{Keys: make([]uint32, keys), Refs: make([]serving.SlotRef, keys)}
		vec := make([]float32, 64)
		for i := range vec {
			vec[i] = -0.12345678 // twelve bytes of JSON each
		}
		for i := range res.Keys {
			res.Keys[i], res.Refs[i] = uint32(i), viewsOf(vec)[0]
		}
		rec := httptest.NewRecorder()
		job := lookupJobPool.Get().(*lookupJob)
		bp := respBufPool.Get().(*[]byte)
		rp := leaseReply(newLease(res), false, (*bp)[:0])
		h.write(rec, job, rp)
		*bp = rp.body
		putRespBuf(bp)
		putLookupJob(job)
		if rec.Code != http.StatusOK || rec.Body.Len() < keys*64 {
			t.Fatalf("%d-key reply: status %d, %d bytes", keys, rec.Code, rec.Body.Len())
		}
	}
	serve(maxPooledKeys + 1) // > 1 MiB of JSON, > 1 MiB of arena
	for i := 0; i < 4; i++ {
		serve(8)
	}
	for i := 0; i < 16; i++ {
		bp := respBufPool.Get().(*[]byte)
		if cap(*bp) > maxPooledBytes {
			t.Errorf("respBufPool kept a %d-byte buffer (cap %d)", cap(*bp), maxPooledBytes)
		}
		l := leasePool.Get().(*respLease)
		if cap(l.keys) > maxPooledKeys || cap(l.arena) > maxPooledBytes {
			t.Errorf("leasePool kept a lease of %d keys, %d arena bytes", cap(l.keys), cap(l.arena))
		}
	}
}
