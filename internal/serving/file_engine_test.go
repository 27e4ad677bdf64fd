package serving

import (
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"sync"
	"testing"

	"maxembed/internal/cache"
	"maxembed/internal/placement"
	"maxembed/internal/ssd"
	"maxembed/internal/store"
)

// fileBackend writes the fixture's layout to per-shard files and opens a
// real-I/O backend over them, plus the matching in-memory sharded store
// (the engine's PageSource for pinning, fallback, and recovery).
func (f *fixture) fileBackend(t *testing.T, shards int, cfg ssd.FileBackendConfig) (*ssd.FileBackend, *store.Sharded) {
	t.Helper()
	sh, err := store.BuildSharded(f.lay, f.syn, 4096, shards)
	if err != nil {
		t.Fatal(err)
	}
	return fileBackendOver(t, sh, cfg), sh
}

// fileBackendOver writes sh's shards, as they are now, to files and opens a
// real-I/O backend over them.
func fileBackendOver(t *testing.T, sh *store.Sharded, cfg ssd.FileBackendConfig) *ssd.FileBackend {
	t.Helper()
	dir := t.TempDir()
	files := make([]*store.FileStore, sh.NumShards())
	for i := range files {
		path := filepath.Join(dir, fmt.Sprintf("shard%03d.bin", i))
		fl, err := os.Create(path)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := sh.Shard(i).WriteTo(fl); err != nil {
			t.Fatal(err)
		}
		if err := fl.Close(); err != nil {
			t.Fatal(err)
		}
		fs, _, err := store.OpenFileAuto(path)
		if err != nil {
			t.Fatal(err)
		}
		files[i] = fs
	}
	fb, err := ssd.NewFileBackend(files, cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { fb.Close() })
	return fb
}

func (f *fixture) fileEngine(t *testing.T, shards int, mutate func(*Config)) (*Engine, *ssd.FileBackend) {
	t.Helper()
	fb, sh := f.fileBackend(t, shards, ssd.FileBackendConfig{})
	cfg := Config{
		Layout:   f.lay,
		Backend:  fb,
		Store:    sh,
		Pipeline: true,
	}
	if mutate != nil {
		mutate(&cfg)
	}
	e, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return e, fb
}

// TestFileBackendLookupMatchesStore drives the serving engine over real
// file I/O and verifies every returned embedding — a view pinned in a
// completion buffer — against the synthesizer's ground truth.
func TestFileBackendLookupMatchesStore(t *testing.T) {
	f := newFixture(t, placement.StrategyMaxEmbed, 0.3)
	for _, shards := range []int{1, 3} {
		e, fb := f.fileEngine(t, shards, nil)
		w := e.NewWorker()
		var want []float32
		for qi := 0; qi < 250; qi++ {
			q := f.trace.Queries[qi]
			res, err := w.Lookup(q)
			if err != nil {
				t.Fatal(err)
			}
			if len(res.FailedKeys) != 0 {
				t.Fatalf("shards=%d query %d: failed keys %v", shards, qi, res.FailedKeys)
			}
			if res.Refs == nil || len(res.Refs) != len(res.Keys) {
				t.Fatalf("shards=%d query %d: Refs len %d, Keys len %d",
					shards, qi, len(res.Refs), len(res.Keys))
			}
			for i, k := range res.Keys {
				ref := res.Refs[i]
				if !ref.Pinned() {
					t.Fatalf("shards=%d query %d key %d: view not in a completion buffer on a cacheless file engine", shards, qi, k)
				}
				if ref.Dim() != testDim {
					t.Fatalf("ref dim = %d, want %d", ref.Dim(), testDim)
				}
				want = f.syn.Vector(k, want[:0])
				for j := range want {
					if got := ref.Float32(j); got != want[j] {
						t.Fatalf("shards=%d query %d key %d elem %d: %v want %v",
							shards, qi, k, j, got, want[j])
					}
				}
			}
		}
		if st := fb.Stats(); st.Reads == 0 || st.Errors != 0 {
			t.Fatalf("shards=%d: backend stats %+v", shards, st)
		}
		if lat := fb.ShardReadLatency(0); lat.Count == 0 {
			t.Fatalf("shards=%d: no latency samples recorded", shards)
		}
	}
}

// resultVector decodes entry i of res, which must be a full-width view.
func resultVector(res Result, i int, dst []float32) ([]float32, error) {
	if d := res.Refs[i].Dim(); d != testDim {
		return nil, fmt.Errorf("key %d: a view of dim %d", res.Keys[i], d)
	}
	return res.AppendVector(i, dst), nil
}

// TestFileBackendLookupWithCache checks the one result contract holds with
// a DRAM cache: a key read from a shard file comes back as a view pinned in
// its completion buffer exactly as on a cacheless engine, a cache hit as a
// view of worker memory, and both carry the source table's bytes.
func TestFileBackendLookupWithCache(t *testing.T) {
	f := newFixture(t, placement.StrategyMaxEmbed, 0.3)
	e, _ := f.fileEngine(t, 2, func(c *Config) { c.CacheEntries = f.trace.NumItems / 4 })
	w := e.NewWorker()
	sawHit, sawRef := false, false
	var got, want []float32
	for qi := 0; qi < 300; qi++ {
		res, err := w.Lookup(f.trace.Queries[qi])
		if err != nil {
			t.Fatal(err)
		}
		hits := 0
		for i, k := range res.Keys {
			if got, err = resultVector(res, i, got[:0]); err != nil {
				t.Fatalf("query %d: %v", qi, err)
			}
			want = f.syn.Vector(k, want[:0])
			if !slices.Equal(got, want) {
				t.Fatalf("query %d key %d: wrong vector", qi, k)
			}
			if res.Refs[i].Pinned() {
				sawRef = true
			} else {
				hits++
			}
		}
		if hits != res.Stats.CacheHits {
			t.Fatalf("query %d: %d unpinned entries, %d cache hits", qi, hits, res.Stats.CacheHits)
		}
		sawHit = sawHit || hits > 0
	}
	if !sawRef || !sawHit {
		t.Fatalf("exercised refs=%v hits=%v; want both", sawRef, sawHit)
	}
}

// TestFileBackendHoldAcrossLookups holds one result's views past the
// worker's next lookups — the server's concurrent-encoder pattern — and
// verifies the held views stay intact while the other buffers recycle
// underneath.
func TestFileBackendHoldAcrossLookups(t *testing.T) {
	f := newFixture(t, placement.StrategyMaxEmbed, 0.3)
	e, _ := f.fileEngine(t, 1, nil)
	w := e.NewWorker()
	res, err := w.Lookup(f.trace.Queries[0])
	if err != nil {
		t.Fatal(err)
	}
	// Hold returns the holder's own SlotRef: Result.Refs itself is worker
	// scratch whose entries the next lookup overwrites in place (the
	// server's response leases hold the same way).
	keys := append([]Key(nil), res.Keys...)
	refs := make([]SlotRef, len(res.Refs))
	for i, r := range res.Refs {
		if !r.Pinned() {
			t.Fatalf("key %d: view not in a completion buffer", keys[i])
		}
		refs[i], _ = r.Hold(nil)
	}
	for qi := 1; qi < 80; qi++ {
		if _, err := w.Lookup(f.trace.Queries[qi]); err != nil {
			t.Fatal(err)
		}
	}
	var want []float32
	for i, k := range keys {
		want = f.syn.Vector(k, want[:0])
		for j := range want {
			if got := refs[i].Float32(j); got != want[j] {
				t.Fatalf("held view of key %d changed under buffer recycling", k)
			}
		}
	}
	for _, r := range refs {
		r.Release()
	}
}

// TestFileBackendBatchRefs checks LookupBatch's scatter carries ref views
// per member query, parallel to each query's keys.
func TestFileBackendBatchRefs(t *testing.T) {
	f := newFixture(t, placement.StrategyMaxEmbed, 0.3)
	e, _ := f.fileEngine(t, 2, nil)
	w := e.NewWorker()
	var want []float32
	for from := 0; from+4 <= 120; from += 4 {
		br, err := w.LookupBatch(f.trace.Queries[from : from+4])
		if err != nil {
			t.Fatal(err)
		}
		for qi, r := range br.PerQuery {
			if len(r.Refs) != len(r.Keys) {
				t.Fatalf("batch %d query %d: %d refs for %d keys", from, qi, len(r.Refs), len(r.Keys))
			}
			for i, k := range r.Keys {
				if !r.Refs[i].Pinned() {
					t.Fatalf("batch %d query %d key %d: view not in a completion buffer", from, qi, k)
				}
				want = f.syn.Vector(k, want[:0])
				for j := range want {
					if r.Refs[i].Float32(j) != want[j] {
						t.Fatalf("batch %d query %d key %d: wrong payload", from, qi, k)
					}
				}
			}
		}
	}
}

// zeroAllocCases are the engines the steady-state allocation guards cover:
// both backends — they run the same read path — each cacheless and with a
// cache of a tenth of the keys, small enough that every measured lookup
// probes, misses, evicts and refills.
var zeroAllocCases = []struct {
	name       string
	file       bool
	cacheShare float64 // of the key count
}{
	{"file/cacheless", true, 0},
	{"file/cached", true, 0.1},
	{"sim/cacheless", false, 0},
	{"sim/cached", false, 0.1},
}

// guardZeroAllocs builds the case's engine, warms lookup on one worker, then
// requires that it allocates nothing at all — and, with a cache, that the
// measured calls were offering solo keys to a full cache, some evicting and
// some turned down.
func guardZeroAllocs(t *testing.T, file bool, cacheShare float64, warm, runs int, lookup func(w *Worker, qs [][]Key, i int) error) {
	t.Helper()
	f := newFixture(t, placement.StrategyMaxEmbed, 0.3)
	withCache := func(c *Config) { c.CacheEntries = int(cacheShare * float64(f.trace.NumItems)) }
	var e *Engine
	if file {
		e, _ = f.fileEngine(t, 2, withCache)
	} else {
		e = f.engine(t, withCache)
	}
	w := e.NewWorker()
	for i := 0; i < warm; i++ {
		if err := lookup(w, f.trace.Queries, i); err != nil {
			t.Fatal(err)
		}
	}
	// Latency samples append into a slice that grows across the run; the
	// warmup above grew it past what the measured runs add, and Reset
	// keeps the capacity.
	e.Latency.Reset()
	var before cache.Stats
	if e.Cache() != nil {
		before = e.Cache().Stats()
	}
	i := warm
	allocs := testing.AllocsPerRun(runs, func() {
		i++
		if err := lookup(w, f.trace.Queries, i); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("steady-state allocs/op = %.1f, want 0", allocs)
	}
	if c := e.Cache(); c != nil {
		st := c.Stats()
		evicted, rejected := st.Evictions-before.Evictions, st.Rejected-before.Rejected
		if evicted == 0 || rejected == 0 || evicted+rejected < int64(runs) {
			t.Fatalf("only %d evictions and %d rejections over %d measured lookups: not the miss-fill path",
				evicted, rejected, runs)
		}
	}
}

// TestFileBackendLookupZeroAllocs is the allocation guard of the read path:
// once warm, a lookup — probe, selection, submit, drain, in-place checksum
// verification, view assembly, miss-fill into recycled cache storage,
// accounting — must allocate nothing at all, on either backend, with or
// without a DRAM cache. Any regression here reintroduces per-key or
// per-page garbage on the hot path.
func TestFileBackendLookupZeroAllocs(t *testing.T) {
	for _, tc := range zeroAllocCases {
		t.Run(tc.name, func(t *testing.T) {
			guardZeroAllocs(t, tc.file, tc.cacheShare, 700, 500, func(w *Worker, qs [][]Key, i int) error {
				_, err := w.Lookup(qs[i%len(qs)])
				return err
			})
		})
	}
}

// TestFileBackendBatchZeroAllocs extends the zero-alloc guard to the
// coalesced batch path: combined pass plus CSR scatter.
func TestFileBackendBatchZeroAllocs(t *testing.T) {
	for _, tc := range zeroAllocCases {
		t.Run(tc.name, func(t *testing.T) {
			const batch = 6
			guardZeroAllocs(t, tc.file, tc.cacheShare, 200, 300, func(w *Worker, qs [][]Key, i int) error {
				from := (i * batch) % (len(qs) - batch)
				_, err := w.LookupBatch(qs[from : from+batch])
				return err
			})
		})
	}
}

// TestConcurrentCachedLookups runs several workers against one tiny cache,
// so that nearly every fill evicts an entry another worker may be reading,
// and checks the two things that interleaving can break. Every distinct key
// of every query is accounted for: a key another worker cached between this
// worker's probe and its selection used to be skipped by both and dropped
// from the result. And every vector equals the source table's: storage a
// Put displaced is refilled at once, so a hit that still aliased it would
// read another key's bytes.
func TestConcurrentCachedLookups(t *testing.T) {
	const workers, rounds = 6, 400
	f := newFixture(t, placement.StrategyMaxEmbed, 0.3)
	engines := map[string]*Engine{
		"sim": f.engine(t, func(c *Config) { c.CacheEntries = 48 }),
	}
	engines["file"], _ = f.fileEngine(t, 2, func(c *Config) { c.CacheEntries = 48 })
	for name, e := range engines {
		t.Run(name, func(t *testing.T) {
			var wg sync.WaitGroup
			for g := 0; g < workers; g++ {
				wg.Add(1)
				go func(g int) {
					defer wg.Done()
					w := e.NewWorker()
					var got, want []float32
					// Overlapping windows of the hottest queries keep the
					// workers contending for the same few cache slots.
					for i := 0; i < rounds; i++ {
						res, err := w.Lookup(f.trace.Queries[(g*7+i)%64])
						if err != nil {
							t.Error(err)
							return
						}
						if n := len(res.Keys) + len(res.FailedKeys); n != res.Stats.DistinctKeys {
							t.Errorf("worker %d lookup %d: %d keys served + failed, %d distinct",
								g, i, n, res.Stats.DistinctKeys)
							return
						}
						for j, k := range res.Keys {
							got, err = resultVector(res, j, got[:0])
							want = f.syn.Vector(k, want[:0])
							if err != nil || !slices.Equal(got, want) {
								t.Errorf("worker %d lookup %d key %d: wrong vector (%v)", g, i, k, err)
								return
							}
						}
					}
				}(g)
			}
			wg.Wait()
			if st := e.Cache().Stats(); st.Evictions == 0 || st.Evictions+st.Rejected < workers*rounds {
				t.Fatalf("only %d evictions and %d rejections: the cache was not under pressure", st.Evictions, st.Rejected)
			}
		})
	}
}
