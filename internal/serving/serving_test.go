package serving

import (
	"os"
	"path/filepath"
	"testing"

	"maxembed/internal/embedding"
	"maxembed/internal/hypergraph"
	"maxembed/internal/layout"
	"maxembed/internal/placement"
	"maxembed/internal/ssd"
	"maxembed/internal/store"
	"maxembed/internal/workload"
)

const testDim = 64

// fixture bundles everything needed to build engines over one workload.
type fixture struct {
	trace *workload.Trace
	graph *hypergraph.Graph
	lay   *layout.Layout
	store *store.Store
	syn   *embedding.Synthesizer
}

func newFixture(t *testing.T, strat placement.Strategy, ratio float64) *fixture {
	t.Helper()
	p := workload.Profile{
		Name: "t", Items: 1500, Queries: 4000, MeanQueryLen: 16,
		Communities: 120, CommunityAffinity: 0.8, CommunitySpread: 0.5,
		ZipfS: 1.2, PopularityOffset: 0.05, Seed: 6,
	}
	tr, err := workload.Generate(p)
	if err != nil {
		t.Fatal(err)
	}
	g, err := hypergraph.FromQueries(tr.NumItems, tr.Queries)
	if err != nil {
		t.Fatal(err)
	}
	capacity := embedding.PageCapacity(4096, testDim)
	lay, err := placement.Build(strat, g, placement.Options{
		Capacity: capacity, ReplicationRatio: ratio, Seed: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	syn, err := embedding.NewSynthesizer(testDim, 8)
	if err != nil {
		t.Fatal(err)
	}
	st, err := store.Build(lay, syn, 4096)
	if err != nil {
		t.Fatal(err)
	}
	return &fixture{trace: tr, graph: g, lay: lay, store: st, syn: syn}
}

func (f *fixture) engine(t *testing.T, mutate func(*Config)) *Engine {
	t.Helper()
	dev, err := ssd.NewDevice(ssd.P5800X)
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{
		Layout:   f.lay,
		Device:   dev,
		Store:    f.store,
		Pipeline: true,
	}
	if mutate != nil {
		mutate(&cfg)
	}
	e, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return e
}

func TestLookupReturnsCorrectVectors(t *testing.T) {
	f := newFixture(t, placement.StrategyMaxEmbed, 0.4)
	e := f.engine(t, nil)
	w := e.NewWorker()
	var want []float32
	for qi := 0; qi < 200; qi++ {
		q := f.trace.Queries[qi]
		res, err := w.Lookup(q)
		if err != nil {
			t.Fatal(err)
		}
		distinct := map[Key]bool{}
		for _, k := range q {
			distinct[k] = true
		}
		if len(res.Keys) != len(distinct) {
			t.Fatalf("query %d: %d result keys, want %d", qi, len(res.Keys), len(distinct))
		}
		for i, k := range res.Keys {
			if !distinct[k] {
				t.Fatalf("query %d returned key %d not in query", qi, k)
			}
			want = f.syn.Vector(k, want[:0])
			got := res.AppendVector(i, nil)
			if len(got) != testDim {
				t.Fatalf("vector len = %d", len(got))
			}
			for j := range want {
				if got[j] != want[j] {
					t.Fatalf("query %d key %d element %d: %v != %v", qi, k, j, got[j], want[j])
				}
			}
		}
	}
}

func TestClockAdvancesMonotonically(t *testing.T) {
	f := newFixture(t, placement.StrategySHP, 0)
	e := f.engine(t, nil)
	w := e.NewWorker()
	prev := int64(0)
	for qi := 0; qi < 50; qi++ {
		res, err := w.Lookup(f.trace.Queries[qi])
		if err != nil {
			t.Fatal(err)
		}
		st := res.Stats
		if st.StartNS != prev {
			t.Fatalf("query %d started at %d, want %d", qi, st.StartNS, prev)
		}
		if st.EndNS <= st.StartNS {
			t.Fatalf("query %d: non-positive latency", qi)
		}
		prev = st.EndNS
	}
}

func TestCacheServesHitsWithoutSSD(t *testing.T) {
	f := newFixture(t, placement.StrategySHP, 0)
	e := f.engine(t, func(c *Config) { c.CacheEntries = f.lay.NumKeys }) // everything fits
	w := e.NewWorker()
	q := f.trace.Queries[0]
	first, err := w.Lookup(q)
	if err != nil {
		t.Fatal(err)
	}
	if first.Stats.PagesRead == 0 {
		t.Fatal("first lookup read no pages")
	}
	second, err := w.Lookup(q)
	if err != nil {
		t.Fatal(err)
	}
	if second.Stats.PagesRead != 0 {
		t.Errorf("second lookup read %d pages; cache should cover all", second.Stats.PagesRead)
	}
	if second.Stats.CacheHits != second.Stats.DistinctKeys {
		t.Errorf("CacheHits = %d, want %d", second.Stats.CacheHits, second.Stats.DistinctKeys)
	}
	// Cached vectors are still correct.
	var want []float32
	for i, k := range second.Keys {
		want = f.syn.Vector(k, want[:0])
		for j := range want {
			if second.Refs[i].Float32(j) != want[j] {
				t.Fatalf("cached vector wrong for key %d", k)
			}
		}
	}
}

func TestPipelineFasterThanRaw(t *testing.T) {
	f := newFixture(t, placement.StrategyMaxEmbed, 0.4)
	queries := f.trace.Queries[:500]

	pipe := f.engine(t, func(c *Config) { c.Pipeline = true })
	rp, err := Run(pipe, queries, 4)
	if err != nil {
		t.Fatal(err)
	}
	raw := f.engine(t, func(c *Config) { c.Pipeline = false })
	rr, err := Run(raw, queries, 4)
	if err != nil {
		t.Fatal(err)
	}
	if rp.ElapsedNS >= rr.ElapsedNS {
		t.Errorf("pipelined run (%d ns) not faster than raw (%d ns)", rp.ElapsedNS, rr.ElapsedNS)
	}
	// Identical page-read work either way.
	if rp.PagesRead != rr.PagesRead {
		t.Errorf("page reads differ: %d vs %d", rp.PagesRead, rr.PagesRead)
	}
}

func TestMaxEmbedBeatsSHPEffectiveBandwidth(t *testing.T) {
	// The headline claim: with replication, fewer page reads serve the
	// same keys, so effective bandwidth and QPS rise and mean valid
	// embeddings per read increases (Figs 8, 9, 10).
	base := newFixture(t, placement.StrategySHP, 0)
	me := newFixture(t, placement.StrategyMaxEmbed, 0.4)
	queries := base.trace.Queries[:800]

	rBase, err := Run(base.engine(t, nil), queries, 4)
	if err != nil {
		t.Fatal(err)
	}
	rME, err := Run(me.engine(t, nil), queries, 4)
	if err != nil {
		t.Fatal(err)
	}
	if rME.PagesRead >= rBase.PagesRead {
		t.Errorf("MaxEmbed reads %d pages, SHP %d — no reduction", rME.PagesRead, rBase.PagesRead)
	}
	if rME.EffectiveBandwidth <= rBase.EffectiveBandwidth {
		t.Errorf("MaxEmbed eff bw %.3e not above SHP %.3e",
			rME.EffectiveBandwidth, rBase.EffectiveBandwidth)
	}
	if rME.QPS <= rBase.QPS {
		t.Errorf("MaxEmbed QPS %.0f not above SHP %.0f", rME.QPS, rBase.QPS)
	}
	if rME.MeanValidPerRead <= rBase.MeanValidPerRead {
		t.Errorf("MeanValidPerRead %.2f not above %.2f",
			rME.MeanValidPerRead, rBase.MeanValidPerRead)
	}
	if rME.Latency.MeanNS >= rBase.Latency.MeanNS {
		t.Errorf("MaxEmbed latency %.0f not below SHP %.0f",
			rME.Latency.MeanNS, rBase.Latency.MeanNS)
	}
}

func TestRunDeterministic(t *testing.T) {
	f := newFixture(t, placement.StrategyMaxEmbed, 0.2)
	queries := f.trace.Queries[:300]
	a, err := Run(f.engine(t, func(c *Config) { c.CacheEntries = 100 }), queries, 3)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(f.engine(t, func(c *Config) { c.CacheEntries = 100 }), queries, 3)
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Errorf("runs differ:\n%+v\n%+v", a, b)
	}
}

func TestFaultRetry(t *testing.T) {
	f := newFixture(t, placement.StrategySHP, 0)
	e := f.engine(t, nil)
	e.cfg.Device.SetFaultInjector(ssd.FailEveryN(7))
	r, err := Run(e, f.trace.Queries[:200], 2)
	if err != nil {
		t.Fatalf("run with retries failed: %v", err)
	}
	if r.Queries != 200 {
		t.Errorf("Queries = %d", r.Queries)
	}
	if e.cfg.Device.Stats().Errors == 0 {
		t.Error("no faults were injected")
	}
}

func TestConfigValidation(t *testing.T) {
	f := newFixture(t, placement.StrategySHP, 0)
	dev, _ := ssd.NewDevice(ssd.P5800X)
	if _, err := New(Config{Device: dev}); err == nil {
		t.Error("missing layout accepted")
	}
	if _, err := New(Config{Layout: f.lay}); err == nil {
		t.Error("missing device accepted")
	}
	bad := *f.lay
	bad.Capacity = 0
	if _, err := New(Config{Layout: &bad, Device: dev}); err == nil {
		t.Error("invalid layout accepted")
	}
}

func TestIndexLimitStillCorrect(t *testing.T) {
	f := newFixture(t, placement.StrategyMaxEmbed, 0.8)
	limited := f.engine(t, func(c *Config) { c.IndexLimit = 3 })
	w := limited.NewWorker()
	var want []float32
	for qi := 0; qi < 100; qi++ {
		res, err := w.Lookup(f.trace.Queries[qi])
		if err != nil {
			t.Fatal(err)
		}
		for i, k := range res.Keys {
			want = f.syn.Vector(k, want[:0])
			for j := range want {
				if res.Refs[i].Float32(j) != want[j] {
					t.Fatalf("index-limited lookup returned wrong vector for key %d", k)
				}
			}
		}
	}
}

func TestGreedySelectionMode(t *testing.T) {
	f := newFixture(t, placement.StrategyMaxEmbed, 0.4)
	queries := f.trace.Queries[:300]
	onePass, err := Run(f.engine(t, nil), queries, 2)
	if err != nil {
		t.Fatal(err)
	}
	greedy, err := Run(f.engine(t, func(c *Config) { c.Greedy = true }), queries, 2)
	if err != nil {
		t.Fatal(err)
	}
	// Greedy scans far more index entries, so its software time dominates
	// — the §6 motivation for one-pass selection.
	if greedy.SelectNS <= onePass.SelectNS*2 {
		t.Errorf("greedy select time %d not ≫ one-pass %d", greedy.SelectNS, onePass.SelectNS)
	}
}

func TestWarmCache(t *testing.T) {
	f := newFixture(t, placement.StrategySHP, 0)
	e := f.engine(t, func(c *Config) { c.CacheEntries = 200 })
	if err := e.WarmCache(f.trace.Queries[:500]); err != nil {
		t.Fatal(err)
	}
	if e.Cache().Len() == 0 {
		t.Fatal("cache empty after warm")
	}
	if e.Cache().Len() > 200 {
		t.Fatalf("cache over capacity: %d", e.Cache().Len())
	}
	// Warmed vectors must be real.
	w := e.NewWorker()
	res, err := w.Lookup(f.trace.Queries[0])
	if err != nil {
		t.Fatal(err)
	}
	var want []float32
	for i, k := range res.Keys {
		want = f.syn.Vector(k, want[:0])
		for j := range want {
			if res.Refs[i].Float32(j) != want[j] {
				t.Fatalf("warmed cache returned wrong vector for key %d", k)
			}
		}
	}
}

func TestTimingOnlyMode(t *testing.T) {
	f := newFixture(t, placement.StrategyMaxEmbed, 0.2)
	e := f.engine(t, func(c *Config) { c.Store = nil })
	r, err := Run(e, f.trace.Queries[:100], 2)
	if err != nil {
		t.Fatal(err)
	}
	if r.PagesRead == 0 || r.EffectiveBandwidth == 0 {
		t.Errorf("timing-only run produced no activity: %+v", r)
	}
}

func TestUnsortedSelectionStillCorrect(t *testing.T) {
	f := newFixture(t, placement.StrategyMaxEmbed, 0.4)
	e := f.engine(t, func(c *Config) { c.UnsortedSelection = true })
	w := e.NewWorker()
	var want []float32
	for qi := 0; qi < 100; qi++ {
		res, err := w.Lookup(f.trace.Queries[qi])
		if err != nil {
			t.Fatal(err)
		}
		for i, k := range res.Keys {
			want = f.syn.Vector(k, want[:0])
			for j := range want {
				if res.Refs[i].Float32(j) != want[j] {
					t.Fatalf("unsorted selection returned wrong vector for key %d", k)
				}
			}
		}
	}
}

func TestFileStoreServing(t *testing.T) {
	f := newFixture(t, placement.StrategyMaxEmbed, 0.3)
	// Serialize the in-memory store and serve from the file-backed one.
	path := filepath.Join(t.TempDir(), "pages.bin")
	file, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.store.WriteTo(file); err != nil {
		t.Fatal(err)
	}
	if err := file.Close(); err != nil {
		t.Fatal(err)
	}
	fs, err := store.OpenFile(path)
	if err != nil {
		t.Fatal(err)
	}
	defer fs.Close()

	e := f.engine(t, func(c *Config) { c.Store = fs })
	w := e.NewWorker()
	var want []float32
	for qi := 0; qi < 100; qi++ {
		res, err := w.Lookup(f.trace.Queries[qi])
		if err != nil {
			t.Fatal(err)
		}
		for i, k := range res.Keys {
			want = f.syn.Vector(k, want[:0])
			for j := range want {
				if res.Refs[i].Float32(j) != want[j] {
					t.Fatalf("file-backed lookup returned wrong vector for key %d", k)
				}
			}
		}
	}
}

func TestWorkerLookupBatch(t *testing.T) {
	f := newFixture(t, placement.StrategyMaxEmbed, 0.3)
	e := f.engine(t, nil)
	w := e.NewWorker()
	batch := f.trace.Queries[:5]
	res, err := w.LookupBatch(batch)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.PerQuery) != len(batch) {
		t.Fatalf("PerQuery = %d, want %d", len(res.PerQuery), len(batch))
	}
	distinct := map[Key]bool{}
	for _, q := range batch {
		for _, k := range q {
			distinct[k] = true
		}
	}
	if res.Stats.Combined.DistinctKeys != len(distinct) {
		t.Errorf("combined distinct = %d, want %d", res.Stats.Combined.DistinctKeys, len(distinct))
	}
}

func TestSessionStartsAtDeviceFrontier(t *testing.T) {
	f := newFixture(t, placement.StrategySHP, 0)
	e := f.engine(t, nil)
	w1 := e.NewWorker()
	for i := 0; i < 20; i++ {
		if _, err := w1.Lookup(f.trace.Queries[i]); err != nil {
			t.Fatal(err)
		}
	}
	w2 := e.NewWorker()
	res, err := w2.Lookup(f.trace.Queries[0])
	if err != nil {
		t.Fatal(err)
	}
	// A fresh worker must not appear to queue behind long-finished work:
	// its first-lookup latency should be comparable to steady state, not
	// the full accumulated virtual time of w1.
	if lat := res.Stats.LatencyNS(); lat > w1.Now()/2 {
		t.Errorf("fresh worker first lookup took %d ns (w1 clock %d): frontier start broken", lat, w1.Now())
	}
}

func TestHistoryRecorder(t *testing.T) {
	f := newFixture(t, placement.StrategySHP, 0)
	rec := NewHistoryRecorder(50)
	e := f.engine(t, func(c *Config) { c.Recorder = rec })
	w := e.NewWorker()
	for i := 0; i < 80; i++ {
		if _, err := w.Lookup(f.trace.Queries[i]); err != nil {
			t.Fatal(err)
		}
	}
	if rec.Total() != 80 {
		t.Errorf("Total = %d, want 80", rec.Total())
	}
	snap := rec.Snapshot()
	if len(snap) != 50 {
		t.Fatalf("Snapshot kept %d queries, want 50", len(snap))
	}
	// Ring keeps the most recent 50 (queries 30..79), oldest first, with
	// deduplicated keys.
	wantFirst := map[Key]bool{}
	for _, k := range f.trace.Queries[30] {
		wantFirst[k] = true
	}
	if len(snap[0]) != len(wantFirst) {
		t.Errorf("oldest retained query has %d keys, want %d", len(snap[0]), len(wantFirst))
	}
	for _, k := range snap[0] {
		if !wantFirst[k] {
			t.Errorf("unexpected key %d in oldest retained query", k)
		}
	}
	// Snapshot copies: mutating it must not affect the recorder.
	snap[0][0] = 9999
	if rec.Snapshot()[0][0] == 9999 {
		t.Error("Snapshot aliases internal storage")
	}
}

func TestHistoryRecorderPartialRing(t *testing.T) {
	rec := NewHistoryRecorder(10)
	rec.Record([]Key{1, 2})
	rec.Record([]Key{3})
	snap := rec.Snapshot()
	if len(snap) != 2 || len(snap[0]) != 2 || snap[1][0] != 3 {
		t.Errorf("partial ring snapshot = %v", snap)
	}
	if NewHistoryRecorder(0) == nil {
		t.Error("zero-capacity recorder not clamped")
	}
}
