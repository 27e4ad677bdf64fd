package serving

import (
	"testing"

	"maxembed/internal/embedding"
	"maxembed/internal/hypergraph"
	"maxembed/internal/placement"
	"maxembed/internal/ssd"
	"maxembed/internal/store"
	"maxembed/internal/workload"
)

func TestSwappableGenerations(t *testing.T) {
	f := newFixture(t, placement.StrategyMaxEmbed, 0.4)
	e1 := f.engine(t, nil)
	s := NewSwappable(e1)
	if got, gen := s.Load(); got != e1 || gen != 1 {
		t.Fatalf("Load = (%p, %d), want (%p, 1)", got, gen, e1)
	}
	if e1.Generation() != 1 {
		t.Errorf("engine generation = %d, want 1", e1.Generation())
	}
	if s.Swaps() != 0 {
		t.Errorf("Swaps = %d before any swap", s.Swaps())
	}
	if _, err := s.Swap(nil); err == nil {
		t.Error("Swap(nil) did not error")
	}
	if _, err := s.Swap(e1); err == nil {
		t.Error("Swap of the current engine did not error")
	}
	e2 := f.engine(t, nil)
	gen, err := s.Swap(e2)
	if err != nil {
		t.Fatal(err)
	}
	if gen != 2 || s.Generation() != 2 || e2.Generation() != 2 {
		t.Errorf("after swap: returned %d, handle %d, engine %d; want 2,2,2",
			gen, s.Generation(), e2.Generation())
	}
	if s.Engine() != e2 {
		t.Error("Engine() still returns the old engine")
	}
	if s.Swaps() != 1 {
		t.Errorf("Swaps = %d, want 1", s.Swaps())
	}
	// Generation is stamped into per-query stats.
	res, err := e2.NewWorker().Lookup(f.trace.Queries[0])
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.Generation != 2 {
		t.Errorf("QueryStats.Generation = %d, want 2", res.Stats.Generation)
	}
}

// TestSwappableTotalsMonotonic: counters and the latency histogram survive
// a swap — the retired engine's recovery work and latency samples stay in
// the View after a fresh engine (all zero) takes over, and the lookup
// counter is the histogram's count throughout.
func TestSwappableTotalsMonotonic(t *testing.T) {
	f := newFixture(t, placement.StrategyMaxEmbed, 0.4)
	e1 := f.engine(t, nil)
	e1.cfg.Device.SetFaultModel(ssd.NewInjector(ssd.InjectorConfig{Seed: 5, ReadErrorProb: 0.05}))
	s := NewSwappable(e1)
	if _, err := Run(e1, f.trace.Queries[:300], 2); err != nil {
		t.Fatal(err)
	}
	before := s.View()
	if before.Recovery.Retries == 0 || before.Recovery.Lookups != 300 || before.Latency.Count != 300 {
		t.Fatalf("fault run recorded %d lookups, %d latency samples: %+v",
			before.Recovery.Lookups, before.Latency.Count, before.Recovery)
	}
	if _, err := s.Swap(f.engine(t, nil)); err != nil {
		t.Fatal(err)
	}
	after := s.View()
	if after.Recovery != before.Recovery || after.Latency != before.Latency {
		t.Errorf("totals changed across swap with no traffic: %+v → %+v; latency %v → %v",
			before.Recovery, after.Recovery, before.Latency.Summary(), after.Latency.Summary())
	}
	if after.Engine == before.Engine || after.Generation != before.Generation+1 || after.Swaps != 1 {
		t.Errorf("view after swap: same engine %v, generation %d → %d, %d swaps",
			after.Engine == before.Engine, before.Generation, after.Generation, after.Swaps)
	}
	if after.ValidPerReadBefore <= 0 {
		t.Errorf("ValidPerReadBefore = %v after swapping out a serving engine", after.ValidPerReadBefore)
	}
	if _, err := Run(s.Engine(), f.trace.Queries[:100], 2); err != nil {
		t.Fatal(err)
	}
	final := s.View()
	if final.Recovery.Lookups != 400 || final.Latency.Count != 400 {
		t.Errorf("after 100 more: %d lookups, %d latency samples, want 400", final.Recovery.Lookups, final.Latency.Count)
	}
	want := before.Latency
	want.Add(s.Engine().Latency.Snapshot())
	if final.Latency != want {
		t.Errorf("merged latency %v, want the retired engine's plus the live one's %v", final.Latency.Summary(), want.Summary())
	}
	if final.Recovery.Retries < before.Recovery.Retries {
		t.Errorf("Retries dipped across swap: %d → %d", before.Recovery.Retries, final.Recovery.Retries)
	}
}

// TestValidPerReadNotCreditedUpFront: valid-per-read must reflect read
// outcomes, not plans — a faulty device cannot score better than a healthy
// one on the same trace. (The old accounting credited every planned page
// at planning time and never counted recovery reads, so fault runs
// *gained* valid-per-read.)
func TestValidPerReadNotCreditedUpFront(t *testing.T) {
	f := newFixture(t, placement.StrategyMaxEmbed, 0.4)

	clean := f.engine(t, nil)
	rClean, err := Run(clean, f.trace.Queries[:500], 2)
	if err != nil {
		t.Fatal(err)
	}

	faulty := f.engine(t, nil)
	faulty.cfg.Device.SetFaultModel(ssd.NewInjector(ssd.InjectorConfig{
		Seed: 5, ReadErrorProb: 0.05, TimeoutProb: 0.02, CorruptProb: 0.02,
	}))
	rFaulty, err := Run(faulty, f.trace.Queries[:500], 2)
	if err != nil {
		t.Fatal(err)
	}
	if rFaulty.Retries == 0 {
		t.Fatal("fault injection produced no recovery reads; test is vacuous")
	}
	if rFaulty.MeanValidPerRead > rClean.MeanValidPerRead {
		t.Errorf("faulty run valid/read %.3f exceeds fault-free %.3f",
			rFaulty.MeanValidPerRead, rClean.MeanValidPerRead)
	}
	// Every read — initial or recovery — contributes one histogram sample.
	if got, want := faulty.ValidPerRead.Count(), rFaulty.PagesRead+rFaulty.Retries; got != want {
		t.Errorf("ValidPerRead samples = %d, want PagesRead+Retries = %d", got, want)
	}
	if got, want := clean.ValidPerRead.Count(), rClean.PagesRead; got != want {
		t.Errorf("clean ValidPerRead samples = %d, want PagesRead = %d", got, want)
	}
}

// TestTimingOnlyMatchesStoreBacked: a timing-only engine must account the
// same useful bytes as a store-backed one over the same layout — the
// slot's 8-byte header is not embedding payload. Dimension 62 packs pages
// exactly (slot 256 B, capacity 16), so the derived payload size is exact.
func TestTimingOnlyMatchesStoreBacked(t *testing.T) {
	const dim = 62
	p := workload.Profile{
		Name: "t62", Items: 1200, Queries: 2000, MeanQueryLen: 16,
		Communities: 100, CommunityAffinity: 0.8, CommunitySpread: 0.5,
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
	capacity := embedding.PageCapacity(4096, dim)
	if capacity*embedding.SlotSize(dim) != 4096 {
		t.Fatalf("dim %d does not pack pages exactly; pick another test dimension", dim)
	}
	lay, err := placement.Build(placement.StrategyMaxEmbed, g, placement.Options{
		Capacity: capacity, ReplicationRatio: 0.4, Seed: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	syn, err := embedding.NewSynthesizer(dim, 8)
	if err != nil {
		t.Fatal(err)
	}
	st, err := store.Build(lay, syn, 4096)
	if err != nil {
		t.Fatal(err)
	}

	run := func(mutate func(*Config)) RunResult {
		t.Helper()
		dev, err := ssd.NewDevice(ssd.P5800X)
		if err != nil {
			t.Fatal(err)
		}
		cfg := Config{Layout: lay, Device: dev, Pipeline: true}
		mutate(&cfg)
		e, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		r, err := Run(e, tr.Queries[:800], 2)
		if err != nil {
			t.Fatal(err)
		}
		return r
	}
	timing := run(func(*Config) {})
	backed := run(func(c *Config) { c.Store = st })

	if timing.PagesRead != backed.PagesRead || timing.UsefulKeys != backed.UsefulKeys {
		t.Fatalf("runs diverged: timing %d pages/%d keys, store %d pages/%d keys",
			timing.PagesRead, timing.UsefulKeys, backed.PagesRead, backed.UsefulKeys)
	}
	if timing.Utilization != backed.Utilization {
		t.Errorf("Utilization: timing-only %.6f, store-backed %.6f", timing.Utilization, backed.Utilization)
	}
	if timing.EffectiveBandwidth != backed.EffectiveBandwidth {
		t.Errorf("EffectiveBandwidth: timing-only %.1f, store-backed %.1f",
			timing.EffectiveBandwidth, backed.EffectiveBandwidth)
	}
}

// TestMaxRetriesZeroAndDefault: Retries(0) disables retries outright,
// a nil MaxRetries keeps the default budget, and negatives clamp to 0.
func TestMaxRetriesZeroAndDefault(t *testing.T) {
	f := newFixture(t, placement.StrategySHP, 0)
	if e := f.engine(t, nil); e.maxRetries != DefaultMaxRetries {
		t.Errorf("nil MaxRetries: budget %d, want DefaultMaxRetries %d", e.maxRetries, DefaultMaxRetries)
	}
	if e := f.engine(t, func(c *Config) { c.MaxRetries = Retries(0) }); e.maxRetries != 0 {
		t.Errorf("Retries(0): budget %d, want 0", e.maxRetries)
	}
	if e := f.engine(t, func(c *Config) { c.MaxRetries = Retries(-3) }); e.maxRetries != 0 {
		t.Errorf("Retries(-3): budget %d, want 0", e.maxRetries)
	}
	if e := f.engine(t, func(c *Config) { c.MaxRetries = Retries(5) }); e.maxRetries != 5 {
		t.Errorf("Retries(5): budget %d, want 5", e.maxRetries)
	}
}
