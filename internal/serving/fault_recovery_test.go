package serving

import (
	"strings"
	"testing"

	"maxembed/internal/layout"
	"maxembed/internal/placement"
	"maxembed/internal/ssd"
	"maxembed/internal/store"
)

// pageFaultModel injects a fixed, persistent fault on selected pages:
// every read of a listed page fails the same way, which models a dead
// block/channel rather than a transient error — re-reads never help, only
// a replica rescue (or degradation) can.
type pageFaultModel struct {
	faults map[ssd.PageID]ssd.Fault
}

func (m pageFaultModel) Judge(_ int64, p ssd.PageID) ssd.Fault { return m.faults[p] }

// replicatedKey returns a key with at least two candidate pages, plus its
// candidates.
func replicatedKey(t *testing.T, e *Engine) (Key, []layout.PageID) {
	t.Helper()
	for k := 0; k < 1500; k++ {
		if cands := e.Index().Candidates(Key(k)); len(cands) >= 2 {
			return Key(k), cands
		}
	}
	t.Fatal("fixture has no replicated key")
	return 0, nil
}

// TestFaultRecoveryTable drives each fault class through the recovery
// path, with and without a replica to rescue from, and checks the cache
// interaction after the failure.
func TestFaultRecoveryTable(t *testing.T) {
	cases := []struct {
		name  string
		fault ssd.Fault
	}{
		{"read-error", ssd.Fault{Err: ssd.ErrReadFailed}},
		{"timeout", ssd.Fault{Err: ssd.ErrTimeout, ExtraLatencyNS: 1e6}},
		{"corruption", ssd.Fault{Corrupt: true}},
	}

	t.Run("replica-available", func(t *testing.T) {
		f := newFixture(t, placement.StrategyMaxEmbed, 0.4)
		for _, tc := range cases {
			t.Run(tc.name, func(t *testing.T) {
				e := f.engine(t, func(c *Config) { c.CacheEntries = 64 })
				k, cands := replicatedKey(t, e)
				// Break every candidate page except the last so the
				// initial read faults no matter which candidate selection
				// picked, and exactly one rescue target remains.
				m := pageFaultModel{faults: map[ssd.PageID]ssd.Fault{}}
				for _, p := range cands[:len(cands)-1] {
					m.faults[p] = tc.fault
				}
				e.cfg.Device.SetFaultModel(m)
				w := e.NewWorker()
				res, err := w.Lookup([]Key{k})
				if err != nil {
					t.Fatalf("lookup errored instead of recovering: %v", err)
				}
				st := res.Stats
				if st.ReadFaults == 0 {
					t.Fatal("no fault observed; test targeted the wrong page")
				}
				if st.Degraded || len(res.FailedKeys) != 0 {
					t.Fatalf("degraded despite replica: %+v", st)
				}
				if st.ReplicaRescues != 1 {
					t.Errorf("ReplicaRescues = %d, want 1", st.ReplicaRescues)
				}
				if st.Retries == 0 {
					t.Error("no recovery read issued")
				}
				if tc.fault.Corrupt && st.Corruptions == 0 {
					t.Error("corruption not detected by checksum")
				}
				if len(res.Keys) != 1 || res.Keys[0] != k {
					t.Fatalf("result keys = %v, want [%d]", res.Keys, k)
				}
				want := f.syn.Vector(k, nil)
				for j := range want {
					if res.Refs[0].Float32(j) != want[j] {
						t.Fatal("rescued vector is wrong")
					}
				}
				// The rescued key was cached: the next lookup is served
				// from DRAM, touching no (still-broken) pages.
				res2, err := w.Lookup([]Key{k})
				if err != nil {
					t.Fatal(err)
				}
				if res2.Stats.CacheHits != 1 || res2.Stats.PagesRead != 0 {
					t.Errorf("post-recovery lookup: hits=%d pages=%d, want cache hit with no reads",
						res2.Stats.CacheHits, res2.Stats.PagesRead)
				}
			})
		}
	})

	t.Run("no-replica", func(t *testing.T) {
		f := newFixture(t, placement.StrategySHP, 0)
		for _, tc := range cases {
			t.Run(tc.name, func(t *testing.T) {
				e := f.engine(t, func(c *Config) { c.CacheEntries = 64 })
				k := Key(9)
				cands := e.Index().Candidates(k)
				if len(cands) != 1 {
					t.Fatalf("expected a single candidate page, got %v", cands)
				}
				m := pageFaultModel{faults: map[ssd.PageID]ssd.Fault{cands[0]: tc.fault}}
				e.cfg.Device.SetFaultModel(m)
				w := e.NewWorker()
				res, err := w.Lookup([]Key{k})
				if err != nil {
					t.Fatalf("lookup errored instead of degrading: %v", err)
				}
				st := res.Stats
				if !st.Degraded || st.FailedKeys != 1 {
					t.Fatalf("expected degraded partial result, got %+v", st)
				}
				if len(res.FailedKeys) != 1 || res.FailedKeys[0] != k {
					t.Fatalf("FailedKeys = %v, want [%d]", res.FailedKeys, k)
				}
				for _, rk := range res.Keys {
					if rk == k {
						t.Fatal("failed key also present in served keys")
					}
				}
				if st.Retries == 0 {
					t.Error("engine degraded without re-reading first")
				}
				// A failed key must not be cached: the next lookup tries
				// the device again (and fails again while the fault holds).
				res2, err := w.Lookup([]Key{k})
				if err != nil {
					t.Fatal(err)
				}
				if res2.Stats.CacheHits != 0 {
					t.Error("failed key was served from cache")
				}
				if !res2.Stats.Degraded {
					t.Error("persistent fault stopped degrading on retry lookup")
				}
			})
		}
	})
}

// TestMultiKeyPartialResult: a query whose keys span healthy and broken
// pages returns the healthy ones with correct vectors and lists only the
// broken page's keys as failed.
func TestMultiKeyPartialResult(t *testing.T) {
	f := newFixture(t, placement.StrategySHP, 0)
	e := f.engine(t, nil)
	w := e.NewWorker()
	q := f.trace.Queries[0]
	base, err := w.Lookup(q)
	if err != nil {
		t.Fatal(err)
	}
	if base.Stats.PagesRead < 2 {
		t.Skip("query covered by a single page; cannot split healthy/broken")
	}
	// Break the home page of the first queried key only.
	broken := e.Index().Candidates(q[0])[0]
	e.cfg.Device.SetFaultModel(pageFaultModel{
		faults: map[ssd.PageID]ssd.Fault{broken: {Err: ssd.ErrReadFailed}},
	})
	res, err := w.Lookup(q)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Stats.Degraded || len(res.FailedKeys) == 0 {
		t.Fatal("expected a partial result")
	}
	if len(res.Keys)+len(res.FailedKeys) != base.Stats.DistinctKeys {
		t.Errorf("served %d + failed %d ≠ distinct %d",
			len(res.Keys), len(res.FailedKeys), base.Stats.DistinctKeys)
	}
	var want []float32
	for i, k := range res.Keys {
		want = f.syn.Vector(k, want[:0])
		for j := range want {
			if res.Refs[i].Float32(j) != want[j] {
				t.Fatalf("healthy key %d has wrong vector in partial result", k)
			}
		}
	}
}

// TestNoRetriesDegradesImmediately covers the explicit zero-retries
// configuration: every fault degrades without recovery reads.
func TestNoRetriesDegradesImmediately(t *testing.T) {
	f := newFixture(t, placement.StrategySHP, 0)
	e := f.engine(t, func(c *Config) { c.MaxRetries = Retries(0) })
	e.cfg.Device.SetFaultModel(ssd.NewInjector(ssd.InjectorConfig{Seed: 5, ReadErrorProb: 0.05}))
	r, err := Run(e, f.trace.Queries[:300], 2)
	if err != nil {
		t.Fatal(err)
	}
	if r.Retries != 0 {
		t.Errorf("Retries = %d with retries disabled", r.Retries)
	}
	if r.DegradedQueries == 0 || r.FailedKeys == 0 {
		t.Errorf("no degradation recorded: %+v", r)
	}
}

// TestRetryBudgetCapsRecoveryReads: with a one-read budget, at most one
// recovery read is issued per query no matter how many pages fault.
func TestRetryBudgetCapsRecoveryReads(t *testing.T) {
	f := newFixture(t, placement.StrategySHP, 0)
	e := f.engine(t, func(c *Config) { c.RetryBudget = 1; c.MaxRetries = Retries(5) })
	e.cfg.Device.SetFaultModel(ssd.NewInjector(ssd.InjectorConfig{Seed: 5, ReadErrorProb: 0.2}))
	w := e.NewWorker()
	for i := 0; i < 100; i++ {
		res, err := w.Lookup(f.trace.Queries[i])
		if err != nil {
			t.Fatal(err)
		}
		if res.Stats.Retries > 1 {
			t.Fatalf("query %d issued %d recovery reads over budget 1", i, res.Stats.Retries)
		}
	}
}

// TestRecoveryUnderInjectedErrors is the end-to-end acceptance run: a 1%
// fault mix (errors, stuck commands, corruption) against a replicated
// layout completes every query with zero failed keys, and the engine's
// counters account for every injected fault.
func TestRecoveryUnderInjectedErrors(t *testing.T) {
	f := newFixture(t, placement.StrategyMaxEmbed, 0.4)
	e := f.engine(t, nil)
	e.cfg.Device.SetFaultModel(ssd.NewInjector(ssd.InjectorConfig{
		Seed:          42,
		ReadErrorProb: 0.005,
		TimeoutProb:   0.002,
		CorruptProb:   0.003,
	}))
	r, err := Run(e, f.trace.Queries[:1000], 4)
	if err != nil {
		t.Fatal(err)
	}
	ds := e.cfg.Device.Stats()
	if ds.Faults() == 0 {
		t.Fatal("no faults injected; acceptance run is vacuous")
	}
	if r.FailedKeys != 0 || r.DegradedQueries != 0 {
		t.Fatalf("replicated run failed %d keys over %d degraded queries; want full recovery",
			r.FailedKeys, r.DegradedQueries)
	}
	// Every injected fault is accounted for: each failed completion was
	// observed by the engine, and each corrupt payload was detected by a
	// checksum.
	if got := e.Recovery.ReadErrors.Load(); got != ds.Errors {
		t.Errorf("engine observed %d read errors, device injected %d", got, ds.Errors)
	}
	if got := e.Recovery.Timeouts.Load(); got != ds.Timeouts {
		t.Errorf("engine observed %d timeouts, device injected %d", got, ds.Timeouts)
	}
	if got := e.Recovery.Corruptions.Load(); got != ds.Corruptions {
		t.Errorf("engine detected %d corruptions, device injected %d", got, ds.Corruptions)
	}
	if r.Retries == 0 || e.Recovery.RecoveredKeys.Load() == 0 {
		t.Errorf("no recovery activity recorded: retries=%d recovered=%d",
			r.Retries, e.Recovery.RecoveredKeys.Load())
	}
	if r.ReplicaRescues == 0 {
		t.Error("no replica rescues despite a replicated layout")
	}
	if r.Corruptions != ds.Corruptions {
		t.Errorf("RunResult.Corruptions = %d, device injected %d", r.Corruptions, ds.Corruptions)
	}

	// Served vectors are still correct under faults.
	w := e.NewWorker()
	var want []float32
	for qi := 1000; qi < 1050; qi++ {
		res, err := w.Lookup(f.trace.Queries[qi])
		if err != nil {
			t.Fatal(err)
		}
		for i, k := range res.Keys {
			want = f.syn.Vector(k, want[:0])
			for j := range want {
				if res.Refs[i].Float32(j) != want[j] {
					t.Fatalf("query %d key %d: wrong vector under fault injection", qi, k)
				}
			}
		}
	}
}

// TestFaultScheduleDeterministic: identically-seeded runs produce
// identical results, fault schedule included.
func TestFaultScheduleDeterministic(t *testing.T) {
	f := newFixture(t, placement.StrategyMaxEmbed, 0.2)
	run := func() RunResult {
		e := f.engine(t, nil)
		e.cfg.Device.SetFaultModel(ssd.NewInjector(ssd.InjectorConfig{
			Seed: 11, ReadErrorProb: 0.01, TimeoutProb: 0.005, CorruptProb: 0.01, SpikeProb: 0.02,
		}))
		r, err := Run(e, f.trace.Queries[:300], 3)
		if err != nil {
			t.Fatal(err)
		}
		return r
	}
	a, b := run(), run()
	if a != b {
		t.Errorf("identically-seeded fault runs differ:\n%+v\n%+v", a, b)
	}
	if a.Retries == 0 {
		t.Error("determinism run injected no recoverable faults")
	}
}

func TestTypedNilStoreRejected(t *testing.T) {
	f := newFixture(t, placement.StrategySHP, 0)
	dev, err := ssd.NewDevice(ssd.P5800X)
	if err != nil {
		t.Fatal(err)
	}
	var nilStore *store.Store
	_, err = New(Config{Layout: f.lay, Device: dev, Store: nilStore})
	if err == nil {
		t.Fatal("typed-nil PageSource accepted")
	}
	if got := err.Error(); !strings.Contains(got, "typed-nil") {
		t.Errorf("error does not explain the typed-nil: %v", err)
	}
	// Same for a typed-nil *FileStore.
	var nilFS *store.FileStore
	if _, err := New(Config{Layout: f.lay, Device: dev, Store: nilFS}); err == nil {
		t.Fatal("typed-nil *FileStore accepted")
	}
}

func TestStorePageSizeMismatchRejected(t *testing.T) {
	f := newFixture(t, placement.StrategySHP, 0)
	prof := ssd.P5800X
	prof.PageSize = 8192
	dev, err := ssd.NewDevice(prof)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := New(Config{Layout: f.lay, Device: dev, Store: f.store}); err == nil {
		t.Fatal("page-size mismatch accepted")
	}
}

// TestCorruptStoreDetected: real (non-injected) bit rot in the store is
// caught by the same checksum path and recovered like injected corruption.
func TestCorruptStoreDetected(t *testing.T) {
	f := newFixture(t, placement.StrategySHP, 0)
	e := f.engine(t, nil)
	k := Key(3)
	home := e.Index().Candidates(k)[0]
	img, err := f.store.Page(home)
	if err != nil {
		t.Fatal(err)
	}
	// Damage the page in place (test-only: Page aliases store memory).
	img[10] ^= 0xFF
	defer func() { img[10] ^= 0xFF }()
	w := e.NewWorker()
	res, err := w.Lookup([]Key{k})
	if err != nil {
		t.Fatalf("corrupt store page errored the lookup: %v", err)
	}
	// Without replicas and with the damage persistent, the key degrades —
	// but the query itself completes and the corruption is counted.
	if !res.Stats.Degraded {
		t.Fatal("persistent store corruption did not degrade the key")
	}
	if res.Stats.Corruptions == 0 {
		t.Error("checksum did not flag the damaged slot")
	}
	if e.Recovery.Corruptions.Load() == 0 {
		t.Error("engine corruption counter not incremented")
	}
}
