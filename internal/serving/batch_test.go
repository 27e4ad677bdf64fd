package serving

import (
	"testing"

	"maxembed/internal/embedding"
	"maxembed/internal/layout"
	"maxembed/internal/placement"
	"maxembed/internal/ssd"
	"maxembed/internal/store"
)

// collectQueryResult deep-copies a scattered per-query result out of worker
// scratch (which the next lookup reuses).
func collectQueryResult(r Result) (keys []Key, vecs map[Key][]float32, failed []Key) {
	keys = append(keys, r.Keys...)
	vecs = make(map[Key][]float32, len(r.Keys))
	for i, k := range r.Keys {
		vecs[k] = r.AppendVector(i, nil)
	}
	failed = append(failed, r.FailedKeys...)
	return keys, vecs, failed
}

func TestLookupBatchScatterMatchesIsolated(t *testing.T) {
	f := newFixture(t, placement.StrategyMaxEmbed, 0.4)
	batch := f.trace.Queries[:6]

	// Batched serving on one engine, isolated serving on an identical fresh
	// one (both cacheless, so results cannot diverge through cache state).
	be := f.engine(t, nil)
	br, err := be.NewWorker().LookupBatch(batch)
	if err != nil {
		t.Fatal(err)
	}
	if len(br.PerQuery) != len(batch) {
		t.Fatalf("PerQuery = %d, want %d", len(br.PerQuery), len(batch))
	}
	gotKeys := make([][]Key, len(batch))
	gotVecs := make([]map[Key][]float32, len(batch))
	for qi := range batch {
		var failed []Key
		gotKeys[qi], gotVecs[qi], failed = collectQueryResult(br.PerQuery[qi])
		if len(failed) > 0 {
			t.Fatalf("query %d failed keys with no faults injected: %v", qi, failed)
		}
	}

	ie := f.engine(t, nil)
	iw := ie.NewWorker()
	for qi, q := range batch {
		iso, err := iw.Lookup(q)
		if err != nil {
			t.Fatal(err)
		}
		if len(gotKeys[qi]) != len(iso.Keys) {
			t.Fatalf("query %d: batched returned %d keys, isolated %d", qi, len(gotKeys[qi]), len(iso.Keys))
		}
		isoVecs := map[Key][]float32{}
		for i, k := range iso.Keys {
			isoVecs[k] = iso.AppendVector(i, nil)
		}
		for _, k := range gotKeys[qi] {
			want, ok := isoVecs[k]
			if !ok {
				t.Fatalf("query %d: batched returned key %d isolated serving did not", qi, k)
			}
			got := gotVecs[qi][k]
			if len(got) != len(want) {
				t.Fatalf("query %d key %d: dim %d vs %d", qi, k, len(got), len(want))
			}
			for j := range want {
				if got[j] != want[j] {
					t.Fatalf("query %d key %d element %d: %v != %v", qi, k, j, got[j], want[j])
				}
			}
		}
	}
}

func TestLookupBatchCrossQueryDedup(t *testing.T) {
	f := newFixture(t, placement.StrategyMaxEmbed, 0.4)
	// A batch with heavy cross-query duplication: the same queries twice.
	base := f.trace.Queries[:4]
	batch := append(append([][]Key{}, base...), base...)

	be := f.engine(t, nil)
	br, err := be.NewWorker().LookupBatch(batch)
	if err != nil {
		t.Fatal(err)
	}

	ie := f.engine(t, nil)
	iw := ie.NewWorker()
	isoPages := 0
	for _, q := range batch {
		res, err := iw.Lookup(q)
		if err != nil {
			t.Fatal(err)
		}
		isoPages += res.Stats.PagesRead
	}
	// Every key appears in ≥ 2 queries, so the combined pass must read at
	// most half the pages of isolated serving (cacheless engines).
	if got := br.Stats.Combined.PagesRead; got > isoPages/2 {
		t.Errorf("batched pass read %d pages, isolated %d — shared keys not deduped", got, isoPages)
	}
	if br.Stats.SharedKeys != br.Stats.Combined.DistinctKeys {
		t.Errorf("SharedKeys = %d, want every distinct key (%d) shared",
			br.Stats.SharedKeys, br.Stats.Combined.DistinctKeys)
	}
	if br.Stats.SharedPageReads == 0 {
		t.Error("no page reads marked shared in a fully-duplicated batch")
	}
}

func TestLookupBatchStatsAttribution(t *testing.T) {
	f := newFixture(t, placement.StrategyMaxEmbed, 0.3)
	batch := f.trace.Queries[:8]
	e := f.engine(t, nil)
	br, err := e.NewWorker().LookupBatch(batch)
	if err != nil {
		t.Fatal(err)
	}
	var shareSum float64
	for qi, r := range br.PerQuery {
		st := r.Stats
		if st.BatchSize != len(batch) {
			t.Errorf("query %d BatchSize = %d, want %d", qi, st.BatchSize, len(batch))
		}
		if st.Keys != len(batch[qi]) {
			t.Errorf("query %d Keys = %d, want %d", qi, st.Keys, len(batch[qi]))
		}
		if got := st.LatencyNS(); got != br.Stats.LatencyNS() {
			t.Errorf("query %d latency %d != batch latency %d (completes with the batch)",
				qi, got, br.Stats.LatencyNS())
		}
		if st.PagesRead < 1 || st.PagesRead > br.Stats.Combined.PagesRead {
			t.Errorf("query %d PagesRead = %d outside [1, %d]", qi, st.PagesRead, br.Stats.Combined.PagesRead)
		}
		if st.PageShare <= 0 || st.PageShare > float64(st.PagesRead) {
			t.Errorf("query %d PageShare = %v outside (0, %d]", qi, st.PageShare, st.PagesRead)
		}
		shareSum += st.PageShare
	}
	// Fractional shares apportion the combined pass exactly: they sum back
	// to the batch's page-read total (modulo float rounding).
	if tot := float64(br.Stats.Combined.PagesRead); shareSum < tot-1e-6 || shareSum > tot+1e-6 {
		t.Errorf("PageShare sum = %v, want %v", shareSum, tot)
	}
}

func TestLookupBatchFailedKeyAttribution(t *testing.T) {
	// Unreplicated layout + recovery disabled: every injected fault degrades
	// immediately, so its page's keys must surface in FailedKeys — of
	// exactly the queries that asked for them.
	f := newFixture(t, placement.StrategySHP, 0)
	e := f.engine(t, func(c *Config) { c.MaxRetries = Retries(0) })
	e.cfg.Device.SetFaultInjector(ssd.FailEveryN(3))

	batch := f.trace.Queries[:6]
	br, err := e.NewWorker().LookupBatch(batch)
	if err != nil {
		t.Fatal(err)
	}
	if br.Stats.Combined.FailedKeys == 0 {
		t.Fatal("no failed keys despite injected faults and disabled recovery")
	}
	degradedBefore := e.Recovery.DegradedQueries.Load()
	failedDistinct := map[Key]bool{}
	degraded := 0
	for qi, r := range br.PerQuery {
		asked := map[Key]bool{}
		for _, k := range batch[qi] {
			asked[k] = true
		}
		for _, k := range r.FailedKeys {
			if !asked[k] {
				t.Errorf("query %d charged failed key %d it never asked for", qi, k)
			}
			failedDistinct[k] = true
		}
		for _, k := range r.Keys {
			for _, fk := range r.FailedKeys {
				if k == fk {
					t.Errorf("query %d key %d both served and failed", qi, k)
				}
			}
		}
		if got := len(r.FailedKeys); got != r.Stats.FailedKeys {
			t.Errorf("query %d FailedKeys stat %d != slice len %d", qi, r.Stats.FailedKeys, got)
		}
		if r.Stats.Degraded != (len(r.FailedKeys) > 0) {
			t.Errorf("query %d Degraded = %v with %d failed keys", qi, r.Stats.Degraded, len(r.FailedKeys))
		}
		if r.Stats.Degraded {
			degraded++
		}
		// Accounting closes: served + failed covers the query's distinct set.
		if len(r.Keys)+len(r.FailedKeys) != r.Stats.DistinctKeys {
			t.Errorf("query %d: %d served + %d failed != %d distinct",
				qi, len(r.Keys), len(r.FailedKeys), r.Stats.DistinctKeys)
		}
	}
	if len(failedDistinct) != br.Stats.Combined.FailedKeys {
		t.Errorf("distinct failed keys across queries = %d, combined pass reported %d",
			len(failedDistinct), br.Stats.Combined.FailedKeys)
	}
	if degraded == 0 {
		t.Error("failed keys attributed to no query")
	}
	// Engine counters count degraded member queries, not batches.
	if got := degradedBefore; got != int64(degraded) {
		t.Errorf("DegradedQueries counter = %d, want %d", got, degraded)
	}
}

// TestLookupBatchSharedFailedPageApportionment is the regression test for
// fault-path scatter accounting on a *shared* failed page (fault-path
// attribution has regressed before): two of three batched queries share a
// page whose every read fails, with recovery disabled and no replicas, so
// the page's keys hard-fail for every sharer. The failed read must still
// be apportioned once per sharer (PagesRead counts it once each, PageShare
// splits it), each sharer's FailedKeys must list exactly its own keys of
// the page, and no count may leak to the query that never touched it.
func TestLookupBatchSharedFailedPageApportionment(t *testing.T) {
	f := newFixture(t, placement.StrategySHP, 0)
	e := f.engine(t, func(c *Config) { c.MaxRetries = Retries(0) })

	// A home page holding at least two keys, plus three private keys on
	// three further distinct pages.
	var deadPage layout.PageID
	found := false
	for p, keys := range f.lay.Pages {
		if len(keys) >= 2 {
			deadPage, found = layout.PageID(p), true
			break
		}
	}
	if !found {
		t.Fatal("fixture has no page with two keys")
	}
	k1, k2 := Key(f.lay.Pages[deadPage][0]), Key(f.lay.Pages[deadPage][1])
	taken := map[layout.PageID]bool{deadPage: true}
	var priv []Key
	for k := 0; k < f.lay.NumKeys && len(priv) < 3; k++ {
		if home := f.lay.Home[k]; !taken[home] {
			taken[home] = true
			priv = append(priv, Key(k))
		}
	}
	if len(priv) != 3 {
		t.Fatal("fixture too small for three private pages")
	}
	e.cfg.Device.SetFaultModel(pageFaultModel{
		faults: map[ssd.PageID]ssd.Fault{deadPage: {Err: ssd.ErrReadFailed}},
	})

	batch := [][]Key{
		{k1, priv[0]},     // shares the dead page via k1
		{k1, k2, priv[1]}, // shares it via both keys
		{priv[2]},         // never touches it
	}
	br, err := e.NewWorker().LookupBatch(batch)
	if err != nil {
		t.Fatal(err)
	}
	if got := br.Stats.Combined.FailedKeys; got != 2 {
		t.Fatalf("combined FailedKeys = %d, want 2 (k1, k2 once each, not once per sharer)", got)
	}
	if got := br.Stats.Combined.PagesRead; got != 4 {
		t.Fatalf("combined PagesRead = %d, want 4 (dead page + three private pages)", got)
	}

	type want struct {
		pages, failed, useful int
		share                 float64
		failedKeys            []Key
	}
	// The dead page is shared by queries 0 and 1, so each is charged the
	// read once and half its share; query 2's accounting must be untouched.
	wants := []want{
		{pages: 2, failed: 1, useful: 1, share: 1.5, failedKeys: []Key{k1}},
		{pages: 2, failed: 2, useful: 1, share: 1.5, failedKeys: []Key{k1, k2}},
		{pages: 1, failed: 0, useful: 1, share: 1.0, failedKeys: nil},
	}
	var shareSum float64
	for qi, r := range br.PerQuery {
		st, wq := r.Stats, wants[qi]
		if st.PagesRead != wq.pages {
			t.Errorf("query %d PagesRead = %d, want %d", qi, st.PagesRead, wq.pages)
		}
		if st.FailedKeys != wq.failed || len(r.FailedKeys) != wq.failed {
			t.Errorf("query %d FailedKeys = %d (slice %d), want %d",
				qi, st.FailedKeys, len(r.FailedKeys), wq.failed)
		}
		for i, k := range wq.failedKeys {
			if r.FailedKeys[i] != k {
				t.Errorf("query %d FailedKeys[%d] = %d, want %d", qi, i, r.FailedKeys[i], k)
			}
		}
		if st.UsefulFromSSD != wq.useful {
			t.Errorf("query %d UsefulFromSSD = %d, want %d", qi, st.UsefulFromSSD, wq.useful)
		}
		if st.PageShare < wq.share-1e-9 || st.PageShare > wq.share+1e-9 {
			t.Errorf("query %d PageShare = %v, want %v", qi, st.PageShare, wq.share)
		}
		// One-shard backend: the busiest-shard depth is the page count.
		if st.MaxShardDepth != st.PagesRead {
			t.Errorf("query %d MaxShardDepth = %d, want PagesRead %d on one shard",
				qi, st.MaxShardDepth, st.PagesRead)
		}
		shareSum += st.PageShare
	}
	if tot := float64(br.Stats.Combined.PagesRead); shareSum < tot-1e-9 || shareSum > tot+1e-9 {
		t.Errorf("PageShare sum = %v, want combined PagesRead %v", shareSum, tot)
	}
	if got := e.SpreadDepth.Count(); got != int64(len(batch)) {
		t.Errorf("SpreadDepth recorded %d samples, want one per member query (%d)", got, len(batch))
	}
}

// TestLookupBatchStoreFallbackAttribution is the regression test for
// store-fallback scatter accounting: a shared key whose only replica sits
// on a declared-dead shard is rerouted to host-store read-through, and the
// per-query stats must account it as a StoreFallback — not as an SSD-served
// key — exactly as the combined pass does. Before the fix, each sharer's
// UsefulFromSSD silently counted the fallback key as if it had crossed the
// device.
func TestLookupBatchStoreFallbackAttribution(t *testing.T) {
	capacity := embedding.PageCapacity(4096, testDim)
	lay := layout.Vanilla(2*capacity, capacity) // page 0 → shard 0, page 1 → shard 1
	syn, err := embedding.NewSynthesizer(testDim, 8)
	if err != nil {
		t.Fatal(err)
	}
	sh, err := store.BuildSharded(lay, syn, 4096, 2)
	if err != nil {
		t.Fatal(err)
	}
	arr := mustTestArray(t, ssd.P5800X, 2)
	arr.SetShardFaultModel(0, deadShardModel{})
	arr.FailShard(0)
	e, err := New(Config{Layout: lay, Backend: arr, Store: sh, Pipeline: true})
	if err != nil {
		t.Fatal(err)
	}

	// Key 0 lives only on dead shard 0 (no replica): both queries need it
	// and it can only come from the host store. Keys b0/b1 are private and
	// served by one shared read of live page 1.
	shared := Key(0)
	b0, b1 := Key(capacity), Key(capacity+1)
	batch := [][]Key{{shared, b0}, {shared, b1}}
	br, err := e.NewWorker().LookupBatch(batch)
	if err != nil {
		t.Fatal(err)
	}
	cb := br.Stats.Combined
	if cb.StoreFallbacks != 1 || cb.UsefulFromSSD != 2 || cb.PagesRead != 1 {
		t.Fatalf("combined fallbacks/useful/pages = %d/%d/%d, want 1/2/1: %+v",
			cb.StoreFallbacks, cb.UsefulFromSSD, cb.PagesRead, cb)
	}
	var want []float32
	for qi, r := range br.PerQuery {
		st := r.Stats
		if st.Degraded || st.FailedKeys != 0 {
			t.Fatalf("query %d degraded despite store fallback: %+v", qi, st)
		}
		if st.StoreFallbacks != 1 {
			t.Errorf("query %d StoreFallbacks = %d, want 1", qi, st.StoreFallbacks)
		}
		if st.UsefulFromSSD != 1 {
			t.Errorf("query %d UsefulFromSSD = %d, want 1 (fallback key is not SSD-served)",
				qi, st.UsefulFromSSD)
		}
		if st.PagesRead != 1 || st.MaxShardDepth != 1 {
			t.Errorf("query %d pages/depth = %d/%d, want 1/1", qi, st.PagesRead, st.MaxShardDepth)
		}
		if st.PageShare < 0.5-1e-9 || st.PageShare > 0.5+1e-9 {
			t.Errorf("query %d PageShare = %v, want 0.5 (page 1 shared)", qi, st.PageShare)
		}
		// Both keys still arrive byte-correct.
		if len(r.Keys) != 2 {
			t.Fatalf("query %d served %d keys, want 2", qi, len(r.Keys))
		}
		for i, k := range r.Keys {
			want = syn.Vector(k, want[:0])
			for j := range want {
				if r.Refs[i].Float32(j) != want[j] {
					t.Fatalf("query %d key %d: wrong vector via fallback path", qi, k)
				}
			}
		}
	}
}

func TestLookupBatchDegenerateSizes(t *testing.T) {
	f := newFixture(t, placement.StrategyMaxEmbed, 0.2)
	e := f.engine(t, nil)
	w := e.NewWorker()
	br, err := w.LookupBatch(nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(br.PerQuery) != 0 || br.Stats.Queries != 0 {
		t.Errorf("empty batch returned %+v", br.Stats)
	}
	// A batch of one behaves exactly like Lookup.
	q := f.trace.Queries[0]
	br, err = w.LookupBatch([][]Key{q})
	if err != nil {
		t.Fatal(err)
	}
	if len(br.PerQuery) != 1 {
		t.Fatalf("PerQuery = %d", len(br.PerQuery))
	}
	if st := br.PerQuery[0].Stats; st.BatchSize != 1 || st.PageShare != float64(st.PagesRead) {
		t.Errorf("singleton batch stats %+v not equivalent to isolated Lookup", st)
	}
}

func TestRunBatchedMonotonicGains(t *testing.T) {
	// §8.2: widening the per-pass key set monotonically raises valid
	// embeddings per read and effective bandwidth on a replicated layout.
	f := newFixture(t, placement.StrategyMaxEmbed, 0.4)
	queries := f.trace.Queries[:800]

	var prev RunResult
	sizes := []int{1, 4, 16}
	results := make([]RunResult, len(sizes))
	for i, b := range sizes {
		r, err := RunBatched(f.engine(t, nil), queries, b, 2)
		if err != nil {
			t.Fatal(err)
		}
		results[i] = r
		if r.Queries != int64(len(queries)) {
			t.Fatalf("B=%d served %d queries, want %d", b, r.Queries, len(queries))
		}
		if i > 0 {
			if r.MeanValidPerRead < prev.MeanValidPerRead {
				t.Errorf("B=%d MeanValidPerRead %.3f < B=%d's %.3f",
					b, r.MeanValidPerRead, sizes[i-1], prev.MeanValidPerRead)
			}
			if r.PagesRead > prev.PagesRead {
				t.Errorf("B=%d read %d pages > B=%d's %d", b, r.PagesRead, sizes[i-1], prev.PagesRead)
			}
		}
		prev = r
	}
	first, last := results[0], results[len(results)-1]
	if last.MeanValidPerRead <= first.MeanValidPerRead {
		t.Errorf("no end-to-end valid-per-read gain: B=1 %.3f, B=16 %.3f",
			first.MeanValidPerRead, last.MeanValidPerRead)
	}
	if last.EffectiveBandwidth <= first.EffectiveBandwidth {
		t.Errorf("no end-to-end bandwidth gain: B=1 %.3e, B=16 %.3e",
			first.EffectiveBandwidth, last.EffectiveBandwidth)
	}
	if last.SharedKeys == 0 || last.SharedPageReads == 0 {
		t.Errorf("B=16 recorded no sharing: %d shared keys, %d shared reads",
			last.SharedKeys, last.SharedPageReads)
	}
}

func TestLookupBatchRecordsPerQueryHistory(t *testing.T) {
	f := newFixture(t, placement.StrategySHP, 0)
	rec := NewHistoryRecorder(64)
	e := f.engine(t, func(c *Config) { c.Recorder = rec })
	batch := f.trace.Queries[:5]
	if _, err := e.NewWorker().LookupBatch(batch); err != nil {
		t.Fatal(err)
	}
	// The recorder must see the true per-query key sets — not the batch
	// union — so Refresh learns real co-appearance, not batching artifacts.
	if rec.Total() != int64(len(batch)) {
		t.Fatalf("recorded %d queries, want %d", rec.Total(), len(batch))
	}
	snap := rec.Snapshot()
	for qi, q := range batch {
		distinct := map[Key]bool{}
		for _, k := range q {
			distinct[k] = true
		}
		if len(snap[qi]) != len(distinct) {
			t.Errorf("recorded query %d has %d keys, want %d", qi, len(snap[qi]), len(distinct))
		}
	}
}
