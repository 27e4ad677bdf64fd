package serving

import (
	"context"
	"testing"

	"maxembed/internal/embedding"
	"maxembed/internal/layout"
	"maxembed/internal/ssd"
	"maxembed/internal/store"
)

// TestSelectionAvoidsFailedShard: once a shard is declared failed, the
// health-aware tie-break steers selection to live replicas and no read is
// ever issued to the dead drive — zero faults, zero reactive rescues.
func TestSelectionAvoidsFailedShard(t *testing.T) {
	lay, sh, syn := shardedFixture(t)
	arr := mustTestArray(t, ssd.P5800X, 2)
	arr.SetShardFaultModel(0, deadShardModel{})
	arr.FailShard(0)
	e, err := New(Config{Layout: lay, Backend: arr, Store: sh, Pipeline: true})
	if err != nil {
		t.Fatal(err)
	}
	w := e.NewWorker()
	var want []float32
	for k := 0; k < lay.NumKeys; k++ {
		res, err := w.Lookup([]Key{Key(k)})
		if err != nil {
			t.Fatal(err)
		}
		if res.Stats.ReadFaults != 0 || res.Stats.Degraded {
			t.Fatalf("key %d faulted despite health-aware selection: %+v", k, res.Stats)
		}
		if res.Stats.ReplicaRescues != 0 {
			t.Fatalf("key %d took the reactive rescue path: %+v", k, res.Stats)
		}
		want = syn.Vector(Key(k), want[:0])
		for j := range want {
			if res.Refs[0].Float32(j) != want[j] {
				t.Fatalf("key %d: wrong vector via reroute", k)
			}
		}
	}
	if got := arr.Shard(0).Stats().Reads; got != 0 {
		t.Fatalf("failed shard still saw %d reads", got)
	}
	if got := e.Recovery.ReadErrors.Load(); got != 0 {
		t.Fatalf("ReadErrors = %d, want 0 (avoidance is proactive)", got)
	}
}

// TestReroutePlanSplitsDeadPage forces selection to pick a dead-shard page
// on coverage (its replicas each hold a single key, so there is no tie to
// break) and checks the pre-submit reroute splits the read across the
// per-key live replicas instead.
func TestReroutePlanSplitsDeadPage(t *testing.T) {
	capacity := embedding.PageCapacity(4096, testDim)
	lay := layout.Vanilla(4*capacity, capacity) // pages 0..3: shards 0,1,0,1
	span := func(lo, hi int) []layout.Key {
		keys := make([]layout.Key, 0, hi-lo)
		for k := lo; k < hi; k++ {
			keys = append(keys, layout.Key(k))
		}
		return keys
	}
	// Pages append sequentially, alternating shards: 4 (shard 0) filler,
	// 5 (shard 1) replica of key 0 alone, 6 (shard 0) filler, 7 (shard 1)
	// replica of key 1 alone.
	for _, r := range [][]layout.Key{span(2*capacity, 3*capacity), {0}, span(3*capacity, 4*capacity), {1}} {
		if _, err := lay.AddReplicaPage(r); err != nil {
			t.Fatal(err)
		}
	}
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
	w := e.NewWorker()
	// Home page 0 (dead shard) covers both keys and wins selection; the
	// reroute must then split onto single-key replica pages 5 and 7.
	res, err := w.Lookup([]Key{0, 1})
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.Degraded || res.Stats.ReadFaults != 0 {
		t.Fatalf("rerouted lookup faulted: %+v", res.Stats)
	}
	if res.Stats.ShardReroutes != 2 {
		t.Fatalf("ShardReroutes = %d, want 2", res.Stats.ShardReroutes)
	}
	if res.Stats.PagesRead != 2 {
		t.Fatalf("PagesRead = %d, want 2 (one per replica)", res.Stats.PagesRead)
	}
	if got := arr.Shard(0).Stats().Reads; got != 0 {
		t.Fatalf("failed shard saw %d reads", got)
	}
	var want []float32
	for i, k := range res.Keys {
		want = syn.Vector(k, want[:0])
		for j := range want {
			if res.Refs[i].Float32(j) != want[j] {
				t.Fatalf("key %d: wrong vector after reroute", k)
			}
		}
	}
	if got := e.Recovery.ShardReroutes.Load(); got != 2 {
		t.Fatalf("engine ShardReroutes = %d, want 2", got)
	}
}

// TestStoreFallbackServesUnreplicatedKeys: with no replicas at all, keys
// on a failed shard are served by host-store read-through instead of
// hard-failing.
func TestStoreFallbackServesUnreplicatedKeys(t *testing.T) {
	capacity := embedding.PageCapacity(4096, testDim)
	lay := layout.Vanilla(4*capacity, capacity) // pages 0..3, no replicas
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
	w := e.NewWorker()
	// Key 0 lives on page 0 → shard 0, no replica anywhere.
	res, err := w.Lookup([]Key{0, Key(capacity)}) // shard 0 and shard 1 keys
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.Degraded || len(res.FailedKeys) != 0 {
		t.Fatalf("lookup hard-failed despite store fallback: %+v", res.Stats)
	}
	if res.Stats.StoreFallbacks != 1 {
		t.Fatalf("StoreFallbacks = %d, want 1", res.Stats.StoreFallbacks)
	}
	if got := arr.Shard(0).Stats().Reads; got != 0 {
		t.Fatalf("failed shard saw %d reads", got)
	}
	var want []float32
	for i, k := range res.Keys {
		want = syn.Vector(k, want[:0])
		for j := range want {
			if res.Refs[i].Float32(j) != want[j] {
				t.Fatalf("key %d: wrong vector", k)
			}
		}
	}
	if got := e.Recovery.StoreFallbacks.Load(); got != 1 {
		t.Fatalf("engine StoreFallbacks counter = %d, want 1", got)
	}
}

// TestLookupCtxCancelStopsRetries: a cancelled context makes the recovery
// loop degrade immediately instead of issuing retries.
func TestLookupCtxCancelStopsRetries(t *testing.T) {
	lay, sh, _ := shardedFixture(t)
	arr := mustTestArray(t, ssd.P5800X, 2)
	// Shard 0 faults but is NOT declared failed: every read onto it takes
	// the reactive recovery path.
	arr.SetShardFaultModel(0, deadShardModel{})
	e, err := New(Config{Layout: lay, Backend: arr, Store: sh, Pipeline: true})
	if err != nil {
		t.Fatal(err)
	}

	// Baseline: with a live context the key is rescued via a retry.
	w := e.NewWorker()
	res, err := w.LookupCtx(context.Background(), []Key{0})
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.Degraded || res.Stats.Retries == 0 {
		t.Fatalf("baseline did not exercise recovery: %+v", res.Stats)
	}

	// Cancelled context: the same faulting lookup gives up without
	// spending a single retry. (Shard health may have accumulated faults;
	// rebuild the array fresh so the proactive reroute stays out of play.)
	arr2 := mustTestArray(t, ssd.P5800X, 2)
	arr2.SetShardFaultModel(0, deadShardModel{})
	e2, err := New(Config{Layout: lay, Backend: arr2, Store: sh, Pipeline: true})
	if err != nil {
		t.Fatal(err)
	}
	w2 := e2.NewWorker()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	res2, err := w2.LookupCtx(ctx, []Key{0})
	if err != nil {
		t.Fatal(err)
	}
	if !res2.Stats.Degraded || len(res2.FailedKeys) != 1 {
		t.Fatalf("cancelled lookup did not degrade: %+v", res2.Stats)
	}
	if res2.Stats.Retries != 0 {
		t.Fatalf("cancelled lookup still issued %d retries", res2.Stats.Retries)
	}
	// The worker is reusable afterwards, with cancellation cleared.
	res3, err := w2.Lookup([]Key{Key(lay.NumKeys - 1)}) // shard-1 home key
	if err != nil {
		t.Fatal(err)
	}
	if res3.Stats.Degraded {
		t.Fatalf("worker broken after cancelled lookup: %+v", res3.Stats)
	}
}
