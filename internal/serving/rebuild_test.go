package serving

import (
	"context"
	"testing"

	"maxembed/internal/embedding"
	"maxembed/internal/layout"
	"maxembed/internal/ssd"
	"maxembed/internal/store"
)

// TestRebuildShardFromReplicas kills a fully-replicated shard and checks
// the rebuild streams every local page from cross-shard replicas onto the
// spare, swaps it in, and that a fresh engine over the new array serves
// every key fault-free.
func TestRebuildShardFromReplicas(t *testing.T) {
	lay, sh, syn := shardedFixture(t)
	arr := mustTestArray(t, ssd.P5800X, 2)
	spare, err := ssd.NewDevice(ssd.P5800X)
	if err != nil {
		t.Fatal(err)
	}
	if err := arr.AttachSpare(spare); err != nil {
		t.Fatal(err)
	}
	e, err := New(Config{Layout: lay, Backend: arr, Store: sh, Pipeline: true})
	if err != nil {
		t.Fatal(err)
	}

	arr.SetShardFaultModel(0, deadShardModel{})
	arr.FailShard(0)

	var lastCopied int
	nb, rep, err := RebuildShard(context.Background(), e, 0, RebuildConfig{
		PagesPerSec: 10000,
		Progress:    func(copied, total int, _ int64) { lastCopied = copied },
	})
	if err != nil {
		t.Fatal(err)
	}
	wantLocal := lay.NumPages() / 2
	if rep.LocalPages != wantLocal || lastCopied != wantLocal {
		t.Fatalf("LocalPages = %d (progress %d), want %d", rep.LocalPages, lastCopied, wantLocal)
	}
	if rep.FromSource != 0 || rep.FromReplicas != wantLocal || rep.FromStore != 0 {
		t.Fatalf("source/replicas/store = %d/%d/%d, want 0/%d/0",
			rep.FromSource, rep.FromReplicas, rep.FromStore, wantLocal)
	}
	if rep.SourceReadFaults != wantLocal {
		t.Fatalf("SourceReadFaults = %d, want %d", rep.SourceReadFaults, wantLocal)
	}
	if rep.DurationNS() <= 0 {
		t.Fatalf("rebuild has non-positive duration %d", rep.DurationNS())
	}
	// Rate limit honored: page k may not land before k·interval.
	if minDur := int64(wantLocal-1) * int64(1e9/10000); rep.DurationNS() < minDur {
		t.Fatalf("rebuild took %d ns, want ≥ %d", rep.DurationNS(), minDur)
	}

	// The spare is consumed, installed at shard 0, and carries the writes.
	if nb.Shard(0) != spare {
		t.Fatalf("new array shard 0 is not the spare")
	}
	if arr.Spare() != nil {
		t.Fatalf("spare still attached after rebuild")
	}
	if got := spare.Stats().Writes; got != int64(wantLocal) {
		t.Fatalf("spare writes = %d, want %d", got, wantLocal)
	}
	if st := nb.ShardState(0); st != ssd.ShardHealthy {
		t.Fatalf("rebuilt shard state = %v, want healthy", st)
	}

	// A fresh engine over the new array serves every key with zero faults —
	// full redundancy restored.
	e2, err := New(Config{Layout: lay, Backend: nb, Store: sh, Pipeline: true})
	if err != nil {
		t.Fatal(err)
	}
	w := e2.NewWorker()
	var want []float32
	for k := 0; k < lay.NumKeys; k++ {
		res, err := w.Lookup([]Key{Key(k)})
		if err != nil {
			t.Fatal(err)
		}
		if res.Stats.ReadFaults != 0 || res.Stats.Degraded {
			t.Fatalf("key %d faulted after rebuild: %+v", k, res.Stats)
		}
		want = syn.Vector(Key(k), want[:0])
		for j := range want {
			if res.Refs[0].Float32(j) != want[j] {
				t.Fatalf("key %d: wrong vector after rebuild", k)
			}
		}
	}
}

// TestRebuildShardFromStore: with no replicas at all, a dead shard's pages
// are re-materialized from the host store image.
func TestRebuildShardFromStore(t *testing.T) {
	capacity := embedding.PageCapacity(4096, testDim)
	lay := layout.Vanilla(4*capacity, capacity) // 4 pages, no replicas
	syn, err := embedding.NewSynthesizer(testDim, 8)
	if err != nil {
		t.Fatal(err)
	}
	sh, err := store.BuildSharded(lay, syn, 4096, 2)
	if err != nil {
		t.Fatal(err)
	}
	arr := mustTestArray(t, ssd.P5800X, 2)
	spare, err := ssd.NewDevice(ssd.P5800X)
	if err != nil {
		t.Fatal(err)
	}
	if err := arr.AttachSpare(spare); err != nil {
		t.Fatal(err)
	}
	e, err := New(Config{Layout: lay, Backend: arr, Store: sh, Pipeline: true})
	if err != nil {
		t.Fatal(err)
	}
	arr.SetShardFaultModel(1, deadShardModel{})
	arr.FailShard(1)
	_, rep, err := RebuildShard(context.Background(), e, 1, RebuildConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if rep.FromStore != rep.LocalPages || rep.FromReplicas != 0 {
		t.Fatalf("source/replicas/store = %d/%d/%d, want all-store over %d pages",
			rep.FromSource, rep.FromReplicas, rep.FromStore, rep.LocalPages)
	}
}

// TestRebuildShardGuards covers the refusal paths: no spare, double claim,
// and context cancellation returning the shard to failed.
func TestRebuildShardGuards(t *testing.T) {
	lay, sh, _ := shardedFixture(t)
	arr := mustTestArray(t, ssd.P5800X, 2)
	e, err := New(Config{Layout: lay, Backend: arr, Store: sh, Pipeline: true})
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := RebuildShard(context.Background(), e, 0, RebuildConfig{}); err == nil {
		t.Fatal("rebuild without a spare succeeded")
	}
	spare, err := ssd.NewDevice(ssd.P5800X)
	if err != nil {
		t.Fatal(err)
	}
	if err := arr.AttachSpare(spare); err != nil {
		t.Fatal(err)
	}
	if _, _, err := RebuildShard(context.Background(), e, 9, RebuildConfig{}); err == nil {
		t.Fatal("rebuild of an out-of-range shard succeeded")
	}

	// Cancelled context: the claim is released back to failed.
	arr.FailShard(0)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, _, err := RebuildShard(ctx, e, 0, RebuildConfig{}); err == nil {
		t.Fatal("rebuild under a cancelled context succeeded")
	}
	if st := arr.ShardState(0); st != ssd.ShardFailed {
		t.Fatalf("shard state after cancelled rebuild = %v, want failed", st)
	}
	if arr.Spare() == nil {
		t.Fatal("spare consumed by a cancelled rebuild")
	}

	// Double claim: mark the shard rebuilding out of band; the rebuilder
	// must refuse to race it.
	if !arr.MarkRebuilding(0) {
		t.Fatal("MarkRebuilding refused")
	}
	if _, _, err := RebuildShard(context.Background(), e, 0, RebuildConfig{}); err == nil {
		t.Fatal("second concurrent rebuild claim succeeded")
	}
}
