package maxembed

import (
	"context"
	"testing"
	"time"

	"maxembed/internal/ssd"
	"maxembed/internal/store"
)

// TestScrubFailRebuildDB drives the whole robustness surface at the DB
// level: scrub repairs injected bit rot, FailShard kills a drive without
// losing a single lookup, and RebuildShard restores redundancy onto the
// hot spare with a hot engine swap live sessions follow.
func TestScrubFailRebuildDB(t *testing.T) {
	tr := smallTrace(t)
	history, eval := tr.Split(0.5)
	db, err := Open(tr.NumItems, history.Queries,
		WithReplicationRatio(0.3), WithDevices(2), WithCacheRatio(0),
		WithSeed(3), WithHotSpare())
	if err != nil {
		t.Fatal(err)
	}
	arr, ok := db.Backend().(*ssd.Array)
	if !ok || arr.Spare() == nil {
		t.Fatal("WithHotSpare did not attach a spare")
	}

	// Scrub a clean store: nothing latent.
	rep, err := db.ScrubNow(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if rep.LatentSlots != 0 || rep.PagesScanned == 0 {
		t.Fatalf("clean scrub = %+v", rep)
	}

	// Inject at-rest rot and scrub again: detected and accounted.
	sh := db.src.(*store.Sharded)
	if err := sh.CorruptSlot(0, 0); err != nil {
		t.Fatal(err)
	}
	rep, err = db.ScrubNow(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if rep.LatentSlots != 1 || rep.RepairedSlots+rep.UnrepairableSlots != 1 {
		t.Fatalf("rot scrub = %+v", rep)
	}

	// Kill shard 0; the DB keeps serving every key correctly.
	sess := db.NewSession()
	if err := db.FailShard(0); err != nil {
		t.Fatal(err)
	}
	if infos := db.ShardHealth(); infos[0].State != ssd.ShardFailed {
		t.Fatalf("shard 0 state after FailShard = %v", infos[0].State)
	}
	var want []float32
	for i := 0; i < 100 && i < len(eval.Queries); i++ {
		res, err := sess.Lookup(eval.Queries[i])
		if err != nil {
			t.Fatal(err)
		}
		if res.Stats.Degraded {
			t.Fatalf("query %d degraded with one dead shard of two", i)
		}
		for j, k := range res.Keys {
			want = db.syn.Vector(k, want[:0])
			for x := range want {
				if res.Refs[j].Float32(x) != want[x] {
					t.Fatalf("query %d: wrong vector for key %d with dead shard", i, k)
				}
			}
		}
	}

	// Rebuild; the session picks the repaired array up at its next query.
	gen := db.LayoutGeneration()
	rrep, err := db.RebuildShard(context.Background(), 0, RebuildConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if rrep.LocalPages == 0 || rrep.DurationNS() <= 0 {
		t.Fatalf("rebuild report = %+v", rrep)
	}
	if db.LayoutGeneration() != gen+1 {
		t.Fatalf("generation after rebuild = %d, want %d", db.LayoutGeneration(), gen+1)
	}
	nb, ok := db.Backend().(*ssd.Array)
	if !ok || nb == arr {
		t.Fatal("backend not replaced by rebuild")
	}
	if st := db.ShardHealth()[0].State; st != ssd.ShardHealthy {
		t.Fatalf("shard 0 state after rebuild = %v", st)
	}
	if nb.Spare() != nil {
		t.Fatal("spare not consumed by rebuild")
	}
	before := nb.Shard(0).Stats().Writes
	for i := 100; i < 200 && i < len(eval.Queries); i++ {
		res, err := sess.Lookup(eval.Queries[i])
		if err != nil {
			t.Fatal(err)
		}
		if res.Stats.ReadFaults != 0 || res.Stats.Degraded {
			t.Fatalf("query %d faulted after rebuild: %+v", i, res.Stats)
		}
	}
	if nb.Shard(0).Stats().Reads == 0 {
		t.Error("rebuilt shard serves no reads")
	}
	if nb.Shard(0).Stats().Writes != before {
		t.Error("serving traffic wrote to the rebuilt shard")
	}

	// A fresh spare can be attached for the next failure.
	if err := db.AttachSpare(); err != nil {
		t.Fatal(err)
	}
	if nb.Spare() == nil {
		t.Fatal("AttachSpare did not install a spare")
	}
}

// TestAutoRebuild: with WithAutoRebuild, FailShard alone is enough — the
// OnFail hook rebuilds onto the spare in the background and swaps the
// repaired array in with no operator action.
func TestAutoRebuild(t *testing.T) {
	tr := smallTrace(t)
	db, err := Open(tr.NumItems, tr.Queries,
		WithReplicationRatio(0.3), WithDevices(2), WithCacheRatio(0),
		WithSeed(3), WithAutoRebuild(1e6))
	if err != nil {
		t.Fatal(err)
	}
	if err := db.FailShard(0); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(10 * time.Second)
	for {
		if done, _ := db.AutoRebuilds(); done == 1 {
			break
		}
		if time.Now().After(deadline) {
			done, errs := db.AutoRebuilds()
			t.Fatalf("auto rebuild never completed (done=%d errors=%d)", done, errs)
		}
		time.Sleep(5 * time.Millisecond)
	}
	if st := db.ShardHealth()[0].State; st != ssd.ShardHealthy {
		t.Fatalf("shard 0 state after auto rebuild = %v", st)
	}
	sess := db.NewSession()
	for i := 0; i < 50; i++ {
		res, err := sess.Lookup(tr.Queries[i])
		if err != nil {
			t.Fatal(err)
		}
		if res.Stats.ReadFaults != 0 || res.Stats.Degraded {
			t.Fatalf("query %d faulted after auto rebuild: %+v", i, res.Stats)
		}
	}
	// The hook carried over to the repaired array: a second failure (with
	// a fresh spare) self-heals too.
	if err := db.AttachSpare(); err != nil {
		t.Fatal(err)
	}
	if err := db.FailShard(1); err != nil {
		t.Fatal(err)
	}
	deadline = time.Now().Add(10 * time.Second)
	for {
		if done, _ := db.AutoRebuilds(); done == 2 {
			break
		}
		if time.Now().After(deadline) {
			done, errs := db.AutoRebuilds()
			t.Fatalf("second auto rebuild never completed (done=%d errors=%d)", done, errs)
		}
		time.Sleep(5 * time.Millisecond)
	}
	if st := db.ShardHealth()[1].State; st != ssd.ShardHealthy {
		t.Fatalf("shard 1 state after second auto rebuild = %v", st)
	}
}

// TestAdminSingleDeviceErrors: the shard admin surface needs an array.
func TestAdminSingleDeviceErrors(t *testing.T) {
	tr := smallTrace(t)
	db, err := Open(tr.NumItems, tr.Queries[:500])
	if err != nil {
		t.Fatal(err)
	}
	if err := db.FailShard(0); err == nil {
		t.Fatal("FailShard on a single-device DB succeeded")
	}
	if _, err := db.RebuildShard(context.Background(), 0, RebuildConfig{}); err == nil {
		t.Fatal("RebuildShard on a single-device DB succeeded")
	}
	if db.ShardHealth() != nil {
		t.Fatal("ShardHealth non-nil on a single-device DB")
	}
}
