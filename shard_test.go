package maxembed

import (
	"fmt"
	"sync"
	"testing"
	"time"
)

func TestMultiDeviceOpenAndLookup(t *testing.T) {
	tr := smallTrace(t)
	history, eval := tr.Split(0.5)
	db, err := Open(tr.NumItems, history.Queries,
		WithReplicationRatio(0.3), WithDevices(2), WithCacheRatio(0), WithSeed(3))
	if err != nil {
		t.Fatal(err)
	}
	if db.NumDevices() != 2 {
		t.Fatalf("NumDevices = %d, want 2", db.NumDevices())
	}
	if db.Backend().NumShards() != 2 {
		t.Fatalf("backend NumShards = %d, want 2", db.Backend().NumShards())
	}
	sess := db.NewSession()
	var want []float32
	for i := 0; i < 200 && i < len(eval.Queries); i++ {
		res, err := sess.Lookup(eval.Queries[i])
		if err != nil {
			t.Fatal(err)
		}
		for j, k := range res.Keys {
			want = db.syn.Vector(k, want[:0])
			for x := range want {
				if res.Refs[j].Float32(x) != want[x] {
					t.Fatalf("query %d: wrong vector for key %d on 2-device array", i, k)
				}
			}
		}
	}
	ss := db.ShardStats()
	if len(ss) != 2 {
		t.Fatalf("ShardStats len = %d, want 2", len(ss))
	}
	var total int64
	for s, st := range ss {
		if st.Reads == 0 {
			t.Errorf("shard %d served no reads: striping left a device idle", s)
		}
		total += st.Reads
	}
	if agg := db.DeviceStats().Reads; agg != total {
		t.Errorf("aggregate reads %d != per-shard sum %d", agg, total)
	}
}

func TestSingleDeviceShardStats(t *testing.T) {
	tr := smallTrace(t)
	db, err := Open(tr.NumItems, tr.Queries[:500])
	if err != nil {
		t.Fatal(err)
	}
	if db.NumDevices() != 1 {
		t.Fatalf("NumDevices = %d, want 1", db.NumDevices())
	}
	if _, err := db.Lookup(tr.Queries[0]); err != nil {
		t.Fatal(err)
	}
	ss := db.ShardStats()
	if len(ss) != 1 {
		t.Fatalf("ShardStats len = %d, want 1", len(ss))
	}
	if ss[0] != db.DeviceStats() {
		t.Error("single-device ShardStats[0] differs from DeviceStats")
	}
}

// TestMultiDeviceHotSwapUnderLoad exercises the refresh hot-swap seam with
// a striped 2-device array: sessions hammer lookups while the layout is
// refreshed repeatedly. Every vector must stay correct, generations must be
// monotone per session, and the refresh must rebuild onto the SAME array —
// the devices (and their accumulated statistics) survive the swap.
func TestMultiDeviceHotSwapUnderLoad(t *testing.T) {
	tr := smallTrace(t)
	history, live := tr.Split(0.5)
	db, err := Open(tr.NumItems, history.Queries,
		WithReplicationRatio(0.3), WithDevices(2), WithSeed(3),
		WithHistoryRecording(256))
	if err != nil {
		t.Fatal(err)
	}
	backendBefore := db.Backend()

	const workers = 4
	const refreshes = 3
	stop := make(chan struct{})
	var wg sync.WaitGroup
	errs := make(chan error, workers)
	fail := func(format string, args ...any) {
		select {
		case errs <- fmt.Errorf(format, args...):
		default:
		}
	}
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			sess := db.NewSession()
			lastGen := sess.Generation()
			var want []float32
			for i := w; ; i += workers {
				select {
				case <-stop:
					return
				default:
				}
				res, err := sess.Lookup(live.Queries[i%len(live.Queries)])
				if err != nil {
					fail("worker %d: Lookup: %v", w, err)
					return
				}
				for j, k := range res.Keys {
					want = db.syn.Vector(k, want[:0])
					for x := range want {
						if res.Refs[j].Float32(x) != want[x] {
							fail("worker %d: wrong vector for key %d (gen %d)", w, k, res.Stats.Generation)
							return
						}
					}
				}
				if res.Stats.Generation < lastGen {
					fail("worker %d: generation went backwards", w)
					return
				}
				lastGen = res.Stats.Generation
			}
		}(w)
	}

	for r := 0; r < refreshes; r++ {
		var err error
		if r == 0 {
			// First refresh through the recorded-history path.
			for db.PendingQueries() == 0 {
				time.Sleep(time.Millisecond)
			}
			err = db.RefreshNow()
		} else {
			err = db.Refresh(live.Queries[:200])
		}
		if err != nil {
			t.Errorf("refresh %d: %v", r, err)
			break
		}
		time.Sleep(5 * time.Millisecond)
	}
	close(stop)
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	if db.Backend() != backendBefore {
		t.Error("refresh replaced the device array instead of rebuilding onto it")
	}
	if db.NumDevices() != 2 {
		t.Errorf("NumDevices after refresh = %d", db.NumDevices())
	}
	if got, want := db.LayoutGeneration(), uint64(1+refreshes); got != want {
		t.Errorf("final layout generation = %d, want %d", got, want)
	}
}
