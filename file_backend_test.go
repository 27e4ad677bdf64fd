package maxembed

import (
	"strings"
	"testing"

	"maxembed/internal/embedding"
	"maxembed/internal/ssd"
)

// TestFileBackendOpenAndLookup drives the public API over the real-I/O
// backend: Open writes shard files, lookups read them back through the
// async executor, and results carry zero-copy views that match the
// synthesizer's ground truth.
func TestFileBackendOpenAndLookup(t *testing.T) {
	tr := smallTrace(t)
	history, eval := tr.Split(0.5)
	for _, devices := range []int{1, 3} {
		db, err := Open(tr.NumItems, history.Queries,
			WithReplicationRatio(0.2), WithSeed(3),
			WithDevices(devices),
			WithCacheEntries(0),
			WithFileBackend(t.TempDir()))
		if err != nil {
			t.Fatal(err)
		}
		fb, ok := db.Backend().(*ssd.FileBackend)
		if !ok {
			t.Fatalf("devices=%d: backend is %T, want *ssd.FileBackend", devices, db.Backend())
		}
		if fb.NumShards() != devices {
			t.Fatalf("devices=%d: backend has %d shards", devices, fb.NumShards())
		}
		syn, err := embedding.NewSynthesizer(64, 3)
		if err != nil {
			t.Fatal(err)
		}
		sess := db.NewSession()
		var want []float32
		for i := 0; i < 100 && i < len(eval.Queries); i++ {
			res, err := sess.Lookup(eval.Queries[i])
			if err != nil {
				t.Fatal(err)
			}
			if len(res.FailedKeys) != 0 {
				t.Fatalf("devices=%d query %d: failed keys %v", devices, i, res.FailedKeys)
			}
			if len(res.Refs) != len(res.Keys) {
				t.Fatalf("devices=%d query %d: %d refs for %d keys", devices, i, len(res.Refs), len(res.Keys))
			}
			for j, k := range res.Keys {
				if !res.Refs[j].Pinned() {
					t.Fatalf("devices=%d query %d key %d: no zero-copy view", devices, i, k)
				}
				want = syn.Vector(k, want[:0])
				for e := range want {
					if got := res.Refs[j].Float32(e); got != want[e] {
						t.Fatalf("devices=%d query %d key %d elem %d: %v want %v",
							devices, i, k, e, got, want[e])
					}
				}
			}
		}
		if st := fb.Stats(); st.Reads == 0 || st.Errors != 0 {
			t.Fatalf("devices=%d: backend stats %+v", devices, st)
		}
		if lat := fb.ShardReadLatency(0); lat.Count == 0 {
			t.Fatalf("devices=%d: no measured read latency", devices)
		}
		if err := db.Close(); err != nil {
			t.Fatal(err)
		}
	}
}

// TestFileBackendOptionConflicts checks that the simulator-only options are
// rejected up front instead of failing obscurely at serve time.
func TestFileBackendOptionConflicts(t *testing.T) {
	tr := smallTrace(t)
	dir := t.TempDir()
	for name, opt := range map[string]Option{
		"timing-only": TimingOnly(),
		"tiers":       WithTiers(TierSpec{Profile: DeviceP5800X, Devices: 1}, TierSpec{Profile: DeviceP4510, Devices: 1}),
		"faults":      WithFaultInjection(FaultConfig{ReadErrorProb: 0.1}),
		"hot-spare":   WithHotSpare(),
	} {
		_, err := Open(tr.NumItems, tr.Queries, WithFileBackend(dir), opt)
		if err == nil {
			t.Errorf("%s: Open accepted an incompatible option combination", name)
		}
	}
}

// TestFileBackendRefreshRejected: the on-disk pages hold the placement they
// were written with; Refresh must refuse rather than serve a layout the
// files do not reflect.
func TestFileBackendRefreshRejected(t *testing.T) {
	tr := smallTrace(t)
	db, err := Open(tr.NumItems, tr.Queries, WithFileBackend(t.TempDir()), WithHistoryRecording(128))
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	err = db.Refresh(tr.Queries)
	if err == nil || !strings.Contains(err.Error(), "file backend") {
		t.Fatalf("Refresh on a file backend: err = %v, want a file-backend rejection", err)
	}
}
