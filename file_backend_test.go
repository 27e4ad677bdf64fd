package maxembed

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"strings"
	"testing"

	"maxembed/internal/embedding"
	"maxembed/internal/layout"
	"maxembed/internal/serving"
	"maxembed/internal/ssd"
	"maxembed/internal/store"
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

// TestFileBackendIsTheOnlyCopy: a file-backed DB keeps no table image. The
// engine's page source is the file backend itself, so what is read outside
// a lookup's batch — the pin-set at Open, WarmCache — comes off the shard
// files, with the synthesizer's bytes, and Scrub, which patrols an
// in-memory image, says it has nothing to patrol.
func TestFileBackendIsTheOnlyCopy(t *testing.T) {
	tr := smallTrace(t)
	history, eval := tr.Split(0.5)
	syn, err := embedding.NewSynthesizer(64, 3)
	if err != nil {
		t.Fatal(err)
	}
	for _, devices := range []int{1, 3} {
		db, err := Open(tr.NumItems, history.Queries,
			WithReplicationRatio(0.2), WithSeed(3), WithDevices(devices),
			WithCacheEntries(64), WithDRAMPins(16),
			WithFileBackend(t.TempDir()))
		if err != nil {
			t.Fatal(err)
		}
		defer db.Close()
		fb := db.Backend().(*ssd.FileBackend)
		if src := db.engineConfig(db.lay, db.src).Store; src != serving.PageSource(fb) {
			t.Fatalf("devices=%d: the engine's page source is %T, want the file backend", devices, src)
		}
		if st := fb.Stats(); st.Reads == 0 || st.BytesRead != st.Reads*4096 || st.Errors != 0 {
			t.Fatalf("devices=%d: pin-set read at Open left device stats %+v", devices, st)
		}

		// served looks keys up, expects every one from DRAM, and checks the
		// bytes.
		sess := db.NewSession()
		served := func(what string, keys []Key) {
			t.Helper()
			res, err := sess.Lookup(keys)
			if err != nil {
				t.Fatal(err)
			}
			if res.Stats.PagesRead != 0 || len(res.FailedKeys) != 0 || len(res.Keys) != res.Stats.DistinctKeys {
				t.Fatalf("devices=%d %s: %d of %d keys served with %d page reads, failed %v", devices, what,
					len(res.Keys), res.Stats.DistinctKeys, res.Stats.PagesRead, res.FailedKeys)
			}
			var want []float32
			for i, k := range res.Keys {
				want = syn.Vector(k, want[:0])
				if got := res.AppendVector(i, nil); !slices.Equal(got, want) {
					t.Fatalf("devices=%d %s: key %d differs from the source table", devices, what, k)
				}
			}
		}
		pins := db.PinnedKeys()
		if len(pins) != 16 {
			t.Fatalf("devices=%d: %d pinned keys, want 16", devices, len(pins))
		}
		served("pins", pins)
		warm := eval.Queries[:4]
		if err := db.Engine().WarmCache(warm); err != nil {
			t.Fatal(err)
		}
		served("warmed", warm[len(warm)-1])

		if _, err := db.Scrub(context.Background(), ScrubConfig{}); err == nil || !strings.Contains(err.Error(), "file backend") {
			t.Errorf("devices=%d: Scrub on a file backend: err = %v, want the file-backend rejection", devices, err)
		}
	}
}

// TestFileBackendDamagedOnDisk: with one key's slot damaged in the shard
// files on every page that holds it, there is no pristine copy left to fall
// back to. The key comes back in FailedKeys, from the retries and the final
// read-through of its home page alike; every other key is served,
// byte-identical; no lookup panics, and none leaks a completion buffer (a
// leak would show as a page-sized allocation per lookup, the freelist
// having run dry).
func TestFileBackendDamagedOnDisk(t *testing.T) {
	tr := smallTrace(t)
	history, eval := tr.Split(0.5)
	syn, err := embedding.NewSynthesizer(64, 3)
	if err != nil {
		t.Fatal(err)
	}
	for _, devices := range []int{1, 3} {
		dir := t.TempDir()
		db, err := Open(tr.NumItems, history.Queries,
			WithReplicationRatio(0.2), WithSeed(3), WithDevices(devices),
			WithCacheEntries(0), WithFileBackend(dir))
		if err != nil {
			t.Fatal(err)
		}
		defer db.Close()
		victim, pages := damageVictim(t, db.lay, eval.Queries)
		for _, p := range pages {
			slot := slices.Index(db.lay.Pages[p], victim)
			// MXST3: local page l of a shard file starts at block 1+l; the
			// payload follows the slot's 8-byte key and checksum header.
			off := int64(store.DirectIOAlign()) + int64(int(p)/devices)*4096 + int64(slot*embedding.SlotSize(64)+8)
			flipByte(t, filepath.Join(dir, fmt.Sprintf("shard%03d.bin", int(p)%devices)), off)
		}

		sess := db.NewSession()
		var want []float32
		queried := 0
		readThrough := false // set for the last phase, see below
		lookup := func(q []Key) {
			res, err := sess.Lookup(q)
			if err != nil {
				t.Fatal(err)
			}
			hit := slices.Contains(q, victim)
			if hit {
				queried++
			}
			for _, k := range res.FailedKeys {
				// Beside the victim, only a key read through with it from
				// its home page may fail.
				if k != victim && !(hit && readThrough && db.lay.Home[k] == db.lay.Home[victim]) {
					t.Fatalf("devices=%d: query %v: key %d failed with key %d damaged", devices, q, k, victim)
				}
			}
			if hit != slices.Contains(res.FailedKeys, victim) || len(res.Keys)+len(res.FailedKeys) != res.Stats.DistinctKeys {
				t.Fatalf("devices=%d: query %v: %d keys served of %d, failed %v with key %d damaged",
					devices, q, len(res.Keys), res.Stats.DistinctKeys, res.FailedKeys, victim)
			}
			for i, k := range res.Keys {
				want = syn.Vector(k, want[:0])
				if got := res.AppendVector(i, nil); !slices.Equal(got, want) {
					t.Fatalf("devices=%d: key %d differs from the source table", devices, k)
				}
			}
		}
		for _, q := range eval.Queries[:min(300, len(eval.Queries))] {
			lookup(q)
		}
		if queried == 0 {
			t.Fatalf("devices=%d: key %d was never looked up", devices, victim)
		}
		alone := []Key{victim}
		lookup(alone) // warm the worker's scratch for the measurement below
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		const rounds = 200
		for i := 0; i < rounds; i++ {
			lookup(alone)
		}
		runtime.ReadMemStats(&after)
		perLookup := (after.TotalAlloc - before.TotalAlloc) / rounds
		t.Logf("devices=%d: %d bytes allocated per failing lookup", devices, perLookup)
		if perLookup >= 4096 {
			t.Errorf("devices=%d: %d bytes allocated per failing lookup: completion buffers are not coming back", devices, perLookup)
		}
		rec := db.Engine().Recovery
		if rec.Corruptions.Load() == 0 || rec.FailedKeys.Load() == 0 {
			t.Errorf("devices=%d: %d corruptions detected, %d failed keys counted", devices, rec.Corruptions.Load(), rec.FailedKeys.Load())
		}

		// With the victim's shards declared failed nothing is rerouted to a
		// replica any more: its keys are read through, synchronously, from
		// their home pages on disk — the same damaged slot for the victim,
		// intact ones for everything else those shards hold. A read-through
		// serves or fails a home page's keys together, so the keys a query
		// wants from the victim's home page fail with it.
		readThrough = true
		fb := db.Backend().(*ssd.FileBackend)
		for _, p := range pages {
			fb.FailShard(int(p) % devices)
		}
		for _, q := range eval.Queries[:100] {
			lookup(q)
		}
		lookup(alone)
		if rec.StoreFallbacks.Load() == 0 {
			t.Errorf("devices=%d: no key was read through from its home page", devices)
		}
	}
}

// damageVictim picks the key whose slots the test damages: the first
// queried key that has a replica and shares at most one page with any other
// key. The engine verifies only the slots a read was for, but it retries
// page by page: a neighbour that sat beside the victim on every page they
// have would be retried beside it every time, and fail with it.
func damageVictim(t *testing.T, lay *layout.Layout, queries [][]Key) (Key, []layout.PageID) {
	t.Helper()
	for _, q := range queries {
	candidates:
		for _, k := range q {
			pages := lay.PagesOf(k, nil)
			if len(pages) < 2 {
				continue
			}
			shared := map[Key]int{}
			for _, p := range pages {
				for _, n := range lay.Pages[p] {
					if shared[n]++; n != k && shared[n] > 1 {
						continue candidates
					}
				}
			}
			return k, pages
		}
	}
	t.Fatal("no queried key with a replica and no constant neighbour")
	return 0, nil
}

// flipByte damages one byte of a file in place, durably.
func flipByte(t *testing.T, path string, off int64) {
	t.Helper()
	f, err := os.OpenFile(path, os.O_RDWR, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	var b [1]byte
	if _, err := f.ReadAt(b[:], off); err != nil {
		t.Fatal(err)
	}
	b[0] ^= 0xA5
	if _, err := f.WriteAt(b[:], off); err != nil {
		t.Fatal(err)
	}
	if err := f.Sync(); err != nil {
		t.Fatal(err)
	}
}

// TestFileBackendLookupAfterClose: a lookup on a closed DB used to block
// forever in Drain (io_uring) or send on the pread pool's closed channel. It
// now comes back at once with every key failed.
func TestFileBackendLookupAfterClose(t *testing.T) {
	tr := smallTrace(t)
	for _, devices := range []int{1, 3} {
		db, err := Open(tr.NumItems, tr.Queries, WithDevices(devices), WithCacheEntries(0), WithFileBackend(t.TempDir()))
		if err != nil {
			t.Fatal(err)
		}
		sess := db.NewSession()
		if res, err := sess.Lookup(tr.Queries[0]); err != nil || len(res.FailedKeys) != 0 {
			t.Fatalf("devices=%d: lookup before Close: failed %v, err %v", devices, res.FailedKeys, err)
		}
		if err := db.Close(); err != nil {
			t.Fatal(err)
		}
		for _, s := range []*Session{sess, db.NewSession()} {
			res, err := s.Lookup(tr.Queries[1])
			if err != nil {
				t.Fatal(err)
			}
			if len(res.Keys) != 0 || len(res.FailedKeys) != res.Stats.DistinctKeys {
				t.Fatalf("devices=%d: lookup after Close served %d keys and failed %d of %d",
					devices, len(res.Keys), len(res.FailedKeys), res.Stats.DistinctKeys)
			}
		}
	}
}
