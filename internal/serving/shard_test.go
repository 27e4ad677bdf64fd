package serving

import (
	"testing"

	"maxembed/internal/embedding"
	"maxembed/internal/layout"
	"maxembed/internal/placement"
	"maxembed/internal/ssd"
	"maxembed/internal/store"
)

// deadShardModel fails every read unconditionally: a dead drive.
type deadShardModel struct{}

func (deadShardModel) Judge(int64, ssd.PageID) ssd.Fault {
	return ssd.Fault{Err: ssd.ErrReadFailed}
}

func mustTestArray(t *testing.T, p ssd.Profile, n int) *ssd.Array {
	t.Helper()
	arr, err := ssd.NewArray(p, n)
	if err != nil {
		t.Fatal(err)
	}
	return arr
}

// TestBackendOneShardMatchesDevice pins the acceptance criterion that a
// one-device array behind Config.Backend is indistinguishable from the same
// device behind Config.Device: identical run results, stats included.
func TestBackendOneShardMatchesDevice(t *testing.T) {
	f := newFixture(t, placement.StrategyMaxEmbed, 0.4)
	queries := f.trace.Queries[:400]

	onDevice, err := Run(f.engine(t, nil), queries, 3)
	if err != nil {
		t.Fatal(err)
	}
	arrEng := f.engine(t, func(c *Config) {
		c.Device = nil
		c.Backend = mustTestArray(t, ssd.P5800X, 1)
	})
	if arrEng.NumShards() != 1 {
		t.Fatalf("NumShards = %d", arrEng.NumShards())
	}
	onArray, err := Run(arrEng, queries, 3)
	if err != nil {
		t.Fatal(err)
	}
	if onDevice != onArray {
		t.Errorf("one-shard array run diverges from bare device:\n%+v\n%+v", onDevice, onArray)
	}
	// Per-lookup results match too, vectors included.
	devEng := f.engine(t, nil)
	arrEng2 := f.engine(t, func(c *Config) {
		c.Device = nil
		c.Backend = mustTestArray(t, ssd.P5800X, 1)
	})
	wd, wa := devEng.NewWorker(), arrEng2.NewWorker()
	for qi := 0; qi < 100; qi++ {
		rd, err := wd.Lookup(f.trace.Queries[qi])
		if err != nil {
			t.Fatal(err)
		}
		ra, err := wa.Lookup(f.trace.Queries[qi])
		if err != nil {
			t.Fatal(err)
		}
		if rd.Stats != ra.Stats {
			t.Fatalf("query %d stats diverge:\n%+v\n%+v", qi, rd.Stats, ra.Stats)
		}
		for i := range rd.Keys {
			if rd.Keys[i] != ra.Keys[i] {
				t.Fatalf("query %d key order diverges", qi)
			}
			for j := 0; j < rd.Refs[i].Dim(); j++ {
				if rd.Refs[i].Float32(j) != ra.Refs[i].Float32(j) {
					t.Fatalf("query %d vector diverges for key %d", qi, rd.Keys[i])
				}
			}
		}
	}
}

func TestConfigDeviceBackendExclusive(t *testing.T) {
	f := newFixture(t, placement.StrategySHP, 0)
	dev, err := ssd.NewDevice(ssd.P5800X)
	if err != nil {
		t.Fatal(err)
	}
	arr := mustTestArray(t, ssd.P5800X, 2)
	if _, err := New(Config{Layout: f.lay, Device: dev, Backend: arr}); err == nil {
		t.Error("Config with both Device and Backend accepted")
	}
	if _, err := New(Config{Layout: f.lay}); err == nil {
		t.Error("Config with neither Device nor Backend accepted")
	}
}

// shardedFixture hand-builds a layout whose every key has candidate pages on
// both shards of a 2-device array: home pages 0..1 alternate shards under
// p mod 2 striping, and each home's keys get a replica page on the opposite
// shard.
func shardedFixture(t *testing.T) (*layout.Layout, *store.Sharded, *embedding.Synthesizer) {
	t.Helper()
	capacity := embedding.PageCapacity(4096, testDim)
	lay := layout.Vanilla(2*capacity, capacity)
	span := func(lo, hi int) []layout.Key {
		keys := make([]layout.Key, 0, hi-lo)
		for k := lo; k < hi; k++ {
			keys = append(keys, layout.Key(k))
		}
		return keys
	}
	// Page 2 (shard 0) replicates home page 1 (shard 1) and vice versa.
	if _, err := lay.AddReplicaPage(span(capacity, 2*capacity)); err != nil {
		t.Fatal(err)
	}
	if _, err := lay.AddReplicaPage(span(0, capacity)); err != nil {
		t.Fatal(err)
	}
	syn, err := embedding.NewSynthesizer(testDim, 8)
	if err != nil {
		t.Fatal(err)
	}
	sh, err := store.BuildSharded(lay, syn, 4096, 2)
	if err != nil {
		t.Fatal(err)
	}
	return lay, sh, syn
}

// TestShardFaultIsolation is the single-drive-failure acceptance test: with
// every key replicated across both shards, killing one entire shard loses
// no keys — every read that lands on the dead drive is rescued from the
// survivor, and the fault counters stay confined to the dead shard.
func TestShardFaultIsolation(t *testing.T) {
	lay, sh, syn := shardedFixture(t)
	arr := mustTestArray(t, ssd.P5800X, 2)
	arr.SetShardFaultModel(0, deadShardModel{})
	e, err := New(Config{Layout: lay, Backend: arr, Store: sh, Pipeline: true})
	if err != nil {
		t.Fatal(err)
	}
	w := e.NewWorker()
	var faults, rescues int
	var want []float32
	check := func(q []Key) {
		t.Helper()
		res, err := w.Lookup(q)
		if err != nil {
			t.Fatalf("lookup %v: %v", q, err)
		}
		if res.Stats.Degraded || len(res.FailedKeys) != 0 {
			t.Fatalf("query %v degraded with a healthy replica shard: %+v", q, res.Stats)
		}
		faults += res.Stats.ReadFaults
		rescues += res.Stats.ReplicaRescues
		for i, k := range res.Keys {
			want = syn.Vector(k, want[:0])
			for j := range want {
				if res.Refs[i].Float32(j) != want[j] {
					t.Fatalf("key %d: wrong vector after shard-0 rescue", k)
				}
			}
		}
	}
	for k := 0; k < lay.NumKeys; k++ {
		check([]Key{Key(k)})
	}
	// A query spanning both shards' keys still completes in one lookup.
	check([]Key{0, Key(lay.NumKeys - 1), 3, Key(lay.NumKeys / 2)})

	if faults == 0 {
		t.Fatal("no reads landed on the dead shard; the test is vacuous")
	}
	if rescues == 0 {
		t.Fatal("no replica rescues despite shard-diverse replicas")
	}
	ss := arr.ShardStats()
	if ss[0].Errors == 0 {
		t.Error("dead shard recorded no errors")
	}
	if ss[1].Errors != 0 {
		t.Errorf("healthy shard recorded %d errors", ss[1].Errors)
	}
	if ss[1].Reads == 0 {
		t.Error("healthy shard served no reads")
	}
}

// TestShardTieBreakSpreadsLoad: when a key's candidates tie on coverage,
// selection prefers the page on the less-loaded shard of the query's plan.
// Both keys' homes sit on shard 0 and both replicas on shard 1, so a plan
// that ignored shard load would put both reads on shard 0; the tie-break
// must split them 1/1.
func TestShardTieBreakSpreadsLoad(t *testing.T) {
	capacity := embedding.PageCapacity(4096, testDim)
	lay := layout.Vanilla(4*capacity, capacity) // home pages 0..3: shards 0,1,0,1
	span := func(lo, hi int) []layout.Key {
		keys := make([]layout.Key, 0, hi-lo)
		for k := lo; k < hi; k++ {
			keys = append(keys, layout.Key(k))
		}
		return keys
	}
	// Replica pages 4..7 land on shards 0,1,0,1; give the shard-0 home keys
	// (pages 0 and 2) replicas on shard-1 pages 5 and 7.
	for _, r := range [][]layout.Key{
		span(capacity, 2*capacity),   // page 4, shard 0
		span(0, capacity),            // page 5, shard 1
		span(3*capacity, 4*capacity), // page 6, shard 0
		span(2*capacity, 3*capacity), // page 7, shard 1
	} {
		if _, err := lay.AddReplicaPage(r); err != nil {
			t.Fatal(err)
		}
	}
	arr := mustTestArray(t, ssd.P5800X, 2)
	e, err := New(Config{Layout: lay, Backend: arr, Pipeline: true})
	if err != nil {
		t.Fatal(err)
	}
	w := e.NewWorker()
	// Key 0 (home page 0, shard 0) and key 2*capacity (home page 2, shard
	// 0): each covers only itself on either candidate, so both picks are
	// ties between a shard-0 home and a shard-1 replica.
	res, err := w.Lookup([]Key{0, Key(2 * capacity)})
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.PagesRead != 2 {
		t.Fatalf("PagesRead = %d, want 2", res.Stats.PagesRead)
	}
	ss := arr.ShardStats()
	if ss[0].Reads != 1 || ss[1].Reads != 1 {
		t.Errorf("shard reads = (%d, %d), want (1, 1): tie-break did not spread load",
			ss[0].Reads, ss[1].Reads)
	}
	peaks := e.ShardQueuePeaks()
	if len(peaks) != 2 {
		t.Fatalf("ShardQueuePeaks len = %d", len(peaks))
	}
	if peaks[0] == 0 || peaks[1] == 0 {
		t.Errorf("queue peaks = %v, want both non-zero", peaks)
	}
}

// TestMaxShardDepthCountsBusiestShard: per-query MaxShardDepth is the
// deepest per-shard count of the final plan — two reads aliasing onto one
// shard report depth 2, two reads on different shards report depth 1 —
// and the engine's SpreadDepth histogram accumulates one sample per query.
func TestMaxShardDepthCountsBusiestShard(t *testing.T) {
	capacity := embedding.PageCapacity(4096, testDim)
	lay := layout.Vanilla(4*capacity, capacity) // pages 0..3: shards 0,1,0,1
	arr := mustTestArray(t, ssd.P5800X, 2)
	e, err := New(Config{Layout: lay, Backend: arr, Pipeline: true})
	if err != nil {
		t.Fatal(err)
	}
	w := e.NewWorker()

	// Keys on pages 0 and 2: both home pages stripe onto shard 0.
	aliased, err := w.Lookup([]Key{0, Key(2 * capacity)})
	if err != nil {
		t.Fatal(err)
	}
	if aliased.Stats.PagesRead != 2 || aliased.Stats.MaxShardDepth != 2 {
		t.Errorf("aliased query: pages=%d depth=%d, want 2 reads serialized on one shard",
			aliased.Stats.PagesRead, aliased.Stats.MaxShardDepth)
	}

	// Keys on pages 0 and 1: one read per shard.
	spread, err := w.Lookup([]Key{0, Key(capacity)})
	if err != nil {
		t.Fatal(err)
	}
	if spread.Stats.PagesRead != 2 || spread.Stats.MaxShardDepth != 1 {
		t.Errorf("spread query: pages=%d depth=%d, want depth 1 across two shards",
			spread.Stats.PagesRead, spread.Stats.MaxShardDepth)
	}

	if got := e.SpreadDepth.Count(); got != 2 {
		t.Errorf("SpreadDepth recorded %d queries, want 2", got)
	}
	if got := e.SpreadDepth.Mean(); got != 1.5 {
		t.Errorf("SpreadDepth mean = %v, want 1.5", got)
	}
}

// TestShardQueuePeaksAcrossRun: a multi-shard engine reports a per-shard
// queue high-water mark after a run, and Run's reset clears it.
func TestShardQueuePeaksAcrossRun(t *testing.T) {
	f := newFixture(t, placement.StrategyMaxEmbed, 0.4)
	e := f.engine(t, func(c *Config) {
		c.Device = nil
		c.Backend = mustTestArray(t, ssd.P5800X, 2)
	})
	if _, err := Run(e, f.trace.Queries[:300], 4); err != nil {
		t.Fatal(err)
	}
	peaks := e.ShardQueuePeaks()
	if len(peaks) != 2 {
		t.Fatalf("ShardQueuePeaks len = %d, want 2", len(peaks))
	}
	for s, p := range peaks {
		if p <= 0 {
			t.Errorf("shard %d queue peak = %d, want > 0", s, p)
		}
	}
}
