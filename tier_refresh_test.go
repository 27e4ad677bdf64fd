package maxembed

import (
	"context"
	"errors"
	"sync"
	"testing"

	"maxembed/internal/placement"
)

var errWrongVector = errors.New("wrong vector bytes during refresh")

// tieredOptions is the canonical 2-tier test array: one P5800X-class
// shard fronting three P4510-class shards.
func tieredOptions(extra ...Option) []Option {
	opts := []Option{
		WithTiers(
			TierSpec{Profile: DeviceP5800X, Devices: 1},
			TierSpec{Profile: DeviceP4510, Devices: 3},
		),
		WithReplicationRatio(0.2),
		WithSeed(11),
	}
	return append(opts, extra...)
}

// shiftKeys remaps every key by half the key space, migrating the hot set
// wholesale — the workload drift that must flip tier residency.
func shiftKeys(queries [][]Key, numItems int) [][]Key {
	out := make([][]Key, len(queries))
	for i, q := range queries {
		nq := make([]Key, len(q))
		for j, k := range q {
			nq[j] = Key((int(k) + numItems/2) % numItems)
		}
		out[i] = nq
	}
	return out
}

// fastReadShare serves the queries and returns the fraction of the SSD
// reads they caused that landed on tier 0.
func fastReadShare(t *testing.T, db *DB, queries [][]Key) float64 {
	t.Helper()
	before := db.TierStats()
	sess := db.NewSession()
	for _, q := range queries {
		if _, err := sess.Lookup(q); err != nil {
			t.Fatalf("Lookup: %v", err)
		}
	}
	after := db.TierStats()
	var fast, total int64
	for i := range after {
		d := after[i].Reads - before[i].Reads
		total += d
		if i == 0 {
			fast = d
		}
	}
	if total == 0 {
		t.Fatal("queries caused no SSD reads")
	}
	return float64(fast) / float64(total)
}

func TestTieredOpenConcentratesReadsOnFastTier(t *testing.T) {
	tr := smallTrace(t)
	history, eval := tr.Split(0.5)
	db, err := Open(tr.NumItems, history.Queries,
		tieredOptions(WithCacheRatio(0.02), WithDRAMPins(8))...)
	if err != nil {
		t.Fatal(err)
	}
	tiers := db.Tiers()
	if len(tiers) != 2 {
		t.Fatalf("Tiers = %d, want 2", len(tiers))
	}
	if tiers[0].Profile.Name != DeviceP5800X.Name || tiers[1].Profile.Name != DeviceP4510.Name {
		t.Fatalf("tier profiles = %s/%s, want fast/dense", tiers[0].Profile.Name, tiers[1].Profile.Name)
	}
	if db.NumDevices() != 4 {
		t.Fatalf("NumDevices = %d, want 4", db.NumDevices())
	}
	rep := db.LastRetier()
	if rep == nil {
		t.Fatal("LastRetier nil after tiered Open")
	}
	if got := len(rep.TierPages); got != 2 {
		t.Fatalf("TierPages has %d tiers, want 2", got)
	}
	// The fast tier owns 1 of 4 stripe shards; the hotness pass must
	// concentrate reads on it beyond that share.
	if share := fastReadShare(t, db, eval.Queries); share <= 0.25 {
		t.Errorf("fast tier served %.1f%% of reads, want > 25%%", share*100)
	}
	if len(db.PinnedKeys()) != 8 {
		t.Errorf("PinnedKeys = %d, want 8", len(db.PinnedKeys()))
	}
}

func TestRefreshRetiersOnSkewShift(t *testing.T) {
	tr := smallTrace(t)
	history, eval := tr.Split(0.5)
	shiftedHistory := shiftKeys(history.Queries, tr.NumItems)
	shiftedEval := shiftKeys(eval.Queries, tr.NumItems)

	db, err := Open(tr.NumItems, history.Queries,
		tieredOptions(WithCacheRatio(0.02), WithDRAMPins(8))...)
	if err != nil {
		t.Fatal(err)
	}
	gen0 := db.LayoutGeneration()
	pins0 := db.PinnedKeys()

	// Promotion/demotion happens only at the refresh boundary: serving the
	// shifted workload must not move anything by itself.
	repBefore := *db.LastRetier()
	_ = fastReadShare(t, db, shiftedEval[:50])
	if got := *db.LastRetier(); got.Promoted != repBefore.Promoted ||
		got.Demoted != repBefore.Demoted || got.Moved != repBefore.Moved {
		t.Fatal("serving alone changed the tier report; re-tiering must wait for Refresh")
	}

	if err := db.Refresh(shiftedHistory); err != nil {
		t.Fatalf("Refresh: %v", err)
	}
	if got := db.LayoutGeneration(); got != gen0+1 {
		t.Fatalf("generation = %d after refresh, want %d", got, gen0+1)
	}
	rep := db.LastRetier()
	if rep == nil {
		t.Fatal("LastRetier nil after refresh")
	}
	if rep.Promoted == 0 || rep.Demoted == 0 {
		t.Fatalf("promoted/demoted = %d/%d after a wholesale skew shift, want both > 0",
			rep.Promoted, rep.Demoted)
	}
	// The pin-set follows the shifted hot set.
	pins1 := db.PinnedKeys()
	if len(pins1) != 8 {
		t.Fatalf("PinnedKeys = %d after refresh, want 8", len(pins1))
	}
	freq := placement.KeyFreq(tr.NumItems, shiftedHistory)
	for _, k := range pins1 {
		if freq[k] == 0 {
			t.Errorf("pinned key %d has zero frequency in the shifted history", k)
		}
	}
	same := 0
	for _, k := range pins1 {
		for _, o := range pins0 {
			if k == o {
				same++
			}
		}
	}
	if same == len(pins1) {
		t.Error("pin-set identical across a wholesale skew shift")
	}

	// The re-tiered layout serves the shifted workload from the fast tier
	// and every vector stays byte-correct across the generation swap.
	if share := fastReadShare(t, db, shiftedEval); share <= 0.25 {
		t.Errorf("fast tier served %.1f%% of shifted reads after refresh, want > 25%%", share*100)
	}
	sess := db.NewSession()
	var want []float32
	for _, q := range shiftedEval[:100] {
		res, err := sess.Lookup(q)
		if err != nil {
			t.Fatal(err)
		}
		for j, k := range res.Keys {
			want = db.syn.Vector(k, want[:0])
			for x := range want {
				if res.Refs[j].Float32(x) != want[x] {
					t.Fatalf("wrong vector for key %d after re-tier swap", k)
				}
			}
		}
	}
}

// TestRefreshDuringFastShardRebuild is the regression test for the stale
// tier-map race: Refresh samples the shard→tier map, releases the DB lock
// for the expensive placement/store rebuild, and used to apply the
// re-tier permutation against that snapshot even if a concurrent shard
// rebuild had replaced a failed fast shard with a dense spare in the
// meantime — promoting hot pages onto shards that were no longer fast.
// Refresh must detect the geometry change at swap time and redo the tier
// pass against the re-derived map. The test races a Refresh against a
// fail → rebuild of a fast-tier shard repeatedly; afterwards the DB's
// tier reports must agree with the live backend and every vector must
// still be byte-correct.
func TestRefreshDuringFastShardRebuild(t *testing.T) {
	tr := smallTrace(t)
	history, eval := tr.Split(0.5)
	db, err := Open(tr.NumItems, history.Queries,
		WithTiers(
			TierSpec{Profile: DeviceP5800X, Devices: 2},
			TierSpec{Profile: DeviceP4510, Devices: 2},
		),
		WithReplicationRatio(0.2),
		WithSeed(11),
		WithHotSpare(),
	)
	if err != nil {
		t.Fatal(err)
	}
	shifted := shiftKeys(history.Queries, tr.NumItems)

	// Two rounds: the first shrinks the fast tier (2×fast → 1×fast), the
	// second collapses it entirely (all-dense, single tier). Each round
	// races one Refresh against the fail+rebuild of a fast shard.
	for round := 0; round < 2; round++ {
		fastShards := db.Tiers()[0].Shards
		if db.Backend().(interface{ NumTiers() int }).NumTiers() < 2 {
			t.Fatalf("round %d: fast tier already gone", round)
		}
		victim := fastShards[0]
		refreshDone := make(chan error, 1)
		go func() { refreshDone <- db.Refresh(shifted) }()
		if err := db.FailShard(victim); err != nil {
			t.Fatalf("round %d: FailShard(%d): %v", round, victim, err)
		}
		if _, err := db.RebuildShard(context.Background(), victim, RebuildConfig{}); err != nil {
			t.Fatalf("round %d: RebuildShard(%d): %v", round, victim, err)
		}
		if err := <-refreshDone; err != nil {
			t.Fatalf("round %d: Refresh racing rebuild: %v", round, err)
		}
		if err := db.AttachSpare(); err != nil {
			t.Fatalf("round %d: AttachSpare: %v", round, err)
		}
	}
	if got := len(db.Tiers()); got != 1 {
		t.Fatalf("tiers after both fast shards rebuilt onto dense spares = %d, want 1", got)
	}

	// A quiesced Refresh must now agree with the collapsed geometry: no
	// tier pass on a single-tier array, and the layout it swaps in serves
	// every vector byte-correct.
	if err := db.Refresh(shifted); err != nil {
		t.Fatalf("post-collapse Refresh: %v", err)
	}
	if rep := db.LastRetier(); rep != nil {
		t.Errorf("LastRetier = %+v on a single-tier backend, want nil (stale tier map applied)", rep)
	}
	sess := db.NewSession()
	var want []float32
	for _, q := range shiftKeys(eval.Queries[:100], tr.NumItems) {
		res, err := sess.Lookup(q)
		if err != nil {
			t.Fatal(err)
		}
		for j, k := range res.Keys {
			want = db.syn.Vector(k, want[:0])
			for x := range want {
				if res.Refs[j].Float32(x) != want[x] {
					t.Fatalf("wrong vector for key %d after rebuild+refresh races", k)
				}
			}
		}
	}
}

func TestRefreshRetierUnderConcurrentLookups(t *testing.T) {
	tr := smallTrace(t)
	history, eval := tr.Split(0.5)
	db, err := Open(tr.NumItems, history.Queries, tieredOptions(WithCacheEntries(64))...)
	if err != nil {
		t.Fatal(err)
	}
	shifted := shiftKeys(history.Queries, tr.NumItems)

	const workers = 4
	stop := make(chan struct{})
	errs := make(chan error, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			sess := db.NewSession()
			var want []float32
			for i := w; ; i += workers {
				select {
				case <-stop:
					return
				default:
				}
				res, err := sess.Lookup(eval.Queries[i%len(eval.Queries)])
				if err != nil {
					select {
					case errs <- err:
					default:
					}
					return
				}
				for j, k := range res.Keys {
					want = db.syn.Vector(k, want[:0])
					for x := range want {
						if res.Refs[j].Float32(x) != want[x] {
							select {
							case errs <- errWrongVector:
							default:
							}
							return
						}
					}
				}
			}
		}(w)
	}

	gen0 := db.LayoutGeneration()
	for i := 0; i < 3; i++ {
		if err := db.Refresh(shifted); err != nil {
			t.Fatalf("Refresh %d under load: %v", i, err)
		}
		if got := db.LayoutGeneration(); got != gen0+uint64(i)+1 {
			t.Fatalf("generation = %d after refresh %d, want monotone %d", got, i, gen0+uint64(i)+1)
		}
	}
	close(stop)
	wg.Wait()
	select {
	case err := <-errs:
		t.Fatalf("lookup during re-tiering refresh: %v", err)
	default:
	}
	if db.PendingQueries() != 0 {
		t.Errorf("PendingQueries = %d after quiesce, want 0", db.PendingQueries())
	}
}
