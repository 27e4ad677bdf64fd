package maxembed

import "testing"

// TestCoActivationPlacementOption: WithCoActivationPlacement on a striped
// array runs the despread pass at Open, publishes its report, and keeps
// every vector byte-correct under the permuted page IDs.
func TestCoActivationPlacementOption(t *testing.T) {
	tr := smallTrace(t)
	history, eval := tr.Split(0.5)
	db, err := Open(tr.NumItems, history.Queries,
		WithReplicationRatio(0.3), WithDevices(4), WithSeed(3),
		WithCoActivationPlacement(), WithHistoryRecording(256))
	if err != nil {
		t.Fatal(err)
	}
	rep := db.LastDespread()
	if rep == nil {
		t.Fatal("coact enabled on a 4-device array but LastDespread is nil")
	}
	if rep.Shards != 4 {
		t.Fatalf("despread report covers %d shards, want 4", rep.Shards)
	}
	if rep.Edges == 0 {
		t.Error("coact despread scored no co-activation edges")
	}
	if rep.MeanDepthAfter > rep.MeanDepthBefore {
		t.Errorf("despread worsened mean max-shard depth: %v -> %v",
			rep.MeanDepthBefore, rep.MeanDepthAfter)
	}
	if rep.UncoveredKeysAfter > rep.UncoveredKeysBefore {
		t.Errorf("despread worsened replica coverage: %d -> %d uncovered",
			rep.UncoveredKeysBefore, rep.UncoveredKeysAfter)
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
					t.Fatalf("query %d: wrong vector for key %d after despread", i, k)
				}
			}
		}
	}

	// A refresh re-runs the pass against the fresh layout; the published
	// report tracks the swap rather than going stale.
	if err := db.Refresh(eval.Queries[:200]); err != nil {
		t.Fatal(err)
	}
	rep2 := db.LastDespread()
	if rep2 == nil {
		t.Fatal("LastDespread nil after refresh with coact enabled")
	}
	if rep2 == rep {
		t.Error("refresh did not replace the despread report")
	}
}

// TestDespreadReportAbsentWithoutTrigger: no coact option and no tiers means
// no despread pass — striped or single-device alike report nil.
func TestDespreadReportAbsentWithoutTrigger(t *testing.T) {
	tr := smallTrace(t)
	history, _ := tr.Split(0.5)
	for _, tc := range []struct {
		name string
		opts []Option
	}{
		{"single-device", nil},
		{"striped-no-coact", []Option{WithDevices(2)}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			opts := append([]Option{WithReplicationRatio(0.2), WithSeed(3)}, tc.opts...)
			db, err := Open(tr.NumItems, history.Queries, opts...)
			if err != nil {
				t.Fatal(err)
			}
			if rep := db.LastDespread(); rep != nil {
				t.Errorf("unexpected despread report: %+v", rep)
			}
		})
	}
}

// TestTieredArrayDespreadsByDefault: tiered arrays always run the pass in
// diversity-only mode (no co-activation edges unless coact is also set), so
// replica shard-diversity within each tier's residue classes is repaired.
func TestTieredArrayDespreadsByDefault(t *testing.T) {
	tr := smallTrace(t)
	history, _ := tr.Split(0.5)
	db, err := Open(tr.NumItems, history.Queries,
		WithReplicationRatio(0.3), WithSeed(3),
		WithTiers(
			TierSpec{Profile: DeviceP5800X, Devices: 1},
			TierSpec{Profile: DeviceP4510, Devices: 3},
		))
	if err != nil {
		t.Fatal(err)
	}
	rep := db.LastDespread()
	if rep == nil {
		t.Fatal("tiered array did not run the despread pass")
	}
	if rep.Edges != 0 {
		t.Errorf("diversity-only pass scored %d edges, want 0", rep.Edges)
	}
	if rep.Tiers != 2 {
		t.Errorf("despread report covers %d tiers, want 2", rep.Tiers)
	}
}
