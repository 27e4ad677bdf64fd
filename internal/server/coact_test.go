package server

import (
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"maxembed/internal/embedding"
	"maxembed/internal/hypergraph"
	"maxembed/internal/placement"
	"maxembed/internal/serving"
	"maxembed/internal/ssd"
	"maxembed/internal/store"
	"maxembed/internal/workload"
)

// fixedSpread is a SpreadReporter pinned to one report, standing in for
// maxembed.DB in handler tests.
type fixedSpread struct{ rep *placement.SpreadReport }

func (f fixedSpread) LastDespread() *placement.SpreadReport { return f.rep }

// newCoactServer mirrors newTieredServer but runs the co-activation despread
// pass after Retier and wires its report into the handler, exercising the
// full Build → Retier → Despread composition behind the HTTP surface.
func newCoactServer(t *testing.T) (*httptest.Server, *placement.SpreadReport, *workload.Trace) {
	t.Helper()
	p := workload.Profile{
		Name: "t", Items: 800, Queries: 1500, MeanQueryLen: 8,
		Communities: 60, CommunityAffinity: 0.8, CommunitySpread: 0.5,
		ZipfS: 1.2, PopularityOffset: 0.05, Seed: 3,
	}
	tr, err := workload.Generate(p)
	if err != nil {
		t.Fatal(err)
	}
	g, err := hypergraph.FromQueries(tr.NumItems, tr.Queries)
	if err != nil {
		t.Fatal(err)
	}
	lay, err := placement.Build(placement.StrategyMaxEmbed, g, placement.Options{
		Capacity: embedding.PageCapacity(4096, testDim), ReplicationRatio: 0.2,
		Seed: 1, Shards: 4,
	})
	if err != nil {
		t.Fatal(err)
	}
	arr, err := ssd.NewTieredArray([]ssd.TierSpec{
		{Profile: ssd.P5800X, Devices: 1},
		{Profile: ssd.P4510, Devices: 3},
	})
	if err != nil {
		t.Fatal(err)
	}
	lay, _, err = placement.Retier(lay,
		placement.PageHeat(lay, placement.KeyFreq(lay.NumKeys, tr.Queries)),
		arr.TierShardMap())
	if err != nil {
		t.Fatal(err)
	}
	lay, rep, err := placement.Despread(lay, g, 4, arr.TierShardMap())
	if err != nil {
		t.Fatal(err)
	}
	syn, err := embedding.NewSynthesizer(testDim, 5)
	if err != nil {
		t.Fatal(err)
	}
	sh, err := store.BuildSharded(lay, syn, 4096, 4)
	if err != nil {
		t.Fatal(err)
	}
	eng, err := serving.New(serving.Config{
		Layout:       lay,
		Backend:      arr,
		Store:        sh,
		CacheEntries: 64,
		IndexLimit:   10,
		Pipeline:     true,
	})
	if err != nil {
		t.Fatal(err)
	}
	h := New(eng, arr, WithSpreadReport(fixedSpread{rep: rep}))
	srv := httptest.NewServer(h)
	t.Cleanup(func() {
		srv.Close()
		h.Close()
	})
	return srv, rep, tr
}

func TestStatsEndpointCoact(t *testing.T) {
	srv, rep, tr := newCoactServer(t)
	const lookups = 80
	for i := 0; i < lookups; i++ {
		if resp, _ := postLookup(t, srv.URL, tr.Queries[i]); resp.StatusCode != http.StatusOK {
			t.Fatalf("lookup %d: status %d", i, resp.StatusCode)
		}
	}
	resp, err := http.Get(srv.URL + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var sr StatsResponse
	if err := json.NewDecoder(resp.Body).Decode(&sr); err != nil {
		t.Fatal(err)
	}
	if sr.Coact == nil {
		t.Fatal("multi-shard backend reported no coact block")
	}
	if sr.Coact.Queries != lookups {
		t.Errorf("coact depth queries = %d, want %d", sr.Coact.Queries, lookups)
	}
	if sr.Coact.MeanMaxShardDepth < 1 {
		t.Errorf("mean max-shard depth = %v, want >= 1", sr.Coact.MeanMaxShardDepth)
	}
	pl := sr.Coact.Placement
	if pl == nil {
		t.Fatal("despread pass ran but no placement block surfaced")
	}
	if pl.Shards != rep.Shards || pl.Tiers != rep.Tiers {
		t.Errorf("placement geometry %d shards/%d tiers, want %d/%d",
			pl.Shards, pl.Tiers, rep.Shards, rep.Tiers)
	}
	if pl.Edges == 0 {
		t.Error("despread with a co-activation graph scored no edges")
	}
	if pl.MeanDepthAfter > pl.MeanDepthBefore {
		t.Errorf("despread worsened mean depth: %v -> %v",
			pl.MeanDepthBefore, pl.MeanDepthAfter)
	}
	if pl.UncoveredKeysAfter > pl.UncoveredKeysBefore {
		t.Errorf("despread worsened replica coverage: %d -> %d uncovered",
			pl.UncoveredKeysBefore, pl.UncoveredKeysAfter)
	}
}

func TestMetricsEndpointCoact(t *testing.T) {
	srv, _, tr := newCoactServer(t)
	for i := 0; i < 20; i++ {
		if resp, _ := postLookup(t, srv.URL, tr.Queries[i]); resp.StatusCode != http.StatusOK {
			t.Fatalf("lookup %d: status %d", i, resp.StatusCode)
		}
	}
	resp, err := http.Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	text := string(body)
	for _, want := range []string{
		"# TYPE maxembed_coact_mean_max_shard_depth gauge",
		"# TYPE maxembed_coact_depth_queries gauge",
		"# TYPE maxembed_coact_moved_pages gauge",
		"# TYPE maxembed_coact_edges_scored gauge",
		"# TYPE maxembed_coact_mean_depth_before gauge",
		"# TYPE maxembed_coact_mean_depth_after gauge",
		"# TYPE maxembed_coact_replica_collisions gauge",
		"# TYPE maxembed_coact_uncovered_keys gauge",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("metrics missing %q", want)
		}
	}
}

// TestCoactOmittedOnOneShard: one-shard backends have nothing to spread, so
// neither /v1/stats nor /metrics mention co-activation — dashboards key
// panels off family presence, mirroring the tier metrics contract.
func TestCoactOmittedOnOneShard(t *testing.T) {
	srv, _, tr := newTestServer(t)
	if resp, _ := postLookup(t, srv.URL, tr.Queries[0]); resp.StatusCode != http.StatusOK {
		t.Fatal("lookup failed")
	}
	resp, err := http.Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(resp.Body)
	if strings.Contains(string(body), "maxembed_coact_") {
		t.Error("one-shard backend emitted coact metrics")
	}
	statsResp, err := http.Get(srv.URL + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer statsResp.Body.Close()
	var sr StatsResponse
	if err := json.NewDecoder(statsResp.Body).Decode(&sr); err != nil {
		t.Fatal(err)
	}
	if sr.Coact != nil {
		t.Errorf("one-shard backend reported coact block: %+v", sr.Coact)
	}
}
