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

// newTieredServer serves a layout striped over a 1×P5800X + 3×P4510 tiered
// array, with a small cache so the admission counters are live too.
func newTieredServer(t *testing.T) (*httptest.Server, *ssd.Array, *workload.Trace) {
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
		ShadowSizes:  []int{32, 128, 512},
		IndexLimit:   10,
		Pipeline:     true,
	})
	if err != nil {
		t.Fatal(err)
	}
	h := New(eng, arr)
	srv := httptest.NewServer(h)
	t.Cleanup(func() {
		srv.Close()
		h.Close()
	})
	return srv, arr, tr
}

func TestStatsEndpointTiers(t *testing.T) {
	srv, arr, tr := newTieredServer(t)
	for i := 0; i < 80; i++ {
		if resp, _ := postLookup(t, srv.URL, tr.Queries[i]); resp.StatusCode != http.StatusOK {
			t.Fatalf("lookup %d: status %d", i, resp.StatusCode)
		}
	}
	resp, err := http.Get(srv.URL + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	var sr StatsResponse
	if err := json.Unmarshal(body, &sr); err != nil {
		t.Fatal(err)
	}

	// Shard entries carry profile names and tier ranks matching the array.
	if len(sr.Shards) != 4 {
		t.Fatalf("stats reported %d shards, want 4", len(sr.Shards))
	}
	for i, entry := range sr.Shards {
		if want := arr.Shard(i).Profile().Name; entry.Profile != want {
			t.Errorf("shard %d profile = %q, want %q", i, entry.Profile, want)
		}
		if want := arr.TierOf(i); entry.Tier != want {
			t.Errorf("shard %d tier = %d, want %d", i, entry.Tier, want)
		}
	}

	// Tier aggregates: fastest first, consistent with shard sums.
	if len(sr.Tiers) != 2 {
		t.Fatalf("stats reported %d tiers, want 2", len(sr.Tiers))
	}
	if sr.Tiers[0].Profile != "P5800X" || sr.Tiers[1].Profile != "P4510" {
		t.Fatalf("tier profiles = %q/%q, want P5800X/P4510", sr.Tiers[0].Profile, sr.Tiers[1].Profile)
	}
	var reads, pages int64
	var share float64
	for _, te := range sr.Tiers {
		if te.Reads == 0 {
			t.Errorf("tier %d reports no reads", te.Tier)
		}
		if te.Pages == 0 {
			t.Errorf("tier %d reports no pages", te.Tier)
		}
		if te.RatedBandwidth <= 0 {
			t.Errorf("tier %d rated bandwidth = %v", te.Tier, te.RatedBandwidth)
		}
		reads += te.Reads
		pages += int64(te.Pages)
		share += te.ReadShare
	}
	if reads != sr.Device.Reads {
		t.Errorf("tier read sum %d != device reads %d", reads, sr.Device.Reads)
	}
	if share < 0.999 || share > 1.001 {
		t.Errorf("tier read shares sum to %v, want 1", share)
	}

	// The admission outcome is readable: on a cache this small every kind
	// of miss-fill happened — solo keys evicting, solo keys the gate turned
	// down, shared-read keys passing a full shard by.
	if sr.Cache == nil {
		t.Fatal("no cache block")
	}
	for _, field := range []string{`"bypassed":`, `"rejected":`, `"sketch_resets":`} {
		if !strings.Contains(string(body), field) {
			t.Errorf("cache block has no %s field", field)
		}
	}
	if sr.Cache.Evictions == 0 || sr.Cache.Bypassed == 0 || sr.Cache.Rejected == 0 {
		t.Errorf("evictions %d, bypassed %d, rejected %d: want all non-zero on a full 64-entry cache",
			sr.Cache.Evictions, sr.Cache.Bypassed, sr.Cache.Rejected)
	}

	// The ghost-cache miss-rate curve rides along: one point per simulated
	// capacity, ascending, with hit rates monotone in capacity.
	if len(sr.Shadow) != 3 {
		t.Fatalf("shadow curve has %d points, want 3", len(sr.Shadow))
	}
	for i, p := range sr.Shadow {
		if p.Accesses == 0 {
			t.Fatalf("shadow point %d saw no accesses", i)
		}
		if i > 0 {
			if p.Capacity <= sr.Shadow[i-1].Capacity {
				t.Errorf("shadow capacities not ascending at %d", i)
			}
			if p.HitRate < sr.Shadow[i-1].HitRate {
				t.Errorf("shadow hit rate fell from %.3f to %.3f at capacity %d",
					sr.Shadow[i-1].HitRate, p.HitRate, p.Capacity)
			}
		}
	}
}

func TestMetricsEndpointTiers(t *testing.T) {
	srv, _, tr := newTieredServer(t)
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
	// The families and their kinds are in TestStatsSurfaceGolden's golden;
	// what is checked here is the label set each tier's samples carry.
	for _, want := range []string{
		"maxembed_tier_reads_total{tier=\"0\",profile=\"P5800X\"}",
		"maxembed_tier_reads_total{tier=\"1\",profile=\"P4510\"}",
		"maxembed_tier_pages{tier=\"0\",profile=\"P5800X\"}",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("metrics missing %q", want)
		}
	}
}

// TestMetricsEndpointHomogeneousNoTiers: single-tier backends emit no tier
// families, so dashboards can key panels off their presence.
func TestMetricsEndpointHomogeneousNoTiers(t *testing.T) {
	srv, _, tr := newShardedServer(t)
	if resp, _ := postLookup(t, srv.URL, tr.Queries[0]); resp.StatusCode != http.StatusOK {
		t.Fatal("lookup failed")
	}
	resp, err := http.Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(resp.Body)
	if strings.Contains(string(body), "maxembed_tier_") {
		t.Error("homogeneous backend emitted tier metrics")
	}
	var sr StatsResponse
	statsResp, err := http.Get(srv.URL + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer statsResp.Body.Close()
	if err := json.NewDecoder(statsResp.Body).Decode(&sr); err != nil {
		t.Fatal(err)
	}
	if sr.Tiers != nil {
		t.Errorf("homogeneous backend reported tiers: %+v", sr.Tiers)
	}
}
