package server

import (
	"context"
	"encoding/json"
	"flag"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"sort"
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

var updateGolden = flag.Bool("update", false, "rewrite testdata/stats_surface.golden from what the handlers serve now")

const surfaceGolden = "testdata/stats_surface.golden"

// surfaceAdmin is everything a maxembed.DB is to a handler — refresh
// source, shard admin and scrubber — over one serving config, so a
// refresh or a rebuild swaps in an engine that still has the cache and
// the shadow caches.
type surfaceAdmin struct {
	handle *serving.Swappable
	cfg    serving.Config
}

func (a *surfaceAdmin) arr() *ssd.Array { return a.handle.Engine().Backend().(*ssd.Array) }

func (a *surfaceAdmin) swap(be ssd.Backend) error {
	cfg := a.cfg
	cfg.Backend = be
	eng, err := serving.New(cfg)
	if err != nil {
		return err
	}
	_, err = a.handle.Swap(eng)
	return err
}

func (a *surfaceAdmin) PendingQueries() int64              { return 7 }
func (a *surfaceAdmin) RefreshNow() error                  { return a.swap(a.arr()) }
func (a *surfaceAdmin) ShardHealth() []ssd.ShardHealthInfo { return a.arr().ShardHealths() }

func (a *surfaceAdmin) FailShard(i int) error {
	a.arr().SetShardFaultModel(i, ssd.AlwaysFail{})
	a.arr().FailShard(i)
	return nil
}

func (a *surfaceAdmin) RebuildShard(ctx context.Context, shard int, cfg serving.RebuildConfig) (serving.RebuildReport, error) {
	nb, rep, err := serving.RebuildShard(ctx, a.handle.Engine(), shard, cfg)
	if err != nil {
		return rep, err
	}
	return rep, a.swap(nb)
}

func (a *surfaceAdmin) Scrub(ctx context.Context, cfg serving.ScrubConfig) (serving.ScrubReport, error) {
	return serving.Scrub(ctx, a.handle.Engine(), cfg)
}

// newSurfaceServer is a handler with every stats block live: a tiered
// 4-shard array with a hot spare, a cache, shadow caches, the
// coalescer, a despread report, a refresh source and the scrub/rebuild
// admin.
func newSurfaceServer(t *testing.T) (*httptest.Server, *Handler, *workload.Trace) {
	t.Helper()
	tr, err := workload.Generate(workload.Profile{
		Name: "t", Items: 800, Queries: 1500, MeanQueryLen: 8,
		Communities: 60, CommunityAffinity: 0.8, CommunitySpread: 0.5,
		ZipfS: 1.2, PopularityOffset: 0.05, Seed: 3,
	})
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
	spare, err := ssd.NewDevice(ssd.P4510)
	if err != nil {
		t.Fatal(err)
	}
	if err := arr.AttachSpare(spare); err != nil {
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
	cfg := serving.Config{
		Layout: lay, Backend: arr, Store: sh,
		CacheEntries: 64, ShadowSizes: []int{32, 128},
		IndexLimit: 10, Pipeline: true,
	}
	eng, err := serving.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	admin := &surfaceAdmin{handle: serving.NewSwappable(eng), cfg: cfg}
	h := NewDynamic(admin.handle, arr, WithSpreadReport(fixedSpread{rep: rep}),
		WithRefresh(admin), WithShardAdmin(admin), WithScrub(admin))
	srv := httptest.NewServer(h)
	t.Cleanup(func() {
		srv.Close()
		h.Close()
	})
	return srv, h, tr
}

// jsonPaths appends the path of every leaf under v ("shards[].reads"); an
// empty object or array is its own leaf.
func jsonPaths(prefix string, v any, out map[string]bool) {
	switch v := v.(type) {
	case map[string]any:
		for k, e := range v {
			jsonPaths(strings.TrimPrefix(prefix+"."+k, "."), e, out)
		}
		if len(v) > 0 {
			return
		}
	case []any:
		for _, e := range v {
			jsonPaths(prefix+"[]", e, out)
		}
		if len(v) > 0 {
			return
		}
	}
	out[prefix] = true
}

func httpGet(t *testing.T, url string) []byte {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: status %d: %s", url, resp.StatusCode, body)
	}
	return body
}

// scrapeSurface adds what the server exports right now to the surface:
// one "<fixture> metrics # TYPE name kind" entry per family and one
// "<fixture> json path" entry per /v1/stats leaf.
func scrapeSurface(t *testing.T, fixture, url string, out map[string]bool) {
	t.Helper()
	for _, line := range strings.Split(string(httpGet(t, url+"/metrics")), "\n") {
		if strings.HasPrefix(line, "# TYPE ") {
			out[fixture+" metrics "+line] = true
		}
	}
	var stats any
	if err := json.Unmarshal(httpGet(t, url+"/v1/stats"), &stats); err != nil {
		t.Fatal(err)
	}
	paths := map[string]bool{}
	jsonPaths("", stats, paths)
	for p := range paths {
		out[fixture+" json "+p] = true
	}
}

func mustPost(t *testing.T, url string) {
	t.Helper()
	resp, err := http.Post(url, "application/json", nil)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		body, _ := io.ReadAll(resp.Body)
		t.Fatalf("POST %s: status %d: %s", url, resp.StatusCode, body)
	}
}

// TestStatsSurfaceGolden pins the exported surface — every /metrics
// family with its kind and every /v1/stats key path — against
// testdata/stats_surface.golden, which was generated before the stats
// were moved onto one tree of tagged snapshots. A name that disappears or
// changes kind fails; a new one fails until the golden is regenerated
// with -update, so additions show up in the diff. On the way it holds the
// two renderers to each other: every counter and gauge on /metrics equals
// its JSON twin in the same snapshot (checkTwins).
func TestStatsSurfaceGolden(t *testing.T) {
	got := map[string]bool{}

	// Everything on, scraped in each state that makes an optional key
	// appear: serving, one shard failed, then refreshed, scrubbed and
	// rebuilt.
	srv, h, tr := newSurfaceServer(t)
	lookups := func(from, to int) {
		for i := from; i < to; i++ {
			if resp, _ := postLookup(t, srv.URL, tr.Queries[i]); resp.StatusCode != http.StatusOK {
				t.Fatalf("lookup %d: status %d", i, resp.StatusCode)
			}
		}
	}
	lookups(0, 60)
	scrapeSurface(t, "full", srv.URL, got)
	mustPost(t, srv.URL+"/v1/shards/1/fail")
	lookups(60, 90)
	scrapeSurface(t, "full", srv.URL, got)
	checkSnapshotTwins(t, h.snapshot())
	mustPost(t, srv.URL+"/v1/refresh")
	mustPost(t, srv.URL+"/v1/scrub")
	mustPost(t, srv.URL+"/v1/shards/1/rebuild")
	lookups(90, 120)
	scrapeSurface(t, "full", srv.URL, got)
	checkSnapshotTwins(t, h.snapshot())

	// The real-I/O backend adds the executor block and the measured
	// read-latency histogram.
	fs := newFileStack(t, 2, nil)
	fh := New(fs.eng, fs.fb)
	fsrv := httptest.NewServer(fh)
	t.Cleanup(func() {
		fsrv.Close()
		fh.Close()
	})
	for i := 0; i < 10; i++ {
		if resp, _ := postLookup(t, fsrv.URL, fs.tr.Queries[i]); resp.StatusCode != http.StatusOK {
			t.Fatalf("file lookup %d: status %d", i, resp.StatusCode)
		}
	}
	scrapeSurface(t, "file", fsrv.URL, got)
	checkSnapshotTwins(t, fh.snapshot())

	lines := make([]string, 0, len(got))
	for l := range got {
		lines = append(lines, l)
	}
	sort.Strings(lines)
	if *updateGolden {
		if err := os.WriteFile(surfaceGolden, []byte(strings.Join(lines, "\n")+"\n"), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	data, err := os.ReadFile(surfaceGolden)
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]bool{}
	for _, l := range strings.Split(strings.TrimSpace(string(data)), "\n") {
		// The ring counters exist on the io_uring executor only.
		if strings.Contains(l, "ring_enters") || strings.Contains(l, "reads_per_enter") {
			if fs.fb.ExecutorKind() != "io_uring" {
				continue
			}
		}
		want[l] = true
		if !got[l] {
			t.Errorf("no longer served: %s", l)
		}
	}
	for _, l := range lines {
		if !want[l] {
			t.Errorf("not in %s (rerun with -update if the addition is meant): %s", surfaceGolden, l)
		}
	}
}
