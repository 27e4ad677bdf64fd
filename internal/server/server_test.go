package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"

	"maxembed/internal/embedding"
	"maxembed/internal/hypergraph"
	"maxembed/internal/placement"
	"maxembed/internal/serving"
	"maxembed/internal/ssd"
	"maxembed/internal/store"
	"maxembed/internal/workload"
)

const testDim = 16

// testStack bundles the serving stack behind a test server so fault tests
// can reach the device and engine directly.
type testStack struct {
	eng *serving.Engine
	dev *ssd.Device
	syn *embedding.Synthesizer
	tr  *workload.Trace
	cfg serving.Config
}

// newEngine builds another engine over the same layout, store, and device
// — what a layout refresh produces, as far as a swap is concerned.
func (s *testStack) newEngine(t testing.TB) *serving.Engine {
	t.Helper()
	e, err := serving.New(s.cfg)
	if err != nil {
		t.Fatal(err)
	}
	return e
}

func newTestStack(t testing.TB, ratio float64, mutate func(*serving.Config)) *testStack {
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
	strat := placement.StrategyMaxEmbed
	if ratio == 0 {
		strat = placement.StrategySHP
	}
	lay, err := placement.Build(strat, g, placement.Options{
		Capacity: embedding.PageCapacity(4096, testDim), ReplicationRatio: ratio, Seed: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	syn, err := embedding.NewSynthesizer(testDim, 5)
	if err != nil {
		t.Fatal(err)
	}
	st, err := store.Build(lay, syn, 4096)
	if err != nil {
		t.Fatal(err)
	}
	dev, err := ssd.NewDevice(ssd.P5800X)
	if err != nil {
		t.Fatal(err)
	}
	cfg := serving.Config{
		Layout:       lay,
		Device:       dev,
		Store:        st,
		CacheEntries: 100,
		IndexLimit:   10,
		Pipeline:     true,
	}
	if mutate != nil {
		mutate(&cfg)
	}
	eng, err := serving.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return &testStack{eng: eng, dev: dev, syn: syn, tr: tr, cfg: cfg}
}

func (s *testStack) serve(t *testing.T, opts ...Option) *httptest.Server {
	t.Helper()
	h := New(s.eng, s.dev, opts...)
	srv := httptest.NewServer(h)
	t.Cleanup(func() {
		srv.Close()
		h.Close()
	})
	return srv
}

func newTestServer(t *testing.T) (*httptest.Server, *embedding.Synthesizer, *workload.Trace) {
	t.Helper()
	s := newTestStack(t, 0.2, nil)
	return s.serve(t), s.syn, s.tr
}

func postLookup(t *testing.T, url string, keys []uint32) (*http.Response, LookupResponse) {
	t.Helper()
	body, err := json.Marshal(LookupRequest{Keys: keys})
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url+"/v1/lookup", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var lr LookupResponse
	if resp.StatusCode == http.StatusOK || resp.StatusCode == http.StatusPartialContent {
		if err := json.NewDecoder(resp.Body).Decode(&lr); err != nil {
			t.Fatal(err)
		}
	}
	return resp, lr
}

func TestLookupEndpoint(t *testing.T) {
	srv, syn, _ := newTestServer(t)
	keys := []uint32{1, 7, 42, 7} // with a duplicate
	resp, lr := postLookup(t, srv.URL, keys)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d", resp.StatusCode)
	}
	if len(lr.Embeddings) != 3 {
		t.Fatalf("embeddings = %d, want 3 (dedup)", len(lr.Embeddings))
	}
	var want []float32
	for _, k := range []uint32{1, 7, 42} {
		got, ok := lr.Embeddings[k]
		if !ok {
			t.Fatalf("key %d missing", k)
		}
		want = syn.Vector(k, want[:0])
		for j := range want {
			if got[j] != want[j] {
				t.Fatalf("key %d element %d: %v != %v", k, j, got[j], want[j])
			}
		}
	}
	if lr.Stats.DistinctKeys != 3 {
		t.Errorf("DistinctKeys = %d", lr.Stats.DistinctKeys)
	}
	if lr.Stats.PagesRead == 0 {
		t.Error("no pages read on cold lookup")
	}
	if lr.Stats.LatencyNS <= 0 {
		t.Error("non-positive latency")
	}
}

func TestLookupValidation(t *testing.T) {
	srv, _, _ := newTestServer(t)
	// Empty keys.
	resp, _ := postLookup(t, srv.URL, nil)
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("empty keys: status %d", resp.StatusCode)
	}
	// Out-of-range key.
	resp, _ = postLookup(t, srv.URL, []uint32{1 << 30})
	if resp.StatusCode != http.StatusUnprocessableEntity {
		t.Errorf("out-of-range key: status %d", resp.StatusCode)
	}
	// Malformed JSON.
	r, err := http.Post(srv.URL+"/v1/lookup", "application/json", bytes.NewReader([]byte("{nope")))
	if err != nil {
		t.Fatal(err)
	}
	r.Body.Close()
	if r.StatusCode != http.StatusBadRequest {
		t.Errorf("bad JSON: status %d", r.StatusCode)
	}
	// Wrong method.
	r, err = http.Get(srv.URL + "/v1/lookup")
	if err != nil {
		t.Fatal(err)
	}
	r.Body.Close()
	if r.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("GET lookup: status %d", r.StatusCode)
	}
}

func TestStatsEndpoint(t *testing.T) {
	srv, _, tr := newTestServer(t)
	for i := 0; i < 10; i++ {
		resp, _ := postLookup(t, srv.URL, tr.Queries[i])
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("lookup %d: status %d", i, resp.StatusCode)
		}
	}
	r, err := http.Get(srv.URL + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer r.Body.Close()
	var sr StatsResponse
	if err := json.NewDecoder(r.Body).Decode(&sr); err != nil {
		t.Fatal(err)
	}
	if sr.Device.Reads == 0 {
		t.Error("device reads not counted")
	}
	if sr.Cache == nil {
		t.Fatal("cache stats missing")
	}
	if sr.Latency.Count != 10 {
		t.Errorf("latency count = %d, want 10", sr.Latency.Count)
	}
	if sr.MeanValidPerRead <= 0 {
		t.Error("MeanValidPerRead not reported")
	}
}

func TestHealthEndpoint(t *testing.T) {
	srv, _, _ := newTestServer(t)
	r, err := http.Get(srv.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	r.Body.Close()
	if r.StatusCode != http.StatusOK {
		t.Errorf("healthz status = %d", r.StatusCode)
	}
}

func TestConcurrentLookups(t *testing.T) {
	srv, syn, tr := newTestServer(t)
	var wg sync.WaitGroup
	errs := make(chan error, 16)
	for w := 0; w < 16; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			var want []float32
			for i := w; i < 200; i += 16 {
				resp, lr := postLookup(t, srv.URL, tr.Queries[i])
				if resp.StatusCode != http.StatusOK {
					errs <- fmt.Errorf("query %d: status %d", i, resp.StatusCode)
					return
				}
				for k, got := range lr.Embeddings {
					want = syn.Vector(k, want[:0])
					for j := range want {
						if got[j] != want[j] {
							errs <- fmt.Errorf("query %d key %d wrong vector", i, k)
							return
						}
					}
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

func TestLookupTooManyKeys(t *testing.T) {
	srv, _, _ := newTestServer(t)
	keys := make([]uint32, maxLookupKeys+1)
	resp, _ := postLookup(t, srv.URL, keys)
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("oversized request: status %d", resp.StatusCode)
	}
}

func TestMetricsEndpoint(t *testing.T) {
	srv, _, tr := newTestServer(t)
	for i := 0; i < 5; i++ {
		if resp, _ := postLookup(t, srv.URL, tr.Queries[i]); resp.StatusCode != http.StatusOK {
			t.Fatalf("lookup: status %d", resp.StatusCode)
		}
	}
	r, err := http.Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer r.Body.Close()
	body, err := io.ReadAll(r.Body)
	if err != nil {
		t.Fatal(err)
	}
	text := string(body)
	// Which families exist is TestStatsSurfaceGolden's to pin; this holds a
	// value.
	if metric := "maxembed_lookups_total 5"; !strings.Contains(text, metric) {
		t.Errorf("metrics output missing %q:\n%s", metric, text)
	}
}
