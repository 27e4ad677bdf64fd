package server

import (
	"encoding/json"
	"io"
	"net/http"
	"strings"
	"testing"

	"maxembed/internal/serving"
	"maxembed/internal/ssd"
)

// pageFaultModel injects a fixed, persistent fault on selected pages —
// dead-block semantics: re-reads of a listed page always fail the same
// way, so only a replica rescue (or degradation) resolves it.
type pageFaultModel struct {
	faults map[ssd.PageID]ssd.Fault
}

func (m pageFaultModel) Judge(_ int64, p ssd.PageID) ssd.Fault { return m.faults[p] }

func getJSON(t *testing.T, url string, v any) *http.Response {
	t.Helper()
	r, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Body.Close()
	if v != nil {
		if err := json.NewDecoder(r.Body).Decode(v); err != nil {
			t.Fatalf("GET %s: decode: %v", url, err)
		}
	}
	return r
}

// TestLookupPartialContent kills the only candidate page of one key in an
// unreplicated layout and checks the HTTP surface degrades: 206 with the
// key in failed_keys, healthy keys still served, counters visible in
// /v1/stats.
func TestLookupPartialContent(t *testing.T) {
	s := newTestStack(t, 0, nil) // SHP, no replicas
	bad := serving.Key(5)
	cands := s.eng.Index().Candidates(bad)
	if len(cands) != 1 {
		t.Fatalf("expected single candidate in unreplicated layout, got %d", len(cands))
	}
	// A healthy key living on a different page.
	healthy := serving.Key(0)
	for k := serving.Key(0); k < 800; k++ {
		if c := s.eng.Index().Candidates(k); len(c) == 1 && c[0] != cands[0] {
			healthy = k
			break
		}
	}
	s.dev.SetFaultModel(pageFaultModel{faults: map[ssd.PageID]ssd.Fault{
		ssd.PageID(cands[0]): {Err: ssd.ErrReadFailed},
	}})
	srv := s.serve(t)

	resp, lr := postLookup(t, srv.URL, []uint32{uint32(bad), uint32(healthy)})
	if resp.StatusCode != http.StatusPartialContent {
		t.Fatalf("status = %d, want 206", resp.StatusCode)
	}
	if !lr.Degraded {
		t.Error("degraded flag not set on partial response")
	}
	if len(lr.FailedKeys) != 1 || lr.FailedKeys[0] != uint32(bad) {
		t.Errorf("failed_keys = %v, want [%d]", lr.FailedKeys, bad)
	}
	if _, ok := lr.Embeddings[uint32(bad)]; ok {
		t.Error("failed key present in embeddings")
	}
	if v, ok := lr.Embeddings[uint32(healthy)]; !ok || len(v) != testDim {
		t.Errorf("healthy key not served alongside the failure: ok=%v len=%d", ok, len(v))
	}
	if lr.Stats.Retries == 0 {
		t.Error("no retries reported before degrading")
	}

	var sr StatsResponse
	getJSON(t, srv.URL+"/v1/stats", &sr)
	if sr.Recovery.FailedKeys != 1 || sr.Recovery.DegradedQueries != 1 {
		t.Errorf("recovery failed_keys/degraded = %d/%d, want 1/1",
			sr.Recovery.FailedKeys, sr.Recovery.DegradedQueries)
	}
	if sr.Recovery.ReadErrors == 0 || sr.Recovery.Retries == 0 {
		t.Errorf("recovery counters empty: %+v", sr.Recovery)
	}
	if sr.Device.Errors == 0 {
		t.Error("device errors not surfaced in stats")
	}
}

// TestLookupReplicaRescueIsTransparent breaks all but one candidate page
// of a replicated key and checks the client sees a plain 200 — the rescue
// shows up only in the per-query stats.
func TestLookupReplicaRescueIsTransparent(t *testing.T) {
	s := newTestStack(t, 0.4, nil)
	var key serving.Key
	var cands []ssd.PageID
	for k := serving.Key(0); k < 800; k++ {
		if c := s.eng.Index().Candidates(k); len(c) >= 2 {
			key = k
			for _, p := range c {
				cands = append(cands, ssd.PageID(p))
			}
			break
		}
	}
	if len(cands) < 2 {
		t.Fatal("fixture has no replicated key")
	}
	m := pageFaultModel{faults: map[ssd.PageID]ssd.Fault{}}
	for _, p := range cands[:len(cands)-1] {
		m.faults[p] = ssd.Fault{Err: ssd.ErrReadFailed}
	}
	s.dev.SetFaultModel(m)
	srv := s.serve(t)

	resp, lr := postLookup(t, srv.URL, []uint32{uint32(key)})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d, want 200 (rescue should be transparent)", resp.StatusCode)
	}
	if lr.Degraded || len(lr.FailedKeys) != 0 {
		t.Errorf("degraded response despite replica: %+v", lr)
	}
	if lr.Stats.ReplicaRescues != 1 {
		t.Errorf("replica_rescues = %d, want 1", lr.Stats.ReplicaRescues)
	}
	want := s.syn.Vector(uint32(key), nil)
	got := lr.Embeddings[uint32(key)]
	for j := range want {
		if got[j] != want[j] {
			t.Fatalf("rescued vector wrong at element %d", j)
		}
	}
}

// TestUnhealthyShedsAndRecovers drives the rolling error-rate window over
// its threshold, then checks load shedding (503 + Retry-After with every
// Nth probe admitted), the readiness probe, the exported gauges, and that
// clearing the fault brings the server back through probe traffic alone.
func TestUnhealthyShedsAndRecovers(t *testing.T) {
	s := newTestStack(t, 0, nil)
	s.dev.SetFaultModel(ssd.NewInjector(ssd.InjectorConfig{Seed: 1, ReadErrorProb: 1}))
	srv := s.serve(t,
		WithHealthWindow(16),
		WithUnhealthyThreshold(0.25, 4),
		WithRetryAfter(7),
	)

	// Cold window: the first request is admitted and fails everything.
	keys := []uint32{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12}
	resp, lr := postLookup(t, srv.URL, keys)
	if resp.StatusCode != http.StatusPartialContent {
		t.Fatalf("first lookup status = %d, want 206", resp.StatusCode)
	}
	if !lr.Degraded || len(lr.FailedKeys) == 0 {
		t.Fatal("first lookup not degraded despite 100% read errors")
	}

	// Readiness probe flips.
	r := getJSON(t, srv.URL+"/healthz", nil)
	if r.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("healthz status = %d, want 503", r.StatusCode)
	}
	if ra := r.Header.Get("Retry-After"); ra != "7" {
		t.Errorf("healthz Retry-After = %q, want \"7\"", ra)
	}
	var hz struct {
		Status       string  `json:"status"`
		ErrorRate    float64 `json:"error_rate"`
		WindowEvents int64   `json:"window_events"`
	}
	getJSON(t, srv.URL+"/healthz", &hz)
	if hz.Status != "unhealthy" || hz.ErrorRate <= 0.25 || hz.WindowEvents < 4 {
		t.Errorf("healthz body = %+v", hz)
	}

	// Lookups shed with 503 + Retry-After; every 8th is admitted as a
	// probe (probeSeq counts only while unhealthy, so requests 1..7 shed
	// and request 8 goes through).
	var shed, admitted int
	for i := 1; i <= 8; i++ {
		resp, _ := postLookup(t, srv.URL, keys)
		switch resp.StatusCode {
		case http.StatusServiceUnavailable:
			shed++
			if ra := resp.Header.Get("Retry-After"); ra != "7" {
				t.Errorf("shed response Retry-After = %q, want \"7\"", ra)
			}
		case http.StatusPartialContent:
			admitted++
		default:
			t.Fatalf("request %d: unexpected status %d", i, resp.StatusCode)
		}
	}
	if shed != 7 || admitted != 1 {
		t.Errorf("shed/admitted = %d/%d, want 7/1", shed, admitted)
	}

	// Unhealthy state is visible on the scrape endpoints.
	var sr StatsResponse
	getJSON(t, srv.URL+"/v1/stats", &sr)
	if sr.Health.Ready {
		t.Error("/v1/stats reports ready while unhealthy")
	}
	if sr.Health.ErrorRate <= 0.25 {
		t.Errorf("/v1/stats error_rate = %v", sr.Health.ErrorRate)
	}
	mr, err := http.Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(mr.Body)
	mr.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(body), "maxembed_ready 0") {
		t.Error("/metrics missing maxembed_ready 0 while unhealthy")
	}

	// Device recovers: probe traffic alone must refresh the window and
	// re-open the server with no operator action.
	s.dev.SetFaultModel(nil)
	recovered := false
	for i := 0; i < 200; i++ {
		postLookup(t, srv.URL, keys)
		if r := getJSON(t, srv.URL+"/healthz", nil); r.StatusCode == http.StatusOK {
			recovered = true
			break
		}
	}
	if !recovered {
		t.Fatal("server never recovered after the fault cleared")
	}
	resp, lr = postLookup(t, srv.URL, keys)
	if resp.StatusCode != http.StatusOK || lr.Degraded {
		t.Errorf("post-recovery lookup: status %d degraded %v", resp.StatusCode, lr.Degraded)
	}
}

// TestMetricsExposeFaultCounters: a healthy server says so on /metrics.
// (That every fault counter is exported, even at zero, is part of the
// surface TestStatsSurfaceGolden pins.)
func TestMetricsExposeFaultCounters(t *testing.T) {
	srv, _, tr := newTestServer(t)
	if resp, _ := postLookup(t, srv.URL, tr.Queries[0]); resp.StatusCode != http.StatusOK {
		t.Fatalf("lookup status %d", resp.StatusCode)
	}
	text := string(httpGet(t, srv.URL+"/metrics"))
	for _, metric := range []string{
		"maxembed_read_errors_total 0",
		"maxembed_read_error_rate 0",
		"maxembed_ready 1",
	} {
		if !strings.Contains(text, metric+"\n") {
			t.Errorf("metrics output missing %q", metric)
		}
	}
}
