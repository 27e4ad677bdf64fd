package main

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// buildServer compiles cmd/maxembed-server once for the self-test.
func buildServer(t *testing.T) string {
	t.Helper()
	bin := filepath.Join(t.TempDir(), "maxembed-server")
	out, err := exec.Command("go", "build", "-o", bin, "maxembed/cmd/maxembed-server").CombinedOutput()
	if err != nil {
		t.Fatalf("building the server: %v\n%s", err, out)
	}
	return bin
}

// The whole harness at a twentieth of the scale with one-second phases:
// all four workloads, untraced and traced, a real server process each.
func TestSelfTestAllWorkloads(t *testing.T) {
	if testing.Short() {
		t.Skip("starts eight server processes")
	}
	tmp := t.TempDir()
	cfg := runConfig{
		serverBin: buildServer(t), tmpRoot: tmp, seed: 12, seconds: 2, scale: 0.05,
		setups: 1, replay: 400, traceOut: filepath.Join(tmp, "traces"), log: io.Discard,
	}
	layer := map[string]*result{}
	for _, s := range specs {
		e2e, err := runE2E(context.Background(), cfg, s)
		if err != nil {
			t.Fatalf("%s: %v", s.Name, err)
		}
		traced, err := runTraced(context.Background(), cfg, s)
		if err != nil {
			t.Fatalf("%s traced: %v", s.Name, err)
		}
		layer[s.Name] = traced
		for _, r := range []*result{e2e, traced} {
			if !r.correct() || r.Attempted == 0 {
				t.Errorf("%s: attempted %d failed %d verified %d: %s", s.Name, r.Attempted, r.Failed, r.Verified, r.FirstFail)
			}
		}
		// finish() has checked that every named metric is there and
		// finite; end-to-end metrics must also never be zero.
		for _, d := range endToEnd {
			if v := e2e.Metrics[d.Name].Value; v <= 0 {
				t.Errorf("%s: %s = %v, want > 0", s.Name, d.Name, v)
			}
		}
		m := traced.Metrics
		for _, name := range []string{"cache.hit_rate", "bench.fail_share", "server.bypass_share"} {
			if v := m[name].Value; v < 0 || v > 1 {
				t.Errorf("%s: %s = %v outside [0, 1]", s.Name, name, v)
			}
		}
		if m["bench.fail_share"].Value != 0 {
			t.Errorf("%s: fail_share %v", s.Name, m["bench.fail_share"].Value)
		}
		// The layers' own time must account for the lookup: what is left
		// for serving itself is small against the whole.
		lookup, self := m["serving.lookup_us"].Value, m["serving.self_us"].Value
		t.Logf("%s: serving.lookup_us %.1f, of which outside the layers %.1f", s.Name, lookup, self)
		if lookup <= 0 || math.Abs(self) > 0.25*lookup {
			t.Errorf("%s: serving.self_us %v against serving.lookup_us %v", s.Name, self, lookup)
		}
		if _, err := os.Stat(filepath.Join(cfg.traceOut, "trace_"+s.Name+".json")); err != nil {
			t.Errorf("%s: no span file: %v", s.Name, err)
		}
	}
	// The workloads separate the layers.
	v := func(w, name string) float64 { return layer[w].Metrics[name].Value }
	for _, w := range []string{"cold-json", "sharded-cold"} {
		if v(w, "cache.hit_rate") != 0 {
			t.Errorf("%s: cache.hit_rate %v, want 0", w, v(w, "cache.hit_rate"))
		}
	}
	for _, w := range []string{"cached-bin", "hot-short-iso"} {
		if v(w, "cache.hit_rate") <= 0.2 {
			t.Errorf("%s: cache.hit_rate %v, want a working cache", w, v(w, "cache.hit_rate"))
		}
	}
	if hot, cold := v("hot-short-iso", "selection.pages_per_query"), v("cold-json", "selection.pages_per_query"); hot*4 > cold {
		t.Errorf("pages per query: hot-short-iso %v, cold-json %v", hot, cold)
	}
	for _, w := range []string{"cold-json", "cached-bin"} {
		if v(w, "server.mean_batch_size") < 1 {
			t.Errorf("%s: coalescer on but mean batch size %v", w, v(w, "server.mean_batch_size"))
		}
	}
	for _, w := range []string{"hot-short-iso", "sharded-cold"} {
		if v(w, "server.mean_batch_size") != 0 {
			t.Errorf("%s: coalescer off but mean batch size %v", w, v(w, "server.mean_batch_size"))
		}
	}
	if v("sharded-cold", "ssd.max_shard_depth") <= 0 || v("cold-json", "ssd.max_shard_depth") != 0 {
		t.Errorf("ssd.max_shard_depth: sharded %v, single %v", v("sharded-cold", "ssd.max_shard_depth"), v("cold-json", "ssd.max_shard_depth"))
	}
}

// A server that cannot start fails the workload with its log tail instead
// of hanging.
func TestDeadServerFailsWithLogTail(t *testing.T) {
	tmp := t.TempDir()
	script := filepath.Join(tmp, "dies")
	if err := os.WriteFile(script, []byte("#!/bin/sh\necho boom: no such device >&2\nexit 3\n"), 0o755); err != nil {
		t.Fatal(err)
	}
	cfg := runConfig{serverBin: script, tmpRoot: tmp, seed: 1, seconds: 2, scale: 0.02, setups: 1, log: io.Discard}
	_, err := runE2E(context.Background(), cfg, specs[0])
	if err == nil || !strings.Contains(err.Error(), "boom: no such device") {
		t.Fatalf("err = %v, want the server's log tail", err)
	}
	if left, _ := filepath.Glob(filepath.Join(tmp, "run-*")); len(left) != 0 {
		t.Errorf("scratch left behind: %v", left)
	}
}

// BENCHMARK.json and the catalogue in catalog.go name the same workloads
// and metrics, with the same units, directions and bounds.
func TestBenchmarkJSONMatchesCatalogue(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bj struct {
		Paths     []string `json:"paths"`
		Workloads []struct{ Name, Why string }
		EndToEnd  []struct {
			Name, Unit, Better string
			Bound              float64
		} `json:"end_to_end"`
		PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &bj); err != nil {
		t.Fatal(err)
	}
	if len(bj.Workloads) != len(specs) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d specs", len(bj.Workloads), len(specs))
	}
	for i, w := range bj.Workloads {
		if w.Name != specs[i].Name || w.Why != specs[i].Why {
			t.Errorf("workload %d: %q / %q differs from spec %q / %q", i, w.Name, w.Why, specs[i].Name, specs[i].Why)
		}
		if len(w.Why) > 200 {
			t.Errorf("workload %s: why is %d characters", w.Name, len(w.Why))
		}
	}
	if len(bj.EndToEnd) != len(endToEnd) || len(bj.PerLayer) != len(perLayer) {
		t.Fatalf("metric counts: %d/%d end-to-end, %d/%d per-layer", len(bj.EndToEnd), len(endToEnd), len(bj.PerLayer), len(perLayer))
	}
	for i, m := range bj.EndToEnd {
		if d := endToEnd[i]; m.Name != d.Name || m.Unit != d.Unit || m.Better != d.Better || m.Bound != d.Bound {
			t.Errorf("end-to-end %d: %+v differs from %+v", i, m, d)
		}
	}
	for i, m := range bj.PerLayer {
		if d := perLayer[i]; m.Name != d.Name || m.Unit != d.Unit || m.Better != d.Better {
			t.Errorf("per-layer %d: %+v differs from %+v", i, m, d)
		}
	}
}

func TestCompareFlagsRegressionsAndUnresolved(t *testing.T) {
	// setup_s is the one end-to-end metric that keeps its per-repeat
	// values, so it is the one that can be unresolved.
	doc := func(setup float64, setups []float64, pages float64) *document {
		ms := metricSet{}
		for _, d := range endToEnd {
			ms[d.Name] = metric{Value: 1, Unit: d.Unit}
		}
		ms["setup_s"] = metric{Value: setup, Windows: setups}
		ms["pages_per_lookup"] = metric{Value: pages}
		return &document{
			Header:    header{Executor: "io_uring", DirectIO: "true"},
			Workloads: []*workloadEntry{{Name: "cold-json", EndToEnd: &result{Metrics: ms, Verified: 1}}},
		}
	}
	write := func(name string, d *document) string {
		path := filepath.Join(t.TempDir(), name)
		if err := d.write(path); err != nil {
			t.Fatal(err)
		}
		return path
	}
	steady := []float64{1.98, 2.0, 2.02}
	base := write("a.json", doc(2.0, steady, 13.0))

	var out bytes.Buffer
	ok, err := compareFiles(&out, base, write("same.json", doc(2.1, steady, 13.2)))
	if err != nil || !ok {
		t.Errorf("within bounds: ok=%v err=%v\n%s", ok, err, out.String())
	}
	out.Reset()
	ok, _ = compareFiles(&out, base, write("slow.json", doc(2.0, steady, 15.0)))
	if ok || !strings.Contains(out.String(), "REGRESSION") {
		t.Errorf("15%% more pages per lookup not flagged:\n%s", out.String())
	}
	out.Reset()
	ok, _ = compareFiles(&out, base, write("noisy.json", doc(3.0, []float64{1.9, 3.0, 4.1}, 13.0)))
	if !ok || !strings.Contains(out.String(), "unresolved") {
		t.Errorf("a slower set-up inside its own spread must be unresolved, not a regression:\n%s", out.String())
	}
	out.Reset()
	fewer := doc(2.0, steady, 7.0)
	fewer.Header.DirectIO = "false"
	compareFiles(&out, base, write("buffered.json", fewer))
	if !strings.Contains(out.String(), "NOT COMPARABLE") || !strings.Contains(out.String(), "better") {
		t.Errorf("different I/O paths not flagged:\n%s", out.String())
	}
}
