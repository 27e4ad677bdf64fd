package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"reflect"
	"runtime"
	"strconv"
	"strings"
	"testing"

	"maxembed/internal/metrics"
	"maxembed/internal/serving"
)

// promSamples renders snap for /metrics and parses it back: series (name
// with its label set) → value text. It also fails on a malformed tree —
// a bad tag, or one family declared by two fields.
func promSamples(t *testing.T, snap *StatsResponse) map[string]string {
	t.Helper()
	var buf bytes.Buffer
	if err := metrics.WritePrometheus(&buf, "maxembed_", snap); err != nil {
		t.Fatal(err)
	}
	out := map[string]string{}
	for _, line := range strings.Split(buf.String(), "\n") {
		if series, val, ok := strings.Cut(line, " "); ok && series != "#" {
			if _, dup := out[series]; dup {
				t.Errorf("series %s rendered twice", series)
			}
			out[series] = val
		}
	}
	return out
}

// checkTwins holds the two renderers of one snapshot to each other. It
// walks the stats tree beside its own JSON encoding and, for every field
// tagged as a counter or gauge, requires the /metrics sample under the
// name the tags spell — prefixes down the path, then the leaf, with the
// enclosing element's labels — to equal the JSON number under the field's
// key (divided where the tag says so). A stat on /metrics with no JSON
// key is an error: that is how the two drifted apart before.
func checkTwins(t *testing.T, v reflect.Value, js any, prefix, labels string, samples map[string]string) {
	t.Helper()
	switch v.Kind() {
	case reflect.Pointer:
		if !v.IsNil() {
			checkTwins(t, v.Elem(), js, prefix, labels, samples)
		}
		return
	case reflect.Slice:
		elems, _ := js.([]any) // none for a /metrics-only slice
		for i := 0; i < v.Len(); i++ {
			var e any
			if i < len(elems) {
				e = elems[i]
			}
			checkTwins(t, v.Index(i), e, prefix, labels, samples)
		}
		return
	}
	obj, _ := js.(map[string]any)
	typ := v.Type()
	type field struct {
		sf        reflect.StructField
		v         reflect.Value
		key       string
		name, arg []string
	}
	var fields []field
	for i := 0; i < typ.NumField(); i++ {
		sf := typ.Field(i)
		tag, tagged := sf.Tag.Lookup("prom")
		if !tagged && !sf.Anonymous {
			continue
		}
		f := field{sf: sf, v: v.Field(i), name: strings.Split(tag, ",")}
		f.key, _, _ = strings.Cut(sf.Tag.Get("json"), ",")
		if len(f.name) > 1 && f.name[1] == "label" {
			labels = strings.TrimPrefix(labels+","+f.name[0]+"="+strconv.Quote(fmt.Sprint(f.v)), ",")
			continue
		}
		fields = append(fields, f)
	}
	for _, f := range fields {
		name := prefix + f.name[0]
		switch {
		case len(f.name) == 1 && (f.sf.Anonymous || f.key == "-"):
			checkTwins(t, f.v, js, name, labels, samples) // fields promoted into this object, or /metrics only
		case len(f.name) == 1:
			if sub, ok := obj[f.key]; ok {
				checkTwins(t, f.v, sub, name, labels, samples)
			}
		case f.name[1] == "histogram":
		default:
			series := name
			if labels != "" {
				series += "{" + labels + "}"
			}
			got, rendered := samples[series]
			want, inJSON := obj[f.key]
			if f.v.Kind() == reflect.Pointer && f.v.IsNil() {
				if rendered || inJSON {
					t.Errorf("%s: nil, yet on /metrics: %v, in JSON: %v", series, rendered, inJSON)
				}
				continue
			}
			if !rendered || !inJSON {
				t.Errorf("%s (%s.%s): on /metrics: %v, in JSON as %q: %v", series, typ, f.sf.Name, rendered, f.key, inJSON)
				continue
			}
			div := 1.0
			if len(f.name) == 3 {
				div, _ = strconv.ParseFloat(f.name[2][1:], 64)
			}
			gotNum, _ := strconv.ParseFloat(got, 64)
			switch want := want.(type) {
			case float64:
				if gotNum != want/div {
					t.Errorf("%s = %s on /metrics, %q = %v in JSON", series, got, f.key, want)
				}
			case bool:
				if (gotNum == 1) != want {
					t.Errorf("%s = %s on /metrics, %q = %v in JSON", series, got, f.key, want)
				}
			case string: // a named state: its number on /metrics
				if fmt.Sprint(f.v) != want || strconv.FormatInt(f.v.Int(), 10) != got {
					t.Errorf("%s = %s on /metrics, %q = %q in JSON, field %v", series, got, f.key, want, f.v)
				}
			}
		}
	}
}

// checkSnapshotTwins renders one snapshot both ways and compares them.
func checkSnapshotTwins(t *testing.T, snap *StatsResponse) {
	t.Helper()
	raw, err := json.Marshal(snap)
	if err != nil {
		t.Fatal(err)
	}
	var js any
	if err := json.Unmarshal(raw, &js); err != nil {
		t.Fatal(err)
	}
	samples := promSamples(t, snap)
	if len(samples) < 40 {
		t.Fatalf("only %d series rendered", len(samples))
	}
	checkTwins(t, reflect.ValueOf(snap), js, "maxembed_", "", samples)
}

// TestSnapshotDescribesOneEngine: a render that straddles an engine swap
// reports one engine. The view is taken, the handle swapped and the new
// engine served from, and only then is the stats tree built from the
// view: every block still has to come from the first engine.
func TestSnapshotDescribesOneEngine(t *testing.T) {
	s := newTestStack(t, 0.2, nil)
	handle := serving.NewSwappable(s.eng)
	h := NewDynamic(handle, s.dev, WithoutCoalescing())
	t.Cleanup(h.Close)
	w := s.eng.NewWorker()
	for i := 0; i < 5; i++ {
		if _, err := w.Lookup(s.tr.Queries[i]); err != nil {
			t.Fatal(err)
		}
	}
	view := handle.View()
	first := h.snapshotOf(view)

	// The replacement has no cache, shadow caches instead, and serves 3.
	s.cfg.CacheEntries, s.cfg.ShadowSizes = 0, []int{16}
	next := s.newEngine(t)
	if _, err := handle.Swap(next); err != nil {
		t.Fatal(err)
	}
	w2 := next.NewWorker()
	for i := 0; i < 3; i++ {
		if _, err := w2.Lookup(s.tr.Queries[i]); err != nil {
			t.Fatal(err)
		}
	}

	straddled := h.snapshotOf(view)
	if straddled.Refresh.Generation != 1 || straddled.Refresh.Swaps != 0 {
		t.Errorf("generation %d, swaps %d: want the view's 1 and 0", straddled.Refresh.Generation, straddled.Refresh.Swaps)
	}
	if straddled.Cache == nil || straddled.Shadow != nil {
		t.Errorf("cache %v, shadow %v: generation 1 had a cache and no shadow caches", straddled.Cache, straddled.Shadow)
	}
	if straddled.Latency != first.Latency || straddled.Recovery != first.Recovery ||
		straddled.MeanValidPerRead != first.MeanValidPerRead || straddled.Refresh.ValidPerReadAfter != first.MeanValidPerRead {
		t.Errorf("latency %+v → %+v, recovery %+v → %+v, valid/read %v → %v: the view's engine served nothing in between",
			first.Latency, straddled.Latency, first.Recovery, straddled.Recovery, first.MeanValidPerRead, straddled.MeanValidPerRead)
	}

	now := h.snapshot()
	if now.Refresh.Generation != 2 || now.Refresh.Swaps != 1 || now.Cache != nil || len(now.Shadow) != 1 {
		t.Errorf("current snapshot: generation %d, swaps %d, cache %v, %d shadow points; want generation 2's",
			now.Refresh.Generation, now.Refresh.Swaps, now.Cache, len(now.Shadow))
	}
	if now.Latency.Count != 8 || now.Recovery.Lookups != 8 {
		t.Errorf("current snapshot counts %d latency samples, %d lookups; want 5 + 3", now.Latency.Count, now.Recovery.Lookups)
	}
	if now.Refresh.ValidPerReadBefore != first.MeanValidPerRead {
		t.Errorf("valid/read before swap = %v, want the retired engine's %v", now.Refresh.ValidPerReadBefore, first.MeanValidPerRead)
	}
}

// TestLatencyCountFollowsLookupsAcrossSwap: virtual_latency.count and
// maxembed_lookups_total are one number, before a refresh and after it —
// the latency distribution does not restart when the engine is replaced.
func TestLatencyCountFollowsLookupsAcrossSwap(t *testing.T) {
	s := newTestStack(t, 0.2, nil)
	handle := serving.NewSwappable(s.eng)
	h := NewDynamic(handle, s.dev, WithRefresh(newFakeSource(t, s, handle, 1)))
	srv := httptest.NewServer(h)
	t.Cleanup(func() { srv.Close(); h.Close() })

	check := func(when string, want int) metrics.LatencySummary {
		t.Helper()
		lat := getStats(t, srv.URL).Latency
		needle := fmt.Sprintf("\nmaxembed_lookups_total %d\n", want)
		if text := string(httpGet(t, srv.URL+"/metrics")); lat.Count != want || !strings.Contains(text, needle) {
			t.Errorf("%s: virtual_latency.count = %d, /metrics has %q: %v; want %d lookups in both",
				when, lat.Count, strings.TrimSpace(needle), strings.Contains(text, needle), want)
		}
		return lat
	}
	for i := 0; i < 12; i++ {
		postLookup(t, srv.URL, s.tr.Queries[i])
	}
	before := check("before the swap", 12)
	mustPost(t, srv.URL+"/v1/refresh")
	if after := check("after the swap", 12); after != before {
		t.Errorf("latency summary changed across a swap with no traffic: %+v → %+v", before, after)
	}
	for i := 12; i < 20; i++ {
		postLookup(t, srv.URL, s.tr.Queries[i])
	}
	if final := check("after serving on the new engine", 20); final.MaxNS < before.MaxNS {
		t.Errorf("max latency fell across the swap: %d → %d", before.MaxNS, final.MaxNS)
	}
}

// TestServingDoesNotGrowMetrics: what the stats keep per lookup is
// nothing. After a warm-up, serving many more lookups through a coalescing
// handler (engine latency, coalescer waits, batch sizes, valid-per-read
// all recording) leaves the live heap where it was; the ceiling is
// generous, and the sample slices this replaced would have added 16 bytes
// per lookup — 3 MiB over the measured window.
func TestServingDoesNotGrowMetrics(t *testing.T) {
	warm, more := 10_000, 200_000
	if testing.Short() || raceEnabled {
		warm, more = 2_000, 20_000
	}
	s := newTestStack(t, 0.2, nil)
	h := New(s.eng, s.dev)
	t.Cleanup(h.Close)
	payloads := make([]string, 32)
	for i := range payloads {
		body, err := json.Marshal(LookupRequest{Keys: s.tr.Queries[i]})
		if err != nil {
			t.Fatal(err)
		}
		payloads[i] = string(body)
	}
	serve := func(n int) {
		for i := 0; i < n; i++ {
			rec := httptest.NewRecorder()
			h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/lookup", strings.NewReader(payloads[i%len(payloads)])))
			if rec.Code != http.StatusOK {
				t.Fatalf("status %d", rec.Code)
			}
		}
	}
	heap := func() uint64 {
		runtime.GC()
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return ms.HeapInuse
	}
	serve(warm)
	before := heap()
	serve(more)
	after := heap()
	if st := h.snapshot(); st.Latency.Count != warm+more || st.Coalescer.Batches != int64(warm+more) {
		t.Fatalf("%d latency samples, %d batches; want %d of each", st.Latency.Count, st.Coalescer.Batches, warm+more)
	}
	const ceiling = 1 << 20
	if after > before+ceiling {
		t.Errorf("HeapInuse grew %d KiB over %d lookups (from %d KiB), ceiling %d KiB",
			(after-before)>>10, more, before>>10, ceiling>>10)
	}
}
