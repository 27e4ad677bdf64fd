package server

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"

	"maxembed/internal/serving"
	"maxembed/internal/ssd"
)

// BenchmarkHandlerLookup measures the full isolated handler path — decode,
// serve, response build (pooled arena), JSON encode — the per-request cost
// floor of the HTTP layer. Run with -benchmem to watch AllocsPerOp: pooled
// request and response storage keeps steady-state allocations independent
// of key count (TestHandlerLookupSteadyStateAllocs holds the budget).
func BenchmarkHandlerLookup(b *testing.B) {
	s := newTestStack(b, 0.2, nil)
	h := New(s.eng, s.dev, WithoutCoalescing())
	body, err := json.Marshal(LookupRequest{Keys: s.tr.Queries[0]})
	if err != nil {
		b.Fatal(err)
	}
	payload := string(body)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		req := httptest.NewRequest(http.MethodPost, "/v1/lookup", strings.NewReader(payload))
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, req)
		if rec.Code != http.StatusOK {
			b.Fatalf("status %d", rec.Code)
		}
	}
}

// benchServerThroughput drives concurrent clients against the handler and
// reports device reads per request alongside the usual ns/op — the pair of
// BenchmarkServerLookup{Isolated,Coalesced} runs compares how much SSD work
// each serving mode spends at the same offered load. Their …Conn variants
// (conn_test.go) do the same through the connection loop.
func benchServerThroughput(b *testing.B, opts ...Option) {
	s := newTestStack(b, 0.4, func(c *serving.Config) { c.CacheEntries = 0 })
	h := New(s.eng, s.dev, opts...)
	b.Cleanup(h.Close)
	payloads := make([]string, 64)
	for i := range payloads {
		body, err := json.Marshal(LookupRequest{Keys: s.tr.Queries[i%16]})
		if err != nil {
			b.Fatal(err)
		}
		payloads[i] = string(body)
	}
	var next atomic.Int64
	b.SetParallelism(8)
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			i := next.Add(1)
			req := httptest.NewRequest(http.MethodPost, "/v1/lookup",
				strings.NewReader(payloads[int(i)%len(payloads)]))
			rec := httptest.NewRecorder()
			h.ServeHTTP(rec, req)
			if rec.Code != http.StatusOK {
				b.Fatalf("status %d", rec.Code)
			}
		}
	})
	b.StopTimer()
	if n := next.Load(); n > 0 {
		b.ReportMetric(float64(s.dev.Stats().Reads)/float64(n), "reads/req")
	}
}

func BenchmarkServerLookupIsolated(b *testing.B) {
	benchServerThroughput(b, WithoutCoalescing())
}

func BenchmarkServerLookupCoalesced(b *testing.B) {
	benchServerThroughput(b, WithCoalescing(8, 0))
}

// TestHandlerLookupSteadyStateAllocs guards the hot-path allocation budget
// of the isolated lookup handler: after warm-up a lookup allocates a small
// constant, the same for 2 keys as for 40. Everything the request and the
// reply carry lives in pooled storage (body, keys, lease, response
// buffer, the Content-Length header slice); what is left belongs to the
// harness (httptest's request and recorder, 16) and to its copy of the
// header map. A reply whose length differs from the one the pooled job
// formatted last costs one more, strconv's string; the same request repeated,
// as here, does not.
// The constant is the same over a backend that tracks shard health — every
// file backend does, at any shard count — as over a bare device: the
// admission verdict each lookup asks for materialises no per-shard detail.
func TestHandlerLookupSteadyStateAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool sheds entries under the race detector")
	}
	arr, err := ssd.NewArray(ssd.P5800X, 1)
	if err != nil {
		t.Fatal(err)
	}
	device := newTestStack(t, 0.2, nil)
	tracked := newTestStack(t, 0.2, func(c *serving.Config) { c.Device, c.Backend = nil, arr })
	const budget = 19
	for _, keys := range []int{2, 40} {
		q := make([]uint32, keys)
		for i := range q {
			q[i] = uint32(i * 19)
		}
		body, err := json.Marshal(LookupRequest{Keys: q})
		if err != nil {
			t.Fatal(err)
		}
		payload := string(body)
		for name, h := range map[string]*Handler{
			"bare device":  New(device.eng, device.dev, WithoutCoalescing()),
			"shard health": New(tracked.eng, arr, WithoutCoalescing()),
		} {
			post := func() {
				req := httptest.NewRequest(http.MethodPost, "/v1/lookup", strings.NewReader(payload))
				rec := httptest.NewRecorder()
				h.ServeHTTP(rec, req)
				if rec.Code != http.StatusOK {
					t.Fatalf("status %d", rec.Code)
				}
			}
			for i := 0; i < 50; i++ {
				post()
			}
			allocs := testing.AllocsPerRun(200, post)
			t.Logf("handler allocs/op: %.1f for %d keys, %s", allocs, keys, name)
			if allocs > budget {
				t.Errorf("handler allocates %.1f/op for %d keys over a %s backend, budget %d", allocs, keys, name, budget)
			}
		}
	}
}
