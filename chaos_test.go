package maxembed

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"maxembed/internal/server"
)

// TestChaosSoak exercises every moving part of the serving stack at once,
// over HTTP, under the race detector: coalesced lookups hammer the server
// while a chaos sequence fails a shard, rebuilds it onto the hot spare,
// refreshes the layout (hot-swapping the engine twice more), fails and
// rebuilds the *other* shard, and runs a scrub sweep. Throughout:
//
//   - every 200/206 response's vectors must match the synthesizer exactly
//     (no stale or torn data across any engine swap),
//   - the layout generation each client observes must never go backwards
//     (workers and the coalescer re-bind to swapped engines, never serve
//     from a retired one after a newer one answered),
//   - no key may hard-fail (failed shards are rescued by replica reads or
//     host-store fallback; degraded 206 responses are a test failure),
//   - 503s are allowed only as coalescer backpressure (the queue is kept
//     tiny to force shedding) — the node itself must stay ready, since one
//     dead shard of two sits exactly at the default fail tolerance.
//
// The soak ends with both shards healthy, redundancy restored, and a
// stats/healthz audit. It runs once behind httptest's server and once
// behind Handler.Serve, where lookups on a connection that has carried
// nothing else take the server's own connection loop and the rest net/http.
func TestChaosSoak(t *testing.T) {
	t.Run("httptest", func(t *testing.T) {
		chaosSoak(t, func(h *server.Handler) (string, *http.Client) {
			ts := httptest.NewServer(h)
			t.Cleanup(ts.Close)
			return ts.URL, ts.Client()
		})
	})
	t.Run("serve", func(t *testing.T) {
		stats := chaosSoak(t, func(h *server.Handler) (string, *http.Client) {
			ln, err := net.Listen("tcp", "127.0.0.1:0")
			if err != nil {
				t.Fatal(err)
			}
			ctx, cancel := context.WithCancel(context.Background())
			served := make(chan error, 1)
			go func() { served <- h.Serve(ctx, ln, server.DefaultLimits) }()
			client := &http.Client{Transport: &http.Transport{}}
			t.Cleanup(func() {
				client.CloseIdleConnections()
				cancel()
				if err := <-served; err != nil {
					t.Errorf("Serve returned %v", err)
				}
			})
			return "http://" + ln.Addr().String(), client
		})
		if stats.HTTP.LookupsDirect == 0 || stats.HTTP.HandedOver == 0 {
			t.Errorf("the soak should have used both serving paths: %+v", stats.HTTP)
		}
	})
}

// chaosSoak returns the /v1/stats it audited at the end.
func chaosSoak(t *testing.T, start func(*server.Handler) (url string, client *http.Client)) server.StatsResponse {
	tr := smallTrace(t)
	history, eval := tr.Split(0.5)
	db, err := Open(tr.NumItems, history.Queries,
		WithReplicationRatio(0.3), WithDevices(2), WithSeed(11),
		WithCacheRatio(0), WithHotSpare(), WithHistoryRecording(512))
	if err != nil {
		t.Fatal(err)
	}
	startGen := db.LayoutGeneration()

	h := server.NewDynamic(db.Handle(), db.Backend(),
		server.WithRefresh(db),
		server.WithShardAdmin(db),
		server.WithScrub(db),
		// A small batch with a tiny queue bound forces real backpressure
		// shedding under the client herd below.
		server.WithCoalescing(4, 200*time.Microsecond),
		server.WithCoalesceQueue(2))
	t.Cleanup(h.Close) // after start's own cleanup has stopped the server
	url, client := start(h)

	post := func(path string) (int, []byte) {
		resp, err := client.Post(url+path, "application/json", nil)
		if err != nil {
			t.Errorf("POST %s: %v", path, err)
			return 0, nil
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		return resp.StatusCode, body
	}
	mustPost := func(path string) []byte {
		status, body := post(path)
		if status != http.StatusOK {
			t.Errorf("POST %s = %d: %s", path, status, body)
		}
		return body
	}

	var (
		served, degraded, shed atomic.Int64
		failedKeys             atomic.Int64
	)
	done := make(chan struct{})
	var wg sync.WaitGroup
	const clients = 6
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			var want []float32
			lastGen := uint64(0)
			for i := c; ; i += clients {
				select {
				case <-done:
					return
				default:
				}
				q := eval.Queries[i%len(eval.Queries)]
				body, _ := json.Marshal(server.LookupRequest{Keys: q})
				resp, err := client.Post(url+"/v1/lookup", "application/json", bytes.NewReader(body))
				if err != nil {
					t.Errorf("client %d: %v", c, err)
					return
				}
				var lr server.LookupResponse
				decodeErr := json.NewDecoder(resp.Body).Decode(&lr)
				resp.Body.Close()
				switch resp.StatusCode {
				case http.StatusServiceUnavailable:
					// Coalescer backpressure (or a probe-gated window);
					// back off and retry — the key set is not lost, the
					// next iteration re-requests other keys anyway.
					shed.Add(1)
					time.Sleep(100 * time.Microsecond)
					continue
				case http.StatusOK, http.StatusPartialContent:
				default:
					t.Errorf("client %d: lookup status %d", c, resp.StatusCode)
					return
				}
				if decodeErr != nil {
					t.Errorf("client %d: decode: %v", c, decodeErr)
					return
				}
				served.Add(1)
				if lr.Degraded {
					degraded.Add(1)
					failedKeys.Add(int64(len(lr.FailedKeys)))
				}
				if g := lr.Stats.Generation; g < lastGen {
					t.Errorf("client %d: generation went backwards: %d after %d", c, g, lastGen)
					return
				} else {
					lastGen = g
				}
				// Every returned vector must be the synthesizer's ground
				// truth for its key, whatever engine generation, rebuild,
				// or coalesced batch produced it.
				for k, v := range lr.Embeddings {
					want = db.syn.Vector(Key(k), want[:0])
					if len(v) != len(want) {
						t.Errorf("client %d: key %d: dim %d, want %d", c, k, len(v), len(want))
						return
					}
					for j := range want {
						if v[j] != want[j] {
							t.Errorf("client %d: key %d: stale or corrupt vector at dim %d", c, k, j)
							return
						}
					}
				}
			}
		}(c)
	}

	// The chaos sequence, run against the live client herd.
	settle := func() { time.Sleep(20 * time.Millisecond) }
	settle()
	mustPost("/v1/shards/0/fail")
	// One dead shard of two sits at the default 0.5 fail tolerance: the
	// node must still report ready while the engine reroutes around it.
	if resp, err := client.Get(url + "/healthz"); err != nil {
		t.Error(err)
	} else {
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Errorf("healthz = %d with one dead shard of two (tolerance 0.5)", resp.StatusCode)
		}
	}
	settle()
	mustPost("/v1/shards/0/rebuild?pages_per_sec=20000")
	if err := db.AttachSpare(); err != nil {
		t.Errorf("re-arm spare: %v", err)
	}
	settle()
	mustPost("/v1/refresh")
	settle()
	mustPost("/v1/shards/1/fail")
	settle()
	mustPost("/v1/shards/1/rebuild")
	settle()
	mustPost("/v1/scrub")
	mustPost("/v1/refresh")
	settle()
	close(done)
	wg.Wait()

	if s := served.Load(); s < 50 {
		t.Errorf("only %d lookups served during the soak", s)
	}
	if d := degraded.Load(); d != 0 {
		t.Errorf("%d degraded responses (%d failed keys); replica reads + store fallback must rescue everything",
			d, failedKeys.Load())
	}
	t.Logf("soak: %d served, %d shed (backpressure), generations %d → %d",
		served.Load(), shed.Load(), startGen, db.LayoutGeneration())

	// Two rebuild swaps plus two refresh swaps.
	if got, want := db.LayoutGeneration(), startGen+4; got != want {
		t.Errorf("layout generation = %d, want %d", got, want)
	}
	for _, info := range db.ShardHealth() {
		if !info.State.Live() {
			t.Errorf("shard %d is %v after the soak, want live", info.Shard, info.State)
		}
	}

	resp, err := client.Get(url + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	var stats server.StatsResponse
	if err := json.NewDecoder(resp.Body).Decode(&stats); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if stats.Recovery.FailedKeys != 0 {
		t.Errorf("stats: %d failed keys across the soak, want 0", stats.Recovery.FailedKeys)
	}
	if stats.Rebuild.Rebuilds != 2 {
		t.Errorf("stats: %d rebuilds, want 2", stats.Rebuild.Rebuilds)
	}
	if stats.Scrub.Sweeps != 1 {
		t.Errorf("stats: %d scrub sweeps, want 1", stats.Scrub.Sweeps)
	}
	if !stats.Health.Ready {
		t.Error("stats: node not ready after full recovery")
	}
	for _, s := range stats.Shards {
		if s.State.String() != "healthy" {
			t.Errorf("stats: shard %d state %q after the soak", s.Shard, s.State)
		}
	}
	if resp, err := client.Get(url + "/healthz"); err != nil {
		t.Error(err)
	} else {
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Errorf("healthz = %d after full recovery", resp.StatusCode)
		}
	}
	return stats
}
