package main

import (
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"maxembed"
	"maxembed/internal/server"
	"maxembed/internal/workload"
)

// tinyInputs is a small Criteo-shaped workload for in-process tests.
func tinyInputs(t *testing.T, binary bool) *inputs {
	t.Helper()
	in, err := makeInputs(spec{Name: "tiny", Profile: workload.Criteo, Scale: 0.02,
		Cache: 0.1, BatchMax: 1, Devices: 1, Binary: binary, Conns: 1}, 7, 1)
	if err != nil {
		t.Fatal(err)
	}
	return in
}

// realHandler serves in's history through the real HTTP handler over the
// simulated backend, with the same placement seed the benchmark's servers
// get.
func realHandler(t *testing.T, in *inputs) *server.Handler {
	t.Helper()
	db, err := maxembed.Open(in.numItems, in.history.Queries,
		maxembed.WithReplicationRatio(replication),
		maxembed.WithCacheRatio(in.spec.Cache),
		maxembed.WithSeed(serverSeed))
	if err != nil {
		t.Fatal(err)
	}
	h := server.NewDynamic(db.Handle(), db.Backend(), server.WithoutCoalescing())
	t.Cleanup(h.Close)
	return h
}

// The client decodes what Handler.ServeHTTP really writes, in both
// encodings, and every vector matches the synthesizer.
func TestRoundTripAgainstRealHandler(t *testing.T) {
	for _, binary := range []bool{false, true} {
		in := tinyInputs(t, binary)
		ts := httptest.NewServer(realHandler(t, in))
		g := newLoadgen(in, ts.URL, 1)
		p := g.closedLoop(context.Background(), 300*time.Millisecond, true)
		g.close()
		ts.Close()
		if p.failed != 0 || p.sent == 0 || p.verified != p.sent || p.ok() != p.sent {
			t.Errorf("binary=%v: sent %d ok %d verified %d failed %d (%s)", binary, p.sent, p.ok(), p.verified, p.failed, p.firstFail)
		}
	}
}

// goodReply returns the real handler's reply to live query 0.
func goodReply(t *testing.T, in *inputs) []byte {
	t.Helper()
	ts := httptest.NewServer(realHandler(t, in))
	defer ts.Close()
	g := newLoadgen(in, ts.URL, 1)
	defer g.close()
	var p phase
	if !g.conns[0].do(0, true, &p) {
		t.Fatalf("real reply rejected: %s", p.firstFail)
	}
	return append([]byte(nil), g.conns[0].body.Bytes()...)
}

// Every kind of bad reply is a failure of its own kind, and one failure
// makes the run incorrect.
func TestEveryFailureKindIsCounted(t *testing.T) {
	jsonIn, binIn := tinyInputs(t, false), tinyInputs(t, true)
	goodJSON, goodBin := goodReply(t, jsonIn), goodReply(t, binIn)

	var r lookupReply
	if err := json.Unmarshal(goodJSON, &r); err != nil {
		t.Fatal(err)
	}
	reencode := func(mutate func(*lookupReply)) []byte {
		var c lookupReply
		if err := json.Unmarshal(goodJSON, &c); err != nil {
			t.Fatal(err)
		}
		mutate(&c)
		b, err := json.Marshal(c)
		if err != nil {
			t.Fatal(err)
		}
		return append(b, '\n')
	}
	var someKey string
	for k := range r.Embeddings {
		someKey = k
		break
	}
	wrongVector := reencode(func(c *lookupReply) { c.Embeddings[someKey][3] += 0.5 })
	missingKey := reencode(func(c *lookupReply) { delete(c.Embeddings, someKey) })
	partial := reencode(func(c *lookupReply) {
		delete(c.Embeddings, someKey)
		c.Degraded, c.FailedKeys = true, []uint32{jsonIn.live[0][0]}
	})
	flipped := append([]byte(nil), goodBin...)
	flipped[mxe1Header+4+17] ^= 0x40 // one payload bit of the first vector

	cases := []struct {
		name   string
		in     *inputs
		status int
		body   []byte
		want   string
	}{
		{"wrong vector, JSON", jsonIn, 200, wrongVector, failMismatch},
		{"wrong vector, MXE1", binIn, 200, flipped, failMismatch},
		{"206 with failed_keys", jsonIn, 206, partial, failStatus},
		{"503 shed", jsonIn, 503, []byte(`{"error":"server overloaded"}` + "\n"), failStatus},
		{"truncated MXE1 frame", binIn, 200, goodBin[:len(goodBin)-10], failFrame},
		{"truncated JSON", jsonIn, 200, goodJSON[:len(goodJSON)/2], failFrame},
		{"missing key", jsonIn, 200, missingKey, failKeyCount},
		{"degraded marker under a 200", jsonIn, 200, partial, failKeyCount},
	}
	res := &result{}
	for _, c := range cases {
		ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
			w.WriteHeader(c.status)
			w.Write(c.body)
		}))
		g := newLoadgen(c.in, ts.URL, 1)
		p := &phase{sent: 1}
		ok := g.conns[0].do(0, true, p)
		g.close()
		ts.Close()
		if ok || p.failed != 1 || p.failKinds[c.want] != 1 {
			t.Errorf("%s: ok=%v failed=%d kinds=%v, want one %q failure", c.name, ok, p.failed, p.failKinds, c.want)
		}
		res.account(p)
	}
	if res.Failed != len(cases) || res.Attempted != len(cases) || res.correct() {
		t.Errorf("run accounting: attempted %d failed %d correct %v", res.Attempted, res.Failed, res.correct())
	}

	// A transport error (nothing listening) is a failure too.
	ts := httptest.NewServer(http.NotFoundHandler())
	url := ts.URL
	ts.Close()
	g := newLoadgen(jsonIn, url, 1)
	var p phase
	if g.conns[0].do(0, false, &p) || p.failKinds[failTransport] != 1 {
		t.Errorf("closed port: kinds=%v, want one transport failure", p.failKinds)
	}
}
