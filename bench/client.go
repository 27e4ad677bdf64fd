package main

import (
	"bytes"
	"context"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"maxembed/internal/embedding"
)

// Failure kinds a reply can land in. Anything but a verified 200 is a
// failure: it counts in bench.failed and misses every latency limit.
const (
	failTransport = "transport"
	failStatus    = "status" // any non-200, 206 and 503 included
	failFrame     = "frame"  // truncated or malformed body
	failKeyCount  = "key-count"
	failMismatch  = "vector-mismatch"
)

// sample is one timed request.
type sample struct {
	at  time.Duration // due (open loop) or send (closed loop) time since the phase start
	lat time.Duration // reply fully read and checked − due/send time
	lag time.Duration // send − due: how late the generator ran (open loop)
}

// phase is the outcome of one load phase over all connections.
type phase struct {
	samples   []sample // successful requests only
	sent      int
	failed    int
	verified  int            // replies decoded and compared in full
	keys      int            // Σ distinct keys of the successful requests
	failKinds map[string]int // failure kind → count
	firstFail string
	respBytes int64
	// scheduled is the number of requests an open-loop phase had due,
	// backlog how many of them were not answered when it ended.
	scheduled, backlog int
	elapsed            time.Duration
}

func (p *phase) ok() int { return len(p.samples) }

func (p *phase) merge(q *phase) {
	p.samples = append(p.samples, q.samples...)
	p.sent += q.sent
	p.failed += q.failed
	p.verified += q.verified
	p.keys += q.keys
	p.respBytes += q.respBytes
	for k, n := range q.failKinds {
		if p.failKinds == nil {
			p.failKinds = map[string]int{}
		}
		p.failKinds[k] += n
	}
	if p.firstFail == "" {
		p.firstFail = q.firstFail
	}
}

func (p *phase) fail(kind, detail string) {
	p.failed++
	if p.failKinds == nil {
		p.failKinds = map[string]int{}
	}
	p.failKinds[kind]++
	if p.firstFail == "" {
		p.firstFail = kind + ": " + detail
	}
}

// clock is the time source of the open-loop scheduler, so a test can step
// it by hand.
type clock interface {
	Now() time.Time
	Sleep(time.Duration)
}

type wallClock struct{}

func (wallClock) Now() time.Time        { return time.Now() }
func (wallClock) Sleep(d time.Duration) { time.Sleep(d) }

// pacer hands out the requests of an open-loop phase: request i is due at
// start + i/rate whatever happened to the requests before it, and goes to
// whichever connection asks first.
type pacer struct {
	clk      clock
	start    time.Time
	end      time.Time
	interval time.Duration
	next     atomic.Int64
}

func newPacer(clk clock, rate float64, length time.Duration) *pacer {
	start := clk.Now()
	return &pacer{clk: clk, start: start, end: start.Add(length),
		interval: time.Duration(float64(time.Second) / rate)}
}

// scheduled is the number of requests due before the phase ends.
func (p *pacer) scheduled() int {
	return int((p.end.Sub(p.start) + p.interval - 1) / p.interval)
}

// take blocks until the next unsent request is due and returns its index
// and due time. It reports false once the phase is over: requests still
// unsent then are backlog, not load.
func (p *pacer) take() (i int64, due time.Time, ok bool) {
	i = p.next.Add(1) - 1
	due = p.start.Add(time.Duration(i) * p.interval)
	if !due.Before(p.end) {
		return i, due, false
	}
	now := p.clk.Now()
	if !now.Before(p.end) {
		return i, due, false
	}
	if wait := due.Sub(now); wait > 0 {
		p.clk.Sleep(wait)
	}
	return i, due, true
}

// loadgen drives one server from one process over a fixed set of
// keep-alive connections.
type loadgen struct {
	in    *inputs
	url   string
	conns []*conn
	// cursor is the next live query of a phase; it runs on across phases
	// so that no phase replays the head of the trace, and wraps.
	cursor int
}

func newLoadgen(in *inputs, base string, conns int) *loadgen {
	g := &loadgen{in: in, url: base + "/v1/lookup"}
	for c := 0; c < conns; c++ {
		tr := &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1, DisableCompression: true}
		g.conns = append(g.conns, &conn{g: g, client: &http.Client{Transport: tr, Timeout: 30 * time.Second}})
	}
	return g
}

func (g *loadgen) close() {
	for _, c := range g.conns {
		c.client.CloseIdleConnections()
	}
}

// closedLoop runs every connection back to back for length, or until ctx
// is cancelled: connection c sends live queries c, c+C, c+2C… and sends
// its next request when the previous reply has been read. verifyAll checks
// every reply in full (the warm-up); otherwise one query in verifyEvery
// is.
func (g *loadgen) closedLoop(ctx context.Context, length time.Duration, verifyAll bool) *phase {
	start := time.Now()
	end := start.Add(length)
	parts := make([]phase, len(g.conns))
	var wg sync.WaitGroup
	for ci, c := range g.conns {
		wg.Add(1)
		go func(ci int, c *conn) {
			defer wg.Done()
			p := &parts[ci]
			for qi := g.cursor + ci; ; qi += len(g.conns) {
				sent := time.Now()
				if !sent.Before(end) || ctx.Err() != nil {
					return
				}
				q := qi % len(g.in.live)
				p.sent++
				if c.do(q, verifyAll || q%verifyEvery == 0, p) {
					p.samples = append(p.samples, sample{at: sent.Sub(start), lat: time.Since(sent)})
				}
			}
		}(ci, c)
	}
	wg.Wait()
	total := &phase{elapsed: time.Since(start)}
	for i := range parts {
		total.merge(&parts[i])
	}
	g.cursor = (g.cursor + total.sent) % len(g.in.live)
	return total
}

// openLoop sends at a fixed rate for length, timing every request from
// the moment it was due.
func (g *loadgen) openLoop(ctx context.Context, rate float64, length time.Duration) *phase {
	pc := newPacer(wallClock{}, rate, length)
	parts := make([]phase, len(g.conns))
	var answered atomic.Int64 // replies read before the phase ended
	var wg sync.WaitGroup
	for ci, c := range g.conns {
		wg.Add(1)
		go func(ci int, c *conn) {
			defer wg.Done()
			p := &parts[ci]
			for {
				i, due, ok := pc.take()
				if !ok || ctx.Err() != nil {
					return
				}
				q := (g.cursor + int(i)) % len(g.in.live)
				sent := time.Now()
				p.sent++
				good := c.do(q, q%verifyEvery == 0, p)
				done := time.Now()
				if done.Before(pc.end) {
					answered.Add(1)
				}
				if good {
					p.samples = append(p.samples, sample{at: due.Sub(pc.start), lat: done.Sub(due), lag: sent.Sub(due)})
				}
			}
		}(ci, c)
	}
	wg.Wait()
	total := &phase{elapsed: time.Since(pc.start)}
	for i := range parts {
		total.merge(&parts[i])
	}
	total.scheduled = pc.scheduled()
	total.backlog = total.scheduled - int(answered.Load())
	g.cursor = (g.cursor + total.scheduled) % len(g.in.live)
	return total
}

// conn is one keep-alive connection with its reusable buffers.
type conn struct {
	g      *loadgen
	client *http.Client
	body   bytes.Buffer
	vec    []float32 // expected vector and its wire bytes, reused
	want   []byte
}

// do sends live query q, reads the whole reply and checks it. It records
// a failure in p and returns false unless the reply was a correct 200.
func (c *conn) do(q int, full bool, p *phase) bool {
	in := c.g.in
	req, err := http.NewRequest(http.MethodPost, c.g.url, bytes.NewReader(in.bodies[q]))
	if err != nil {
		p.fail(failTransport, err.Error())
		return false
	}
	req.Header.Set("Content-Type", "application/json")
	if in.spec.Binary {
		req.Header.Set("Accept", "application/octet-stream")
	}
	resp, err := c.client.Do(req)
	if err != nil {
		p.fail(failTransport, err.Error())
		return false
	}
	c.body.Reset()
	_, err = c.body.ReadFrom(resp.Body)
	resp.Body.Close()
	if err != nil {
		p.fail(failTransport, err.Error())
		return false
	}
	if resp.StatusCode != http.StatusOK {
		p.fail(failStatus, fmt.Sprintf("query %d: status %d: %.120s", q, resp.StatusCode, c.body.Bytes()))
		return false
	}
	b := c.body.Bytes()
	p.respBytes += int64(len(b))
	check := c.checkJSON
	if in.spec.Binary {
		check = c.checkBinary
	}
	if !check(q, b, full, p) {
		return false
	}
	p.keys += in.distinct[q]
	return true
}

// MXE1 frame (internal/server/lease.go): "MXE1", dim, count, nfail, then
// count × {key, 4·dim payload bytes}, then nfail × key; little-endian.
const mxe1Header = 16

func (c *conn) checkBinary(q int, b []byte, full bool, p *phase) bool {
	in := c.g.in
	if len(b) < mxe1Header || string(b[:4]) != "MXE1" {
		p.fail(failFrame, fmt.Sprintf("query %d: %d-byte reply is no MXE1 frame", q, len(b)))
		return false
	}
	dim := int(binary.LittleEndian.Uint32(b[4:]))
	count := int(binary.LittleEndian.Uint32(b[8:]))
	nfail := int(binary.LittleEndian.Uint32(b[12:]))
	rec := 4 + 4*dim
	if dim != embedDim || len(b) != mxe1Header+count*rec+4*nfail {
		p.fail(failFrame, fmt.Sprintf("query %d: frame of %d bytes for dim %d, %d keys, %d failed", q, len(b), dim, count, nfail))
		return false
	}
	if count != in.distinct[q] || nfail != 0 {
		p.fail(failKeyCount, fmt.Sprintf("query %d: %d keys served and %d failed, want %d and 0", q, count, nfail, in.distinct[q]))
		return false
	}
	if !full {
		return true
	}
	asked := keySet(in.live[q])
	for i := 0; i < count; i++ {
		r := b[mxe1Header+i*rec:][:rec]
		k := binary.LittleEndian.Uint32(r)
		if !asked[k] {
			p.fail(failMismatch, fmt.Sprintf("query %d: reply carries key %d that was not asked for", q, k))
			return false
		}
		delete(asked, k)
		c.vec = in.syn.Vector(k, c.vec[:0])
		c.want = embedding.EncodeVector(c.vec, c.want[:0])
		if !bytes.Equal(r[4:], c.want) {
			p.fail(failMismatch, fmt.Sprintf("query %d: key %d payload differs from the synthesizer", q, k))
			return false
		}
	}
	p.verified++
	return true
}

// lookupReply mirrors server.LookupResponse; it is declared here because
// the client speaks the wire format, not the server's Go types.
type lookupReply struct {
	Embeddings map[string][]float32 `json:"embeddings"`
	Degraded   bool                 `json:"degraded"`
	FailedKeys []uint32             `json:"failed_keys"`
}

var (
	vectorOpen  = []byte(`":[`)
	degradedKey = []byte(`"degraded":true`)
)

func (c *conn) checkJSON(q int, b []byte, full bool, p *phase) bool {
	in := c.g.in
	if len(b) < 2 || b[0] != '{' || b[len(b)-2] != '}' {
		p.fail(failFrame, fmt.Sprintf("query %d: %d-byte reply is not one JSON object", q, len(b)))
		return false
	}
	// Cheap checks on every reply: one `"key":[` per served key and no
	// degraded marker.
	if n := bytes.Count(b, vectorOpen); n != in.distinct[q] || bytes.Contains(b[len(b)-min(len(b), 400):], degradedKey) {
		p.fail(failKeyCount, fmt.Sprintf("query %d: %d keys served, want %d (or reply degraded)", q, n, in.distinct[q]))
		return false
	}
	if !full {
		return true
	}
	var r lookupReply
	if err := json.Unmarshal(b, &r); err != nil {
		p.fail(failFrame, fmt.Sprintf("query %d: %v", q, err))
		return false
	}
	if r.Degraded || len(r.FailedKeys) > 0 || len(r.Embeddings) != in.distinct[q] {
		p.fail(failKeyCount, fmt.Sprintf("query %d: %d keys served, %d failed, want %d and 0", q, len(r.Embeddings), len(r.FailedKeys), in.distinct[q]))
		return false
	}
	for _, k := range in.live[q] {
		vec, ok := r.Embeddings[strconv.FormatUint(uint64(k), 10)]
		if !ok || len(vec) != embedDim {
			p.fail(failMismatch, fmt.Sprintf("query %d: key %d missing or of dimension %d", q, k, len(vec)))
			return false
		}
		for j, x := range vec {
			// The server prints the shortest decimal that round-trips a
			// float32, so equality here is equality of the stored bytes.
			if x != in.syn.At(k, j) {
				p.fail(failMismatch, fmt.Sprintf("query %d: key %d element %d is %v, want %v", q, k, j, x, in.syn.At(k, j)))
				return false
			}
		}
	}
	p.verified++
	return true
}

func keySet(keys []uint32) map[uint32]bool {
	m := make(map[uint32]bool, len(keys))
	for _, k := range keys {
		m[k] = true
	}
	return m
}
