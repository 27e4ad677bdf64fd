package server

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"net"
	"net/http"
	"regexp"
	"strings"
	"sync"
	"testing"
	"time"
)

// The differential between the connection loop and net/http: the same bytes
// go down a connection of Handler.Serve's loop and down a connection of a
// plain http.Server over an identical handler, and whatever comes back must
// be the same bytes apart from the Date value. net/http is the reference
// for every request, the ones the loop answers included.

// scriptConn is the peer of a differential run: Read hands out the script
// one segment at a time and then reports EOF, as a client that sent its
// requests and shut down its writing side; Write collects the replies.
// net.Pipe cannot play this part, it has no half-close.
type scriptConn struct {
	mu     sync.Mutex
	segs   [][]byte
	out    bytes.Buffer
	closed chan struct{}
	once   sync.Once
}

func newScriptConn(segs ...[]byte) *scriptConn {
	return &scriptConn{segs: segs, closed: make(chan struct{})}
}

func (c *scriptConn) Read(p []byte) (int, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	for len(c.segs) > 0 && len(c.segs[0]) == 0 {
		c.segs = c.segs[1:]
	}
	if len(c.segs) == 0 {
		return 0, io.EOF
	}
	n := copy(p, c.segs[0])
	c.segs[0] = c.segs[0][n:]
	return n, nil
}

func (c *scriptConn) Write(p []byte) (int, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	select {
	case <-c.closed:
		return 0, net.ErrClosed
	default:
	}
	return c.out.Write(p)
}

func (c *scriptConn) Close() error {
	c.once.Do(func() { close(c.closed) })
	return nil
}

// replies waits for the server to close the connection and returns what it
// wrote.
func (c *scriptConn) replies(t testing.TB) []byte {
	t.Helper()
	select {
	case <-c.closed:
	case <-time.After(20 * time.Second):
		t.Fatal("server still holds the connection 20s after the peer's EOF")
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.out.Bytes()
}

type scriptAddr struct{}

func (scriptAddr) Network() string { return "script" }
func (scriptAddr) String() string  { return "script" }

func (c *scriptConn) LocalAddr() net.Addr              { return scriptAddr{} }
func (c *scriptConn) RemoteAddr() net.Addr             { return scriptAddr{} }
func (c *scriptConn) SetDeadline(time.Time) error      { return nil }
func (c *scriptConn) SetReadDeadline(time.Time) error  { return nil }
func (c *scriptConn) SetWriteDeadline(time.Time) error { return nil }

// diffPair is the two servers of the differential, each over its own
// handler on its own identical serving stack: both see the same lookups in
// the same order, so their engines — cache, virtual clock — stay in step
// and replies can be compared to the byte. Coalescing is on because the
// coalescer's single worker makes the virtual latency in a reply a function
// of the request sequence alone (pooled workers each carry their own clock).
type diffPair struct {
	loop *connServer
	ref  *chanListener
	refH *Handler
}

func newDiffPair(t testing.TB) *diffPair {
	t.Helper()
	var p diffPair
	// The loop side, as Serve wires it.
	loopStack := newTestStack(t, 0.2, nil)
	lh := New(loopStack.eng, loopStack.dev)
	p.loop = newConnServer(context.Background(), lh, Limits{}, scriptAddr{})
	loopSrv := &http.Server{Handler: lh}
	go loopSrv.Serve(p.loop.handed)
	// The reference: nothing but net/http.
	refStack := newTestStack(t, 0.2, nil)
	rh := New(refStack.eng, refStack.dev)
	p.refH = rh
	p.ref = &chanListener{addr: scriptAddr{}, conns: make(chan net.Conn), closed: make(chan struct{})}
	refSrv := &http.Server{Handler: rh}
	go refSrv.Serve(p.ref)
	t.Cleanup(func() {
		loopSrv.Close()
		refSrv.Close()
		lh.Close()
		rh.Close()
	})
	return &p
}

var dateValue = regexp.MustCompile(`(?m)^Date: [^\r\n]*`)

func maskDate(b []byte) []byte { return dateValue.ReplaceAll(b, []byte("Date: -")) }

// run sends the segments to both servers and fails the test unless the
// replies match. It returns the loop's connection, finished, for a look at
// what it held.
func (p *diffPair) run(t testing.TB, segs ...[]byte) *conn {
	t.Helper()
	clone := func() [][]byte {
		out := make([][]byte, len(segs))
		for i, s := range segs {
			out[i] = bytes.Clone(s)
		}
		return out
	}
	lc := newScriptConn(clone()...)
	c := p.loop.start(lc)
	got := maskDate(lc.replies(t))
	p.loop.wg.Wait() // c is the test's to read now

	rc := newScriptConn(clone()...)
	if !p.ref.give(rc) {
		t.Fatal("reference server is closed")
	}
	want := maskDate(rc.replies(t))
	if !bytes.Equal(got, want) {
		t.Fatalf("replies differ for %q\nloop:     %q\nnet/http: %q", bytes.Join(segs, []byte("|")), clip(got), clip(want))
	}
	if len(c.buf) > maxLoopHeader+maxLookupBody {
		t.Fatalf("connection grew its buffer to %d bytes, cap %d", len(c.buf), maxLoopHeader+maxLookupBody)
	}
	if c.w == 0 && len(c.buf) > maxIdleConnBuf {
		t.Fatalf("connection ended idle holding %d bytes, cap %d", len(c.buf), maxIdleConnBuf)
	}
	return c
}

func clip(b []byte) []byte {
	if len(b) > 2048 {
		return append(bytes.Clone(b[:2048]), "…"...)
	}
	return b
}

// lookupRequest is a canonical lookup as Go's http.Client sends it.
func lookupRequest(body string, extra ...string) string {
	var sb strings.Builder
	sb.WriteString("POST /v1/lookup HTTP/1.1\r\nHost: 127.0.0.1:8080\r\nUser-Agent: Go-http-client/1.1\r\n")
	fmt.Fprintf(&sb, "Content-Length: %d\r\nContent-Type: application/json\r\n", len(body))
	for _, h := range extra {
		sb.WriteString(h + "\r\n")
	}
	sb.WriteString("Accept-Encoding: gzip\r\n\r\n" + body)
	return sb.String()
}

const (
	someKeys   = `{"keys":[1,7,42,7,300]}`
	acceptMXE1 = "Accept: application/octet-stream"
	getHealthz = "GET /healthz HTTP/1.1\r\nHost: x\r\n\r\n"
)

// diffSeeds are requests with a known reason to be here; the fuzzer starts
// from them.
var diffSeeds = []string{
	// What the loop is for.
	lookupRequest(someKeys),
	lookupRequest(someKeys, acceptMXE1),
	lookupRequest(someKeys, "accept: text/plain", acceptMXE1), // the first Accept decides
	lookupRequest(someKeys, "ACCEPT: application/json, application/octet-stream;q=0.5"),
	lookupRequest(someKeys, "Connection: close"),
	lookupRequest(someKeys, "Connection: Keep-Alive"),
	lookupRequest(someKeys, "X-Request-Id: \tabc  "),
	// Pipelined, two and three in one segment; a close in the middle.
	lookupRequest(someKeys) + lookupRequest(`{"keys":[2]}`, acceptMXE1),
	lookupRequest(someKeys) + lookupRequest(`{"keys":[2]}`) + lookupRequest(`{"keys":[3,4]}`),
	lookupRequest(someKeys, "Connection: close") + lookupRequest(`{"keys":[2]}`),
	// The handler's own errors, on the loop.
	lookupRequest(``), lookupRequest(`{"keys":[]}`), lookupRequest(`{"keys":[1,]}`), lookupRequest(`{"keys":[99999999]}`),
	lookupRequest(`{"keys":["<script>&"]}`), lookupRequest("{\"keys\":[1]\xff}"), lookupRequest(`{"KEYS":[5]} trailing`),
	// Another route, then lookups on net/http's connection.
	lookupRequest(someKeys) + getHealthz + lookupRequest(someKeys),
	getHealthz, "GET /nope HTTP/1.1\r\nHost: x\r\n\r\n", "POST /v1/lookup?x=1 HTTP/1.1\r\nHost: x\r\nContent-Length: 12\r\n\r\n{\"keys\":[1]}",
	"POST /v1/lookup/ HTTP/1.1\r\nHost: x\r\nContent-Length: 12\r\n\r\n{\"keys\":[1]}",
	"POST //v1/lookup HTTP/1.1\r\nHost: x\r\nContent-Length: 12\r\n\r\n{\"keys\":[1]}",
	"GET /v1/lookup HTTP/1.1\r\nHost: x\r\n\r\n", "HEAD /healthz HTTP/1.1\r\nHost: x\r\n\r\n",
	// Framing the loop must not touch.
	"POST /v1/lookup HTTP/1.1\r\nHost: x\r\nTransfer-Encoding: chunked\r\n\r\nc\r\n{\"keys\":[1]}\r\n0\r\n\r\n",
	"POST /v1/lookup HTTP/1.1\r\nHost: x\r\nTransfer-Encoding: chunked\r\nContent-Length: 12\r\n\r\nc\r\n{\"keys\":[1]}\r\n0\r\n\r\n",
	"POST /v1/lookup HTTP/1.1\r\nHost: x\r\nContent-Length: 12\r\nExpect: 100-continue\r\n\r\n{\"keys\":[1]}",
	"POST /v1/lookup HTTP/1.1\r\nHost: x\r\nContent-Length: 12\r\nExpect: something\r\n\r\n{\"keys\":[1]}",
	"POST /v1/lookup HTTP/1.0\r\nHost: x\r\nContent-Length: 12\r\n\r\n{\"keys\":[1]}",
	"POST /v1/lookup HTTP/1.0\r\nConnection: keep-alive\r\nContent-Length: 12\r\n\r\n{\"keys\":[1]}" + getHealthz,
	"POST /v1/lookup HTTP/1.1\r\nHost: x\r\nUpgrade: h2c\r\nConnection: Upgrade\r\nContent-Length: 12\r\n\r\n{\"keys\":[1]}",
	"POST /v1/lookup HTTP/1.1\r\nHost: x\r\nTrailer: X\r\nContent-Length: 12\r\n\r\n{\"keys\":[1]}",
	"POST /v1/lookup HTTP/1.1\r\nHost: x\r\nConnection: close, keep-alive\r\nContent-Length: 12\r\n\r\n{\"keys\":[1]}" + getHealthz,
	// Content-Length in every wrong shape, and two right ones net/http allows.
	"POST /v1/lookup HTTP/1.1\r\nHost: x\r\nContent-Length: 12\r\nContent-Length: 12\r\n\r\n{\"keys\":[1]}",
	"POST /v1/lookup HTTP/1.1\r\nHost: x\r\nContent-Length: 12\r\nContent-Length: 13\r\n\r\n{\"keys\":[1]}",
	"POST /v1/lookup HTTP/1.1\r\nHost: x\r\nContent-Length: -12\r\n\r\n{\"keys\":[1]}",
	"POST /v1/lookup HTTP/1.1\r\nHost: x\r\nContent-Length: +12\r\n\r\n{\"keys\":[1]}",
	"POST /v1/lookup HTTP/1.1\r\nHost: x\r\nContent-Length: 0x0c\r\n\r\n{\"keys\":[1]}",
	"POST /v1/lookup HTTP/1.1\r\nHost: x\r\nContent-Length: 99999999999999999999\r\n\r\n{\"keys\":[1]}",
	"POST /v1/lookup HTTP/1.1\r\nHost: x\r\nContent-Length: 0000000012\r\n\r\n{\"keys\":[1]}" + getHealthz,
	"POST /v1/lookup HTTP/1.1\r\nHost: x\r\nContent-Length:\r\n\r\n{\"keys\":[1]}",
	"POST /v1/lookup HTTP/1.1\r\nHost: x\r\nContent-Length: 012\r\n\r\n{\"keys\":[1]}" + getHealthz,
	"POST /v1/lookup HTTP/1.1\r\nHost: x\r\n\r\n{\"keys\":[1]}",
	"POST /v1/lookup HTTP/1.1\r\nHost: x\r\nContent-Length: 0\r\n\r\n" + getHealthz,
	"POST /v1/lookup HTTP/1.1\r\nHost: x\r\nContent-Length: 40\r\n\r\n{\"keys\":[1]}", // the peer leaves mid-body
	// Host.
	"POST /v1/lookup HTTP/1.1\r\nContent-Length: 12\r\n\r\n{\"keys\":[1]}",
	"POST /v1/lookup HTTP/1.1\r\nHost: a\r\nHost: b\r\nContent-Length: 12\r\n\r\n{\"keys\":[1]}",
	"POST /v1/lookup HTTP/1.1\r\nHost:\r\nContent-Length: 12\r\n\r\n{\"keys\":[1]}" + getHealthz,
	"POST /v1/lookup HTTP/1.1\r\nHost: a b\r\nContent-Length: 12\r\n\r\n{\"keys\":[1]}",
	"POST /v1/lookup HTTP/1.1\r\nHost: [::1]:80\r\nContent-Length: 12\r\n\r\n{\"keys\":[1]}" + getHealthz,
	// Lines.
	"POST /v1/lookup HTTP/1.1\nHost: x\nContent-Length: 12\n\n{\"keys\":[1]}" + getHealthz,
	"POST /v1/lookup HTTP/1.1\r\nHost: x\nContent-Length: 12\r\n\r\n{\"keys\":[1]}" + getHealthz,
	"POST /v1/lookup HTTP/1.1\r\nHost: x\r\nContent-Length: 12\r\n\n{\"keys\":[1]}" + getHealthz,
	"POST /v1/lookup HTTP/1.1\r\nHost: x\r\nX-Folded: a\r\n b\r\nContent-Length: 12\r\n\r\n{\"keys\":[1]}",
	"POST /v1/lookup HTTP/1.1\r\nHost: x\r\nX Y: a\r\nContent-Length: 12\r\n\r\n{\"keys\":[1]}",
	"POST /v1/lookup HTTP/1.1\r\nHost: x\r\nX-Y : a\r\nContent-Length: 12\r\n\r\n{\"keys\":[1]}",
	"POST /v1/lookup HTTP/1.1\r\nHost: x\r\n: a\r\nContent-Length: 12\r\n\r\n{\"keys\":[1]}",
	"POST /v1/lookup HTTP/1.1\r\nHost: x\r\nX-Y: a\x00b\r\nContent-Length: 12\r\n\r\n{\"keys\":[1]}",
	"POST /v1/lookup HTTP/1.1\r\nHost: x\r\nX-Y: caf\xc3\xa9\r\nContent-Length: 12\r\n\r\n{\"keys\":[1]}" + getHealthz,
	"POST /v1/lookup HTTP/1.1\r\nHost: x\r\nX-Y: a\rb\r\nContent-Length: 12\r\n\r\n{\"keys\":[1]}",
	"\r\n" + lookupRequest(someKeys),
	"POST  /v1/lookup HTTP/1.1\r\nHost: x\r\nContent-Length: 12\r\n\r\n{\"keys\":[1]}",
	"POST /v1/lookup HTTP/1.1 \r\nHost: x\r\nContent-Length: 12\r\n\r\n{\"keys\":[1]}",
	"POST /v1/lookup HTTP/2.0\r\nHost: x\r\nContent-Length: 12\r\n\r\n{\"keys\":[1]}",
	"PRI * HTTP/2.0\r\n\r\nSM\r\n\r\n",
	"POST /v1/lookup HTTP/1.1\r\nHost: x\r\nX-Big: " + strings.Repeat("a", 9<<10) + "\r\nContent-Length: 12\r\n\r\n{\"keys\":[1]}" + getHealthz,
	"POST /v1/lookup HTTP/1.1\r\nHost: x\r\n" + strings.Repeat("X-Many: a\r\n", 800) + "Content-Length: 12\r\n\r\n{\"keys\":[1]}" + getHealthz,
	"", "\x00", "POST", "POST /v1/lookup HTTP/1.1\r\nHost: x\r\nContent-Le",
}

// FuzzConnVsNetHTTP: arbitrary bytes, cut into up to three segments at
// arbitrary places, through both servers.
func FuzzConnVsNetHTTP(f *testing.F) {
	for _, s := range diffSeeds {
		f.Add([]byte(s), uint16(len(s)), uint16(0))
	}
	// One request arriving in two pieces, split at every byte.
	for _, s := range []string{lookupRequest(someKeys), lookupRequest(`{"keys":[9,8]}`, acceptMXE1, "Connection: close")} {
		for i := 1; i < len(s); i++ {
			f.Add([]byte(s), uint16(i), uint16(0))
		}
	}
	f.Add([]byte(lookupRequest(someKeys)+lookupRequest(someKeys)), uint16(40), uint16(170))
	p := newDiffPair(f)
	f.Fuzz(func(t *testing.T, data []byte, cut1, cut2 uint16) {
		if bytes.Contains(data, []byte("/v1/stats")) || bytes.Contains(data, []byte("/metrics")) {
			// The two servers' counters are not the same numbers.
			t.Skip()
		}
		a, b := min(int(cut1), len(data)), min(int(cut2), len(data))
		if a > b {
			a, b = b, a
		}
		p.run(t, data[:a], data[a:b], data[b:])
	})
}

// TestConnVsNetHTTPBodyLimits: the differential at sizes a fuzz corpus
// should not carry. A body of exactly maxLookupBody is the loop's, in a
// buffer grown for it and dropped after; one byte more is net/http's 413.
func TestConnVsNetHTTPBodyLimits(t *testing.T) {
	p := newDiffPair(t)
	const head, tail = `{"keys":[1,2,3`, `]}`
	body := func(n int) string { return head + strings.Repeat(" ", n-len(head)-len(tail)) + tail }
	for _, n := range []int{maxIdleConnBuf, maxPostHandlerRead, maxLookupBody, maxLookupBody + 1} {
		req := []byte(lookupRequest(body(n)) + lookupRequest(someKeys))
		c := p.run(t, req[:100], req[100:5000], req[5000:])
		if wantLoop := n <= maxLookupBody; c.handedOver == wantLoop {
			t.Errorf("%d-byte body: handed over = %v", n, c.handedOver)
		}
	}
}

// TestConnShedsLikeNetHTTP: while the node is unhealthy both servers shed
// with the same 503 and Retry-After and let the same probes through, and a
// shed request with a quarter MiB of body unread costs the client its
// connection on both.
func TestConnShedsLikeNetHTTP(t *testing.T) {
	p := newDiffPair(t)
	for _, h := range []*Handler{p.loop.h, p.refH} {
		h.window.Observe(100, 100)
	}
	c := p.run(t, []byte(strings.Repeat(lookupRequest(someKeys), 2*defaultProbeEvery+1)))
	if n := p.loop.h.http.lookupsDirect.Load(); c.handedOver || n != 2*defaultProbeEvery+1 {
		t.Errorf("loop answered %d of %d lookups, handed over = %v", n, 2*defaultProbeEvery+1, c.handedOver)
	}
	big := `{"keys":[1` + strings.Repeat(" ", maxPostHandlerRead) + `]}`
	p.run(t, []byte(lookupRequest(big)+lookupRequest(someKeys)))
}
