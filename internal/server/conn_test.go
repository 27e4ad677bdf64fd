package server

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"maxembed/internal/serving"
)

// serveLoop runs h.Serve on a loopback listener until the test ends, when
// Serve must return nil, and returns the address.
func serveLoop(t testing.TB, h *Handler, lim Limits) (addr string) {
	t.Helper()
	_, addr = startServe(t, h, lim)
	return addr
}

// startServe is serveLoop with the shutdown in the test's hands: stop
// cancels Serve's context and returns what Serve returned.
func startServe(t testing.TB, h *Handler, lim Limits) (stop func() error, addr string) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() { done <- h.Serve(ctx, ln, lim) }()
	stopped := false
	stop = func() error {
		stopped = true
		cancel()
		return <-done
	}
	t.Cleanup(func() {
		if !stopped {
			if err := stop(); err != nil {
				t.Errorf("Serve returned %v at shutdown", err)
			}
		}
		h.Close()
	})
	return stop, ln.Addr().String()
}

// testLimits are loose enough for a loaded CI box to serve a lookup within
// them; each limit test tightens the one it trips.
var testLimits = Limits{
	ReadHeader: 10 * time.Second,
	Read:       10 * time.Second,
	Idle:       10 * time.Second,
	LookupSend: 10 * time.Second,
	Grace:      10 * time.Second,
}

// readReply reads one response to a POST off br.
func readReply(t testing.TB, br *bufio.Reader) (*http.Response, []byte) {
	t.Helper()
	resp, err := http.ReadResponse(br, &http.Request{Method: http.MethodPost})
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	return resp, body
}

// expectClosed fails unless the server closes conn, without another byte,
// no sooner than atLeast after start and well before the test's patience
// ends.
func expectClosed(t *testing.T, conn net.Conn, start time.Time, atLeast time.Duration) {
	t.Helper()
	conn.SetReadDeadline(time.Now().Add(10 * time.Second))
	n, err := conn.Read(make([]byte, 1))
	if ne, ok := err.(net.Error); n != 0 || err == nil || (ok && ne.Timeout()) {
		t.Fatalf("read %d bytes, err %v: want the server to close the connection", n, err)
	}
	if held := time.Since(start); held < atLeast {
		t.Errorf("connection closed after %v, before the %v limit", held, atLeast)
	}
}

// TestConnLimits: each limit cuts off the peer it is for, on a connection
// the loop serves. (A header that stalls is cmd/maxembed-server's
// TestServeCutsSlowHeaders.)
func TestConnLimits(t *testing.T) {
	s := newTestStack(t, 0.2, nil)
	dial := func(t *testing.T, lim Limits) (net.Conn, *Handler) {
		h := New(s.eng, s.dev)
		conn, err := net.Dial("tcp", serveLoop(t, h, lim))
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { conn.Close() })
		return conn, h
	}
	req := lookupRequest(someKeys)

	t.Run("read", func(t *testing.T) {
		lim := testLimits
		lim.Read = 200 * time.Millisecond
		conn, h := dial(t, lim)
		start := time.Now()
		io.WriteString(conn, req[:len(req)-5]) // the body stalls five bytes short
		expectClosed(t, conn, start, lim.Read)
		if n := h.http.handedOver.Load(); n != 0 {
			t.Errorf("%d connections handed over: the loop should have cut this one off itself", n)
		}
	})

	t.Run("idle", func(t *testing.T) {
		lim := testLimits
		lim.Idle = 200 * time.Millisecond
		conn, h := dial(t, lim)
		io.WriteString(conn, req)
		if resp, _ := readReply(t, bufio.NewReader(conn)); resp.StatusCode != http.StatusOK || resp.Close {
			t.Fatalf("lookup: status %d, close %v", resp.StatusCode, resp.Close)
		}
		expectClosed(t, conn, time.Now(), lim.Idle-20*time.Millisecond)
		if n := h.http.lookupsDirect.Load(); n != 1 {
			t.Errorf("loop answered %d lookups, want 1", n)
		}
	})

	t.Run("lookupSend", func(t *testing.T) {
		lim := testLimits
		lim.LookupSend = 200 * time.Millisecond
		conn, h := dial(t, lim)
		// Requests keep coming and no reply is ever read: the socket
		// buffers fill, a write blocks, and its deadline ends the connection.
		many := bytes.Repeat([]byte(lookupRequest(`{"keys":[`+strings.Repeat("1,2,3,4,5,6,7,8,9,10,11,12,13,14,15,16,17,18,19,", 40)+`20]}`)), 64)
		conn.SetWriteDeadline(time.Now().Add(20 * time.Second))
		for err := error(nil); err == nil; {
			_, err = conn.Write(many)
		}
		// The server has hung up (or our own writes are stuck behind its full
		// receive buffer until it does): either way it stops serving.
		deadline := time.Now().Add(10 * time.Second)
		for h.http.open.Load() != 0 {
			if time.Now().After(deadline) {
				t.Fatalf("connection still open %v after the peer stopped reading", 10*time.Second)
			}
			time.Sleep(10 * time.Millisecond)
		}
	})
}

// TestConnHandOverMidConnection: lookup, /v1/stats, lookup on one
// connection. The first lookup is the loop's, the GET moves the connection
// to net/http, the second lookup is served there, and the stats the GET
// returned say so.
func TestConnHandOverMidConnection(t *testing.T) {
	s := newTestStack(t, 0.2, nil)
	h := New(s.eng, s.dev)
	conn, err := net.Dial("tcp", serveLoop(t, h, testLimits))
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	br := bufio.NewReader(conn)
	io.WriteString(conn, lookupRequest(someKeys)+"GET /v1/stats HTTP/1.1\r\nHost: x\r\n\r\n"+lookupRequest(someKeys, acceptMXE1))
	if resp, _ := readReply(t, br); resp.StatusCode != http.StatusOK {
		t.Fatalf("first lookup: status %d", resp.StatusCode)
	}
	resp, body := readReply(t, br)
	var st StatsResponse
	if err := json.Unmarshal(body, &st); err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("stats: status %d, err %v", resp.StatusCode, err)
	}
	if want := (HTTPStats{Accepted: 1, Open: 1, LookupsDirect: 1, HandedOver: 1}); st.HTTP != want {
		t.Errorf("http stats %+v, want %+v", st.HTTP, want)
	}
	resp, body = readReply(t, br)
	if resp.StatusCode != http.StatusOK || !bytes.HasPrefix(body, []byte(binaryMagic)) {
		t.Fatalf("second lookup: status %d, body %q…", resp.StatusCode, body[:min(len(body), 8)])
	}
	if n := h.http.lookupsDirect.Load(); n != 1 {
		t.Errorf("loop answered %d lookups, want 1: the connection was net/http's after the GET", n)
	}
	conn.Close()
	for deadline := time.Now().Add(10 * time.Second); h.http.open.Load() != 0; time.Sleep(5 * time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatal("open gauge still counts the connection 10s after the client closed it")
		}
	}
}

// awaitAccepted returns once the loop has n connections and has had time to
// read what the test wrote on them: a request the loop has begun to read is
// visible from outside only through what a shutdown then does with it.
func awaitAccepted(t *testing.T, h *Handler, n int64) {
	t.Helper()
	for deadline := time.Now().Add(10 * time.Second); h.http.accepted.Load() < n; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("%d of %d connections accepted after 10s", h.http.accepted.Load(), n)
		}
	}
	time.Sleep(200 * time.Millisecond)
}

// TestServeShutdown: cancelling Serve closes the listener and the loop's
// idle connections at once, lets a request that has begun finish — its
// reply says the connection closes — and only then returns, nil.
func TestServeShutdown(t *testing.T) {
	s := newTestStack(t, 0.2, nil)
	h := New(s.eng, s.dev)
	stop, addr := startServe(t, h, testLimits)
	dial := func() net.Conn {
		conn, err := net.Dial("tcp", addr)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { conn.Close() })
		return conn
	}
	// Two idle connections, one new and one that has served a lookup, and
	// one with half a request on the wire.
	fresh, used, busy := dial(), dial(), dial()
	io.WriteString(used, lookupRequest(someKeys))
	if resp, _ := readReply(t, bufio.NewReader(used)); resp.StatusCode != http.StatusOK {
		t.Fatalf("lookup: status %d", resp.StatusCode)
	}
	req := lookupRequest(someKeys)
	io.WriteString(busy, req[:len(req)-5])
	awaitAccepted(t, h, 3)

	result := make(chan error, 1)
	start := time.Now()
	go func() { result <- stop() }()
	expectClosed(t, fresh, start, 0)
	expectClosed(t, used, start, 0)
	if held := time.Since(start); held > 2*time.Second {
		t.Errorf("idle connections closed %v after the shutdown began", held)
	}
	if c, err := net.Dial("tcp", addr); err == nil {
		c.Close()
		t.Error("listener still accepting after idle connections were closed")
	}
	select {
	case err := <-result:
		t.Fatalf("Serve returned %v with a request in flight", err)
	default:
	}
	io.WriteString(busy, req[len(req)-5:])
	resp, _ := readReply(t, bufio.NewReader(busy))
	if resp.StatusCode != http.StatusOK || !resp.Close {
		t.Errorf("reply across the shutdown: status %d, Connection: close %v", resp.StatusCode, resp.Close)
	}
	select {
	case err := <-result:
		if err != nil {
			t.Errorf("Serve returned %v, want nil", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("Serve did not return after its last request finished")
	}
	if st := h.http.stats(); st.Open != 0 || st.LookupsDirect != 2 || st.HandedOver != 0 {
		t.Errorf("after shutdown: %+v", st)
	}
}

// TestServeShutdownGrace: a request that outlives the grace period is cut
// off, the connections' context is cancelled, and Serve says so.
func TestServeShutdownGrace(t *testing.T) {
	s := newTestStack(t, 0.2, nil)
	h := New(s.eng, s.dev)
	lim := testLimits
	lim.Grace = 100 * time.Millisecond
	stop, addr := startServe(t, h, lim)
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	req := lookupRequest(someKeys)
	io.WriteString(conn, req[:len(req)-5])
	awaitAccepted(t, h, 1)
	start := time.Now()
	if err := stop(); err == nil {
		t.Error("Serve returned nil with a request it had to cut off")
	}
	expectClosed(t, conn, start, lim.Grace)
}

// pipeRoundTrip writes req to conn and reads one reply off it into buf,
// which must be large enough, without allocating.
func pipeRoundTrip(t testing.TB, conn net.Conn, req, buf []byte) (status int, body []byte) {
	if _, err := conn.Write(req); err != nil {
		t.Fatal(err)
	}
	n, headEnd, total := 0, -1, -1
	for total < 0 || n < total {
		m, err := conn.Read(buf[n:])
		if err != nil {
			t.Fatal(err)
		}
		n += m
		if headEnd < 0 {
			if headEnd = bytes.Index(buf[:n], []byte("\r\n\r\n")); headEnd < 0 {
				continue
			}
			const cl = "\r\nContent-Length: "
			i := bytes.Index(buf[:headEnd], []byte(cl)) + len(cl)
			length := 0
			for ; buf[i] != '\r'; i++ {
				length = length*10 + int(buf[i]-'0')
			}
			total = headEnd + 4 + length
		}
	}
	status = int(buf[9]-'0')*100 + int(buf[10]-'0')*10 + int(buf[11]-'0')
	return status, buf[headEnd+4 : total]
}

// connOverPipe starts a loop connection on one end of a net.Pipe and
// returns the other.
func connOverPipe(t testing.TB, h *Handler) net.Conn {
	t.Helper()
	client, server := net.Pipe()
	cs := newConnServer(context.Background(), h, Limits{}, scriptAddr{})
	cs.start(server)
	t.Cleanup(func() {
		client.Close()
		cs.wg.Wait()
	})
	return client
}

func keysBody(t testing.TB, n int) string {
	keys := make([]uint32, n)
	for i := range keys {
		keys[i] = uint32(i * 19)
	}
	body, err := json.Marshal(LookupRequest{Keys: keys})
	if err != nil {
		t.Fatal(err)
	}
	return string(body)
}

// TestConnLookupZeroAllocs: a warm lookup through the connection loop —
// read, parse, decode, serve, encode, write — allocates nothing, whichever
// encoding, serving mode or key count. The pipe's own deadline timers would
// allocate; without limits the loop sets none.
func TestConnLookupZeroAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool sheds entries under the race detector")
	}
	s := newTestStack(t, 0.2, nil)
	buf := make([]byte, 1<<20)
	for _, mode := range []struct {
		name string
		opt  Option
	}{{"isolated", WithoutCoalescing()}, {"coalesced", WithCoalescing(8, 0)}} {
		h := New(s.eng, s.dev, mode.opt)
		t.Cleanup(h.Close)
		conn := connOverPipe(t, h)
		for _, enc := range []string{"Accept: application/json", acceptMXE1} {
			for _, keys := range []int{2, 40} {
				req := []byte(lookupRequest(keysBody(t, keys), enc))
				trip := func() {
					if status, body := pipeRoundTrip(t, conn, req, buf); status != http.StatusOK || len(body) < keys*4*testDim {
						t.Fatalf("status %d, %d-byte body", status, len(body))
					}
				}
				for i := 0; i < 50; i++ {
					trip()
				}
				if allocs := testing.AllocsPerRun(200, trip); allocs != 0 {
					t.Errorf("%s, %s, %d keys: %.2f allocs per lookup, want 0", mode.name, enc, keys, allocs)
				}
			}
		}
		if n := h.http.lookupsDirect.Load(); n == 0 || h.http.handedOver.Load() != 0 {
			t.Errorf("%s: loop answered %d lookups, handed over %d connections", mode.name, n, h.http.handedOver.Load())
		}
	}
}

// benchConnThroughput is benchServerThroughput through the connection loop:
// each parallel client owns a net.Pipe connection.
func benchConnThroughput(b *testing.B, opts ...Option) {
	s := newTestStack(b, 0.4, func(c *serving.Config) { c.CacheEntries = 0 })
	h := New(s.eng, s.dev, opts...)
	b.Cleanup(h.Close)
	reqs := make([][]byte, 16)
	for i := range reqs {
		body, err := json.Marshal(LookupRequest{Keys: s.tr.Queries[i]})
		if err != nil {
			b.Fatal(err)
		}
		reqs[i] = []byte(lookupRequest(string(body)))
	}
	b.SetParallelism(8)
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		conn := connOverPipe(b, h)
		buf := make([]byte, 64<<10)
		for i := 0; pb.Next(); i++ {
			if status, _ := pipeRoundTrip(b, conn, reqs[i%len(reqs)], buf); status != http.StatusOK {
				b.Fatalf("status %d", status)
			}
		}
	})
	b.StopTimer()
	if n := h.http.lookupsDirect.Load(); n > 0 {
		b.ReportMetric(float64(s.dev.Stats().Reads)/float64(n), "reads/req")
	}
}

func BenchmarkServerLookupIsolatedConn(b *testing.B) {
	benchConnThroughput(b, WithoutCoalescing())
}

func BenchmarkServerLookupCoalescedConn(b *testing.B) {
	benchConnThroughput(b, WithCoalescing(8, 0))
}

// eachTransport runs body against a handler behind httptest's server and
// against another behind Handler.Serve on a loopback listener, where the
// lookups must have taken the connection loop.
func eachTransport(t *testing.T, newHandler func() *Handler, body func(t *testing.T, url string)) {
	t.Run("httptest", func(t *testing.T) {
		h := newHandler()
		srv := httptest.NewServer(h)
		t.Cleanup(func() {
			srv.Close()
			h.Close()
		})
		body(t, srv.URL)
	})
	t.Run("serve", func(t *testing.T) {
		h := newHandler()
		body(t, "http://"+serveLoop(t, h, testLimits))
		if st := h.http.stats(); st.LookupsDirect == 0 {
			t.Errorf("no lookup took the connection loop: %+v", st)
		}
	})
}
