package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/signal"
	"path/filepath"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"

	"maxembed"
	"maxembed/internal/server"
)

// testLimits are tight enough to trip inside a test and loose enough for a
// loaded CI box to serve a lookup within them.
var testLimits = server.Limits{
	ReadHeader: 200 * time.Millisecond,
	Read:       10 * time.Second,
	Idle:       10 * time.Second,
	LookupSend: 10 * time.Second,
	Grace:      10 * time.Second,
}

// startServe runs serve over a small file-backed store, the way main does,
// and returns the address, the directory of the shard files, and the channel
// serve's result lands on once SIGTERM has shut it down.
func startServe(t *testing.T, lim server.Limits) (addr, dataDir string, queries [][]maxembed.Key, done <-chan error) {
	t.Helper()
	tr, err := maxembed.GenerateTrace(maxembed.ProfileAmazonM2, 0.02)
	if err != nil {
		t.Fatal(err)
	}
	history, eval := tr.Split(0.5)
	dataDir = t.TempDir()
	db, err := maxembed.Open(tr.NumItems, history.Queries,
		maxembed.WithReplicationRatio(0.2), maxembed.WithSeed(3),
		maxembed.WithFileBackend(dataDir))
	if err != nil {
		t.Fatal(err)
	}
	h := server.NewDynamic(db.Handle(), db.Backend(), server.WithPprof())
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGTERM)
	t.Cleanup(stop)
	result := make(chan error, 1)
	go func() { result <- serve(ctx, ln, h, db, lim) }()
	return ln.Addr().String(), dataDir, eval.Queries, result
}

// openUnder counts this process's descriptors on files under dir.
func openUnder(t *testing.T, dir string) int {
	t.Helper()
	fds, err := os.ReadDir("/proc/self/fd")
	if err != nil {
		t.Skipf("no descriptor table to inspect: %v", err)
	}
	n := 0
	for _, fd := range fds {
		if target, err := os.Readlink(filepath.Join("/proc/self/fd", fd.Name())); err == nil && strings.HasPrefix(target, dir) {
			n++
		}
	}
	return n
}

// TestServeCutsSlowHeaders: a peer that opens a request and stalls inside its
// headers is disconnected after the header timeout, without a reply.
func TestServeCutsSlowHeaders(t *testing.T) {
	addr, _, _, done := startServe(t, testLimits)
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	start := time.Now()
	if _, err := io.WriteString(conn, "POST /v1/lookup HTTP/1.1\r\nHost: x\r\n"); err != nil {
		t.Fatal(err)
	}
	conn.SetReadDeadline(start.Add(10 * time.Second))
	n, err := conn.Read(make([]byte, 1))
	if ne, ok := err.(net.Error); n != 0 || err == nil || (ok && ne.Timeout()) {
		t.Fatalf("read %d bytes, err %v: want the server to close the connection", n, err)
	}
	if held := time.Since(start); held < testLimits.ReadHeader {
		t.Errorf("connection closed after %v, before the %v header timeout", held, testLimits.ReadHeader)
	}
	shutDown(t, done)
}

// TestServeBoundsLookupsOnly: a trace that streams for longer than the
// server's read deadline and a lookup's write deadline runs its full second
// and arrives whole, also on a connection a lookup has just been served on.
func TestServeBoundsLookupsOnly(t *testing.T) {
	lim := testLimits
	lim.Read, lim.LookupSend = 500*time.Millisecond, 300*time.Millisecond
	addr, _, queries, done := startServe(t, lim)
	// One connection for both requests.
	client := &http.Client{Transport: &http.Transport{MaxConnsPerHost: 1}}
	defer client.CloseIdleConnections()
	lookup, err := json.Marshal(map[string][]maxembed.Key{"keys": queries[0]})
	if err != nil {
		t.Fatal(err)
	}
	resp, err := client.Post("http://"+addr+"/v1/lookup", "application/json", bytes.NewReader(lookup))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("lookup: status %d", resp.StatusCode)
	}
	start := time.Now()
	resp, err = client.Get("http://" + addr + "/debug/pprof/trace?seconds=1")
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil || resp.StatusCode != http.StatusOK || len(body) == 0 || time.Since(start) < time.Second {
		t.Fatalf("one-second trace under a %v read deadline, after a lookup with a %v write deadline: status %d, %d bytes after %v, err %v",
			lim.Read, lim.LookupSend, resp.StatusCode, len(body), time.Since(start), err)
	}
	shutDown(t, done)
}

// TestServeShutdownFinishesLookup signals the process while a lookup is in
// its handler: the listener closes at once, the lookup still gets its
// complete reply, serve returns nil (exit status 0), and by then the shard
// files are closed — after the last request, whose lease on the backend's
// completion buffers ended with its reply.
func TestServeShutdownFinishesLookup(t *testing.T) {
	addr, dataDir, queries, done := startServe(t, testLimits)
	if openUnder(t, dataDir) == 0 {
		t.Fatal("no shard file open under a serving store")
	}
	query := queries[0]
	body, err := json.Marshal(map[string][]maxembed.Key{"keys": query})
	if err != nil {
		t.Fatal(err)
	}
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	conn.SetDeadline(time.Now().Add(30 * time.Second))
	// The server answers Expect: 100-continue when the handler first reads
	// the body, so the interim reply is the event "the lookup is in flight".
	fmt.Fprintf(conn, "POST /v1/lookup HTTP/1.1\r\nHost: x\r\nContent-Type: application/json\r\n"+
		"Content-Length: %d\r\nExpect: 100-continue\r\n\r\n", len(body))
	br := bufio.NewReader(conn)
	if line, err := br.ReadString('\n'); err != nil || !strings.Contains(line, "100 Continue") {
		t.Fatalf("interim reply %q, err %v", line, err)
	}
	if _, err := br.ReadString('\n'); err != nil {
		t.Fatal(err)
	}

	if err := syscall.Kill(syscall.Getpid(), syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	// Shutdown has begun once the listener is gone.
	for deadline := time.Now().Add(10 * time.Second); ; time.Sleep(5 * time.Millisecond) {
		c, err := net.Dial("tcp", addr)
		if err != nil {
			break
		}
		c.Close()
		if time.Now().After(deadline) {
			t.Fatal("listener still accepting 10s after SIGTERM")
		}
	}
	select {
	case err := <-done:
		t.Fatalf("serve returned %v with a request in flight", err)
	default:
	}

	if _, err := conn.Write(body); err != nil {
		t.Fatal(err)
	}
	resp, err := http.ReadResponse(br, nil)
	if err != nil {
		t.Fatal(err)
	}
	var reply server.LookupResponse
	err = json.NewDecoder(resp.Body).Decode(&reply)
	resp.Body.Close()
	distinct := map[maxembed.Key]bool{}
	for _, k := range query {
		distinct[k] = true
	}
	if err != nil || resp.StatusCode != http.StatusOK || len(reply.Embeddings) != len(distinct) {
		t.Fatalf("reply across the shutdown: status %d, %d embeddings for %d distinct keys, err %v",
			resp.StatusCode, len(reply.Embeddings), len(distinct), err)
	}

	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("serve returned %v, want nil", err)
		}
	case <-time.After(testLimits.Grace):
		t.Fatal("serve did not return after its last request finished")
	}
	if n := openUnder(t, dataDir); n != 0 {
		t.Errorf("%d shard files still open after serve returned", n)
	}
}

// lookupOn writes a whole canonical lookup, or all of it but its last five
// bytes, on conn and returns those bytes.
func lookupOn(t *testing.T, conn net.Conn, query []maxembed.Key, whole bool) (rest []byte) {
	t.Helper()
	body, err := json.Marshal(map[string][]maxembed.Key{"keys": query})
	if err != nil {
		t.Fatal(err)
	}
	req := fmt.Appendf(nil, "POST /v1/lookup HTTP/1.1\r\nHost: x\r\nContent-Length: %d\r\n\r\n%s", len(body), body)
	if !whole {
		req, rest = req[:len(req)-5], req[len(req)-5:]
	}
	if _, err := conn.Write(req); err != nil {
		t.Fatal(err)
	}
	return rest
}

// TestServeShutdownOnLoopConnections is TestServeShutdownFinishesLookup for
// connections the server's own loop serves: at SIGTERM an idle one is closed
// at once, a lookup that has begun to arrive is read to its end and answered
// with Connection: close, and the shard files close after that.
func TestServeShutdownOnLoopConnections(t *testing.T) {
	addr, dataDir, queries, done := startServe(t, testLimits)
	dial := func() net.Conn {
		conn, err := net.Dial("tcp", addr)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { conn.Close() })
		conn.SetDeadline(time.Now().Add(30 * time.Second))
		return conn
	}
	idle, busy := dial(), dial()
	lookupOn(t, idle, queries[0], true)
	if resp, err := http.ReadResponse(bufio.NewReader(idle), nil); err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("lookup on the connection to go idle: %v, %v", resp, err)
	} else {
		io.Copy(io.Discard, resp.Body)
	}
	rest := lookupOn(t, busy, queries[1], false)
	// The reply on idle says the loop is up; the busy connection was
	// written before it, give its bytes a moment more to be read.
	time.Sleep(200 * time.Millisecond)

	if err := syscall.Kill(syscall.Getpid(), syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	if n, err := idle.Read(make([]byte, 1)); n != 0 || err != io.EOF {
		t.Fatalf("idle connection after SIGTERM: read %d bytes, err %v, want EOF", n, err)
	}
	if held := time.Since(start); held > 2*time.Second {
		t.Errorf("idle connection closed %v after SIGTERM", held)
	}
	select {
	case err := <-done:
		t.Fatalf("serve returned %v with a request in flight", err)
	default:
	}
	if openUnder(t, dataDir) == 0 {
		t.Fatal("shard files closed under a request in flight")
	}
	if _, err := busy.Write(rest); err != nil {
		t.Fatal(err)
	}
	resp, err := http.ReadResponse(bufio.NewReader(busy), nil)
	if err != nil {
		t.Fatal(err)
	}
	var reply server.LookupResponse
	err = json.NewDecoder(resp.Body).Decode(&reply)
	resp.Body.Close()
	if err != nil || resp.StatusCode != http.StatusOK || !resp.Close || len(reply.Embeddings) == 0 {
		t.Fatalf("reply across the shutdown: status %d, Connection: close %v, %d embeddings, err %v",
			resp.StatusCode, resp.Close, len(reply.Embeddings), err)
	}
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("serve returned %v, want nil", err)
		}
	case <-time.After(testLimits.Grace):
		t.Fatal("serve did not return after its last request finished")
	}
	if n := openUnder(t, dataDir); n != 0 {
		t.Errorf("%d shard files still open after serve returned", n)
	}
}

// openSockets counts this process's socket descriptors.
func openSockets(t *testing.T) int {
	t.Helper()
	fds, err := os.ReadDir("/proc/self/fd")
	if err != nil {
		t.Skipf("no descriptor table to inspect: %v", err)
	}
	n := 0
	for _, fd := range fds {
		if target, err := os.Readlink(filepath.Join("/proc/self/fd", fd.Name())); err == nil && strings.HasPrefix(target, "socket:") {
			n++
		}
	}
	return n
}

// TestServeHandOverRacingShutdown: connections are moving from the loop to
// net/http while SIGTERM arrives. Whichever side of the hand-over each is
// on, serve returns nil within the grace period and every socket and shard
// file is closed by then.
func TestServeHandOverRacingShutdown(t *testing.T) {
	baseline := openSockets(t)
	addr, dataDir, _, done := startServe(t, testLimits)
	var clients sync.WaitGroup
	for c := 0; c < 4; c++ {
		clients.Add(1)
		go func() {
			defer clients.Done()
			for {
				conn, err := net.Dial("tcp", addr)
				if err != nil {
					return // the listener is gone
				}
				conn.SetDeadline(time.Now().Add(10 * time.Second))
				// Not a lookup: the loop hands the connection over, and
				// net/http closes it after the reply, so the next one comes.
				io.WriteString(conn, "GET /healthz HTTP/1.1\r\nHost: x\r\nConnection: close\r\n\r\n")
				io.Copy(io.Discard, conn) // a reply and a close, or just a close
				conn.Close()
			}
		}()
	}
	time.Sleep(100 * time.Millisecond)
	shutDown(t, done)
	clients.Wait()
	if n := openUnder(t, dataDir); n != 0 {
		t.Errorf("%d shard files still open after serve returned", n)
	}
	for deadline := time.Now().Add(5 * time.Second); ; time.Sleep(10 * time.Millisecond) {
		n := openSockets(t)
		if n <= baseline {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("%d sockets open after the shutdown, %d before the server started", n, baseline)
		}
	}
}

// shutDown signals the process and waits for a clean serve return.
func shutDown(t *testing.T, done <-chan error) {
	t.Helper()
	if err := syscall.Kill(syscall.Getpid(), syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-done:
		if err != nil {
			t.Errorf("serve returned %v, want nil", err)
		}
	case <-time.After(testLimits.Grace + 5*time.Second):
		t.Error("serve did not return after SIGTERM")
	}
}
