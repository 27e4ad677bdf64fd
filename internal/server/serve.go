package server

import (
	"context"
	"errors"
	"fmt"
	"log"
	"net"
	"net/http"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"maxembed/internal/metrics"
)

// Limits bounds what one connection may hold of the server, and how long a
// shutdown waits for the requests in flight. They mean the same on a
// connection the loop serves and on one handed to net/http; zero is no
// limit, as for http.Server.
//
// Only /v1/lookup has a write limit: that is the path peers outside the
// operator's control hit at volume, and its reply is bounded. Everything
// else — a layout refresh, a rebuild, a /debug/pprof/ profile streaming for
// as long as its ?seconds= asks — must be free to take as long as it takes,
// so there is no server-wide http.Server.WriteTimeout (net/http/pprof
// refuses durations beyond one); the lookup route sets its own deadline and
// the server clears it when the request ends.
type Limits struct {
	ReadHeader time.Duration // request line and headers, from the request's first byte
	Read       time.Duration // the whole request, body included
	Idle       time.Duration // a keep-alive connection between requests
	LookupSend time.Duration // writing a lookup's reply
	Grace      time.Duration // in-flight requests at shutdown
}

// DefaultLimits: a lookup request is at most 1 MiB and its reply is written
// in one piece, so these only ever cut off a peer that has stopped moving.
var DefaultLimits = Limits{
	ReadHeader: 5 * time.Second,
	Read:       10 * time.Second,
	Idle:       2 * time.Minute,
	LookupSend: 30 * time.Second,
	Grace:      10 * time.Second,
}

// idle is how long a connection may sit between requests: http.Server's
// rule, where the read limit stands in for a missing idle limit.
func (l Limits) idle() time.Duration {
	if l.Idle != 0 {
		return l.Idle
	}
	return l.Read
}

// httpCounters is what Serve counts; HTTPStats is their snapshot.
type httpCounters struct {
	accepted      metrics.Counter
	open          atomic.Int64
	lookupsDirect metrics.Counter
	handedOver    metrics.Counter
}

// HTTPStats is the connection section of /v1/stats: which of the two
// serving paths a client's requests take. LookupsDirect counts lookups the
// connection loop answered itself; a connection counts once in HandedOver
// when its first request the loop does not recognise as a canonical lookup
// moves it to net/http for good. All zero under a server that is not
// Handler.Serve.
type HTTPStats struct {
	Accepted      int64 `json:"accepted" prom:"connections_accepted_total,counter"`
	Open          int64 `json:"open" prom:"connections_open,gauge"`
	LookupsDirect int64 `json:"lookups_direct" prom:"lookups_direct_total,counter"`
	HandedOver    int64 `json:"handed_over" prom:"connections_handed_over_total,counter"`
}

func (c *httpCounters) stats() HTTPStats {
	return HTTPStats{
		Accepted:      c.accepted.Load(),
		Open:          c.open.Load(),
		LookupsDirect: c.lookupsDirect.Load(),
		HandedOver:    c.handedOver.Load(),
	}
}

// Serve answers HTTP on ln until ctx is cancelled, then shuts down and
// returns. Canonical lookups are served by a loop of the handler's own
// (conn.go); every other request moves its connection, bytes already read
// included, to an http.Server over the same handler.
//
// At shutdown the listener closes, idle connections of the loop close at
// once, busy ones after their reply, then the http.Server shuts down the
// same way; all of it within lim.Grace, after which the connections'
// context is cancelled, what is left is cut off and Serve returns an error.
// A nil return means no request is running any more.
func (h *Handler) Serve(ctx context.Context, ln net.Listener, lim Limits) error {
	log.Printf("http: limits read-header=%v read=%v idle=%v lookup-send=%v shutdown-grace=%v",
		lim.ReadHeader, lim.Read, lim.Idle, lim.LookupSend, lim.Grace)
	h.lookupSend.Store(int64(lim.LookupSend))
	// Requests outlive ctx by up to the grace period.
	connCtx, cancelConns := context.WithCancel(context.WithoutCancel(ctx))
	defer cancelConns()
	s := newConnServer(connCtx, h, lim, ln.Addr())
	srv := &http.Server{
		Handler:           h,
		ReadHeaderTimeout: lim.ReadHeader,
		ReadTimeout:       lim.Read,
		IdleTimeout:       lim.Idle,
		BaseContext:       func(net.Listener) context.Context { return connCtx },
	}
	served := make(chan error, 1)
	go func() { served <- srv.Serve(s.handed) }()
	accepted := make(chan error, 1)
	go func() { accepted <- s.accept(ln) }()
	select {
	case err := <-accepted:
		// The listener failed under a server nobody asked to stop. Requests
		// may still be running, so nothing is closed under them.
		return fmt.Errorf("serve: %w", err)
	case <-ctx.Done():
	}
	log.Printf("shutting down: up to %v for requests in flight", lim.Grace)
	sctx, cancel := context.WithTimeout(connCtx, lim.Grace)
	defer cancel()
	s.draining.Store(true)
	ln.Close()
	<-accepted // no connection joins the loop from here on
	s.closeIdle()
	loopDone := make(chan struct{})
	go func() { s.wg.Wait(); close(loopDone) }()
	select {
	case <-loopDone:
	case <-sctx.Done():
	}
	// Busy connections could still hand over until now; nothing can again.
	err := srv.Shutdown(sctx)
	<-served // Shutdown made Serve return
	select {
	case <-loopDone:
	default:
		err = sctx.Err() // grace ran out on the loop's connections
	}
	if err != nil {
		cancelConns()
		srv.Close()
		s.closeAll()
		return fmt.Errorf("shutdown: %w", err)
	}
	return nil
}

// connServer is one Serve call: its limits, the connections the loop owns,
// and the listener through which it gives the others to net/http.
type connServer struct {
	h      *Handler
	lim    Limits
	ctx    context.Context // the connections' context, cancelled when grace ends
	handed *chanListener

	draining atomic.Bool
	wg       sync.WaitGroup // the loop's connection goroutines
	mu       sync.Mutex
	conns    map[*conn]struct{}
}

func newConnServer(ctx context.Context, h *Handler, lim Limits, addr net.Addr) *connServer {
	return &connServer{
		h: h, lim: lim, ctx: ctx,
		handed: &chanListener{addr: addr, conns: make(chan net.Conn), closed: make(chan struct{})},
		conns:  make(map[*conn]struct{}),
	}
}

// accept runs the accept loop until the listener fails, which closing it
// for a shutdown is not.
func (s *connServer) accept(ln net.Listener) error {
	var delay time.Duration
	for {
		nc, err := ln.Accept()
		if err != nil {
			if s.draining.Load() {
				return nil
			}
			// Out of descriptors, or a connection reset before it was
			// accepted: back off as net/http does, the listener is fine.
			if errors.Is(err, syscall.EMFILE) || errors.Is(err, syscall.ENFILE) || errors.Is(err, syscall.ECONNABORTED) {
				delay = min(max(2*delay, 5*time.Millisecond), time.Second)
				log.Printf("http: accept: %v; retrying in %v", err, delay)
				time.Sleep(delay)
				continue
			}
			return err
		}
		delay = 0
		s.start(nc)
	}
}

// start gives nc a loop goroutine.
func (s *connServer) start(nc net.Conn) *conn {
	c := &conn{s: s, nc: nc}
	c.job.done = make(chan lookupOutcome, 1)
	s.h.http.accepted.Inc()
	s.h.http.open.Add(1)
	s.mu.Lock()
	s.conns[c] = struct{}{}
	s.mu.Unlock()
	s.wg.Add(1)
	go c.serve()
	return c
}

// done ends c's time in the loop; the connection closes with it unless it
// was handed over.
func (s *connServer) done(c *conn) {
	s.mu.Lock()
	delete(s.conns, c)
	s.mu.Unlock()
	if !c.handedOver {
		c.nc.Close()
		s.h.http.open.Add(-1)
	}
	s.wg.Done()
}

// handOver makes c's connection net/http's: every byte the loop has read
// and not served is replayed in front of what the peer sends next, and the
// loop's deadlines are lifted — net/http sets its own, and a stale write
// deadline would cut a long pprof stream short.
func (s *connServer) handOver(c *conn) {
	nc := c.nc
	nc.SetDeadline(time.Time{})
	rc := &replayConn{Conn: nc, pending: c.buf[c.r:c.w], open: &s.h.http.open}
	if s.handed.give(rc) {
		s.h.http.handedOver.Inc()
		c.handedOver = true
	}
}

// closeIdle closes the connections that are between requests. The ones it
// leaves see draining when their reply is written.
func (s *connServer) closeIdle() {
	s.mu.Lock()
	defer s.mu.Unlock()
	for c := range s.conns {
		if c.state.CompareAndSwap(connIdle, connClosed) {
			c.nc.Close()
		}
	}
}

// closeAll cuts off whatever the loop still holds when grace has run out.
func (s *connServer) closeAll() {
	s.mu.Lock()
	defer s.mu.Unlock()
	for c := range s.conns {
		c.nc.Close()
	}
}

// chanListener is a net.Listener fed by hand: the loop gives it the
// connections it will not serve, and the http.Server behind it accepts them
// as if they had just arrived.
type chanListener struct {
	addr   net.Addr
	conns  chan net.Conn
	closed chan struct{}
	once   sync.Once
}

func (l *chanListener) Accept() (net.Conn, error) {
	select {
	case c := <-l.conns:
		return c, nil
	case <-l.closed:
		return nil, net.ErrClosed
	}
}

func (l *chanListener) Close() error {
	l.once.Do(func() { close(l.closed) })
	return nil
}

func (l *chanListener) Addr() net.Addr { return l.addr }

// give hands c to an Accept, or reports false once the listener is closed:
// c is then still the caller's. The channel has no buffer, so a connection
// is never parked where neither side would close it.
func (l *chanListener) give(c net.Conn) bool {
	select {
	case l.conns <- c:
		return true
	case <-l.closed:
		return false
	}
}

// replayConn is a handed-over connection: Read returns the bytes the loop
// had already taken off the wire before it reads the wire again.
type replayConn struct {
	net.Conn
	pending []byte
	open    *atomic.Int64 // the open-connections gauge, left at Close
	closed  atomic.Bool
}

func (c *replayConn) Read(p []byte) (int, error) {
	if len(c.pending) > 0 {
		n := copy(p, c.pending)
		if c.pending = c.pending[n:]; len(c.pending) == 0 {
			c.pending = nil // the loop's buffer can go
		}
		return n, nil
	}
	return c.Conn.Read(p)
}

func (c *replayConn) Close() error {
	if !c.closed.Swap(true) {
		c.open.Add(-1)
	}
	return c.Conn.Close()
}
