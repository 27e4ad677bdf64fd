package main

import (
	"context"
	"fmt"
	"log"
	"net"
	"net/http"
	"time"

	"maxembed"
	"maxembed/internal/server"
)

// limits bounds what one connection may hold of the server, and how long a
// shutdown waits for the requests in flight.
type limits struct {
	readHeader time.Duration // request line and headers
	read       time.Duration // the whole request, body included
	idle       time.Duration // a keep-alive connection between requests
	lookupSend time.Duration // a lookup's reply, from handler start
	grace      time.Duration // in-flight requests at shutdown
}

// A lookup request is at most 1 MiB and its reply is written in one piece,
// so these only ever cut off a peer that has stopped moving.
var defaultLimits = limits{
	readHeader: 5 * time.Second,
	read:       10 * time.Second,
	idle:       2 * time.Minute,
	lookupSend: 30 * time.Second,
	grace:      10 * time.Second,
}

// withWriteDeadline gives every /v1/lookup reply lim.lookupSend from the
// start of its handler: that is the path peers outside the operator's
// control hit at volume, and its reply is bounded. It is a per-handler
// deadline and not http.Server.WriteTimeout because everything else — a
// layout refresh, a rebuild, a /debug/pprof/ profile streaming for as long
// as its ?seconds= asks — must be free to take as long as it takes
// (net/http/pprof refuses durations beyond a server-wide WriteTimeout). The
// server clears a handler's write deadline when its request ends; the read
// side needs no such care, the server's read deadlines end with the request
// body.
func withWriteDeadline(h http.Handler, lim limits) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/v1/lookup" {
			// net/http's own ResponseWriter reaches the connection's deadline
			// (this is what http.ResponseController calls, without its
			// per-request allocation); a writer that does not serves unbounded.
			if d, ok := w.(interface{ SetWriteDeadline(time.Time) error }); ok {
				_ = d.SetWriteDeadline(time.Now().Add(lim.lookupSend))
			}
		}
		h.ServeHTTP(w, r)
	})
}

// serve answers HTTP on ln with h until ctx is cancelled, then shuts down in
// dependency order: the listener closes and the requests in flight get
// lim.grace to finish — every lease on a completion buffer lives inside one
// — then the handler's background work stops, then the store closes, the
// backend's rings and files with it. A request that outlives the grace
// period is cut off and the store is left open under it: the process is
// about to exit, and an error return is better than closing files under a
// live read.
func serve(ctx context.Context, ln net.Listener, h *server.Handler, db *maxembed.DB, lim limits) error {
	srv := &http.Server{
		Handler:           withWriteDeadline(h, lim),
		ReadHeaderTimeout: lim.readHeader,
		ReadTimeout:       lim.read,
		IdleTimeout:       lim.idle,
	}
	served := make(chan error, 1)
	go func() { served <- srv.Serve(ln) }()
	select {
	case err := <-served:
		// The listener failed under a server nobody asked to stop. Requests
		// may still be running, so nothing is closed under them.
		return fmt.Errorf("serve: %w", err)
	case <-ctx.Done():
	}
	log.Printf("shutting down: up to %v for requests in flight", lim.grace)
	sctx, cancel := context.WithTimeout(context.WithoutCancel(ctx), lim.grace)
	defer cancel()
	err := srv.Shutdown(sctx)
	<-served // Shutdown made Serve return
	if err != nil {
		srv.Close()
		return fmt.Errorf("shutdown: %w", err)
	}
	h.Close()
	if err := db.Close(); err != nil {
		return fmt.Errorf("closing the store: %w", err)
	}
	return nil
}
