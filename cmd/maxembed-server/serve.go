package main

import (
	"context"
	"fmt"
	"net"

	"maxembed"
	"maxembed/internal/server"
)

// serve answers HTTP on ln with h until ctx is cancelled, then shuts down in
// dependency order: h.Serve returns once the listener is closed and the
// requests in flight have finished — every lease on a completion buffer
// lives inside one — then the handler's background work stops, then the
// store closes, the backend's rings and files with it. A request that
// outlives the grace period is cut off and the store is left open under it:
// the process is about to exit, and an error return is better than closing
// files under a live read.
func serve(ctx context.Context, ln net.Listener, h *server.Handler, db *maxembed.DB, lim server.Limits) error {
	if err := h.Serve(ctx, ln, lim); err != nil {
		return err
	}
	h.Close()
	if err := db.Close(); err != nil {
		return fmt.Errorf("closing the store: %w", err)
	}
	return nil
}
