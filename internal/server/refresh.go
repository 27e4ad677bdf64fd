package server

import (
	"net/http"
	"time"
)

// Online layout refresh: the offline placement phase re-runs against the
// recorded query history while the server keeps serving, and the resulting
// engine is swapped into the shared handle at a query boundary (§7 of the
// paper treats placement as periodically recomputable; this is the serving
// side of that loop). The rebuild happens entirely off the request path —
// requests in flight finish on the old engine, and pooled workers plus the
// coalescer re-bind to the new one on their next lookup.

// Default refresh-loop gate: don't bother recomputing placement until this
// many queries have been recorded since the last refresh.
const defaultRefreshMinQueries = 1024

// RefreshSource produces refreshed engines for the handler's handle — in
// practice maxembed.DB, whose RefreshNow snapshots its recorded history,
// re-runs placement, and swaps the handle the handler serves from.
type RefreshSource interface {
	// PendingQueries reports how many queries have been recorded since
	// the last refresh; the background loop gates on it.
	PendingQueries() int64
	// RefreshNow rebuilds the layout from recorded history and swaps it
	// into the serving handle. It is expected to be slow (placement is
	// CPU-bound) and is never called concurrently by this handler.
	RefreshNow() error
}

// WithRefresh enables the POST /v1/refresh admin endpoint, driving the
// given source. The source must swap the same handle the handler serves
// from (NewDynamic), otherwise refreshes rebuild layouts nobody serves.
func WithRefresh(src RefreshSource) Option {
	return func(h *Handler) { h.refreshSrc = src }
}

// WithRefreshLoop additionally runs a background loop that refreshes every
// interval, skipping rounds in which fewer than minQueries queries were
// recorded since the last refresh (so an idle server never recomputes
// placement). interval ≤ 0 disables the loop; minQueries ≤ 0 uses the
// default (1024). Implies WithRefresh.
func WithRefreshLoop(src RefreshSource, interval time.Duration, minQueries int64) Option {
	return func(h *Handler) {
		h.refreshSrc = src
		h.refreshInterval = interval
		if minQueries <= 0 {
			minQueries = defaultRefreshMinQueries
		}
		h.refreshMinQueries = minQueries
	}
}

// RefreshResponse is the POST /v1/refresh response body.
type RefreshResponse struct {
	// Generation is the layout generation now being served.
	Generation uint64 `json:"layout_generation"`
	// DurationNS is how long the rebuild-and-swap took.
	DurationNS int64 `json:"duration_ns"`
	// Swaps counts engine swaps over the handler's lifetime.
	Swaps int64 `json:"engine_swaps"`
}

// refresh is the admin endpoint: it triggers one synchronous refresh and
// reports the resulting generation. 501 when no refresh source is
// configured; 409 when a refresh (admin- or loop-triggered) is already
// running — recomputing placement twice concurrently would waste CPU for
// an identical layout, so the caller should retry after the current one.
func (h *Handler) refresh(w http.ResponseWriter, _ *http.Request) {
	if h.refreshSrc == nil {
		httpError(w, http.StatusNotImplemented,
			"refresh not configured: server started without a refresh source")
		return
	}
	resp, busy, err := h.runRefresh()
	if busy {
		httpError(w, http.StatusConflict, "refresh already in progress")
		return
	}
	if err != nil {
		httpError(w, http.StatusUnprocessableEntity, "refresh: %v", err)
		return
	}
	writeJSON(w, resp)
}

// runRefresh performs one refresh under refreshMu and reports busy when
// another refresh holds it. The critical section stays free of HTTP
// writes (lockhold): callers render the result after the mutex is back.
func (h *Handler) runRefresh() (resp RefreshResponse, busy bool, err error) {
	if !h.refreshMu.TryLock() {
		return RefreshResponse{}, true, nil
	}
	defer h.refreshMu.Unlock()
	start := h.now()
	err = h.refreshSrc.RefreshNow()
	dur := h.now().Sub(start).Nanoseconds()
	h.statsMu.Lock()
	defer h.statsMu.Unlock()
	if err != nil {
		h.refreshStats.Errors++
		return RefreshResponse{}, false, err
	}
	h.refreshStats.Refreshes++
	h.refreshStats.LastDurationNS = dur
	return RefreshResponse{Generation: h.handle.Generation(), DurationNS: dur, Swaps: h.handle.Swaps()}, false, nil
}

// refreshLoop periodically refreshes the layout from recorded history,
// skipping quiet intervals. Runs until Close.
func (h *Handler) refreshLoop() {
	defer close(h.refreshDone)
	ticker := time.NewTicker(h.refreshInterval)
	defer ticker.Stop()
	for {
		select {
		case <-ticker.C:
			h.tryRefresh()
		case <-h.refreshQuit:
			return
		}
	}
}

// tryRefresh runs one gated refresh round: skip when too little history
// has accumulated or when an admin-triggered refresh is mid-flight (the
// busy/error outcomes are already counted inside runRefresh).
func (h *Handler) tryRefresh() {
	if h.refreshSrc.PendingQueries() < h.refreshMinQueries {
		return
	}
	_, _, _ = h.runRefresh()
}
