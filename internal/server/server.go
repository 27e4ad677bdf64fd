// Package server exposes a MaxEmbed serving engine over HTTP: the shape a
// production embedding-parameter service takes in a DLRM inference stack
// (Figure 1 of the paper — the embedding layer feeding the dense model).
//
// Endpoints:
//
//	POST /v1/lookup   {"keys":[1,2,3]}  → embeddings + per-query stats
//	POST /v1/refresh                    → rebuild layout from history, hot-swap
//	GET  /v1/stats                      → engine/device/cache/refresh counters
//	GET  /healthz                       → readiness (error-rate driven)
//
// Sessions (each owning an SSD queue pair and virtual clock) are pooled
// across requests, mirroring the per-thread serving contexts of §8.4.
//
// The API degrades rather than fails under device faults: a lookup the
// engine could only partially recover returns 206 Partial Content with the
// unserved keys in "failed_keys"; when the rolling read-error rate crosses
// the unhealthy threshold the server sheds load with 503 + Retry-After
// (letting a fraction of probe requests through so recovery is noticed)
// and /healthz reports not-ready for load-balancer eviction.
package server

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	httppprof "net/http/pprof"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"maxembed/internal/metrics"
	"maxembed/internal/serving"
	"maxembed/internal/ssd"
)

// Defaults for the health probe; override with the With* options.
const (
	defaultHealthWindow       = 128
	defaultUnhealthyThreshold = 0.5
	defaultMinHealthEvents    = 20
	defaultRetryAfterSec      = 1
	defaultProbeEvery         = 8
	// defaultShardFailTolerance is the fraction of dead shards the node
	// tolerates before reporting unhealthy (multi-shard backends only).
	defaultShardFailTolerance = 0.5
)

// Option configures a Handler.
type Option func(*Handler)

// WithHealthWindow sets how many recent lookups the rolling error-rate
// window spans (default 128).
func WithHealthWindow(lookups int) Option {
	return func(h *Handler) { h.window = metrics.NewRateWindow(lookups) }
}

// WithUnhealthyThreshold sets the read-fault fraction above which the
// server stops admitting traffic, and the minimum number of page reads the
// window must cover before the verdict is trusted (defaults 0.5 over 20
// reads — a cold window is always healthy).
func WithUnhealthyThreshold(rate float64, minEvents int64) Option {
	return func(h *Handler) { h.threshold, h.minEvents = rate, minEvents }
}

// WithRetryAfter sets the Retry-After value (seconds) attached to 503
// responses while unhealthy (default 1).
func WithRetryAfter(seconds int) Option {
	return func(h *Handler) { h.retryAfterSec = seconds }
}

// WithCoalescing configures cross-request micro-batching: the lookups that
// queued up while the previous batch was being served, up to maxBatch of
// them, go out as one coalesced serving pass (a lone request is dispatched
// at once; nothing ever waits for a batch to fill). maxBatch ≤ 1 disables
// coalescing and serves every request in isolation from a worker pool.
// Default: maxBatch 8. The second parameter was a gather window and is
// ignored; it stays only because bench/replay.go passes it.
func WithCoalescing(maxBatch int, _ time.Duration) Option {
	return func(h *Handler) { h.maxBatch = maxBatch }
}

// WithoutCoalescing serves every request in isolation (the pre-batching
// architecture); equivalent to WithCoalescing(1, 0).
func WithoutCoalescing() Option {
	return func(h *Handler) { h.maxBatch = 1 }
}

// WithCoalesceQueue bounds how many requests may wait for the coalescer
// before backpressure sheds new arrivals with 503 (default 1024).
func WithCoalesceQueue(n int) Option {
	return func(h *Handler) { h.coalesceQueue = n }
}

// WithPprof exposes Go's runtime profiling endpoints under /debug/pprof/
// on the handler's own mux. Off by default: profiling handlers leak
// operational detail and burn CPU when scraped, so production servers opt
// in explicitly (the -pprof flag on cmd/maxembed-server).
func WithPprof() Option {
	return func(h *Handler) { h.pprofEnabled = true }
}

// Handler serves the HTTP API for one engine (or, with NewDynamic, a
// swappable engine handle that layout refreshes update in place).
type Handler struct {
	handle  *serving.Swappable
	mux     *http.ServeMux
	workers sync.Pool // *poolWorker entries, tagged with their generation

	window        *metrics.RateWindow
	threshold     float64
	minEvents     int64
	retryAfterSec int
	retryAfter    []string     // retryAfterSec as a header value, formatted once
	probeSeq      atomic.Int64 // admits every Nth request while unhealthy

	maxBatch      int
	coalesceQueue int
	coal          *coalescer // nil when coalescing is disabled
	closeOnce     sync.Once
	pprofEnabled  bool

	nowFn func() time.Time // injected clock (WithClock); wall clock by default

	// Set by Serve: the write deadline of a lookup reply on the net/http
	// route (ns, 0 = none), and the connection counters of /v1/stats.
	lookupSend atomic.Int64
	http       httpCounters

	spreadSrc SpreadReporter // last despread pass for /v1/stats, nil unless wired

	refreshSrc        RefreshSource
	refreshInterval   time.Duration
	refreshMinQueries int64
	refreshMu         sync.Mutex // serializes admin- and loop-triggered refreshes
	refreshQuit       chan struct{}
	refreshDone       chan struct{}

	shardAdmin     ShardAdmin
	scrubber       Scrubber
	shardTolerance float64    // dead-shard fraction above which the node is unhealthy
	scrubMu        sync.Mutex // serializes admin scrub sweeps
	rebuildMu      sync.Mutex // serializes admin rebuilds

	// The admin sections of the stats tree, which the refresh, scrub and
	// rebuild runners update as they go; snapshot copies them out.
	statsMu      sync.Mutex
	refreshStats RefreshStats
	scrubStats   ScrubStats
	rebuildStats RebuildStats
}

// New returns a handler over the given engine and its read backend (a
// single *ssd.Device or a multi-shard ssd.Array). Coalescing is on by
// default (see WithCoalescing); call Close when done to stop the
// coalescer goroutine. The engine is wrapped in a single-generation
// swappable handle; use NewDynamic to share a handle that refreshes swap.
func New(eng *serving.Engine, backend ssd.Backend, opts ...Option) *Handler {
	return NewDynamic(serving.NewSwappable(eng), backend, opts...)
}

// NewDynamic returns a handler over a swappable engine handle: when a
// layout refresh swaps a new engine into the handle, pooled request
// workers and the coalescer re-bind to it at their next lookup, so the
// swap needs no connection draining or restart. Call Close when done to
// stop the coalescer and refresh-loop goroutines. The read backend is taken
// from whichever engine the handle holds (see curBackend), so the second
// argument is only what the first engine already reads from.
func NewDynamic(handle *serving.Swappable, _ ssd.Backend, opts ...Option) *Handler {
	h := &Handler{
		handle:         handle,
		mux:            http.NewServeMux(),
		window:         metrics.NewRateWindow(defaultHealthWindow),
		threshold:      defaultUnhealthyThreshold,
		minEvents:      defaultMinHealthEvents,
		retryAfterSec:  defaultRetryAfterSec,
		maxBatch:       defaultMaxBatch,
		coalesceQueue:  defaultCoalesceQueue,
		shardTolerance: defaultShardFailTolerance,
		nowFn:          time.Now, // the sanctioned injection point (clockcheck)
	}
	for _, o := range opts {
		o(h)
	}
	h.retryAfter = []string{strconv.Itoa(h.retryAfterSec)}
	h.refreshStats.Enabled = h.refreshSrc != nil
	h.scrubStats.Enabled = h.scrubber != nil
	h.rebuildStats.Enabled = h.shardAdmin != nil
	if h.maxBatch > 1 {
		h.coal = newCoalescer(h, h.maxBatch, h.coalesceQueue)
		go h.coal.run()
	}
	if h.refreshSrc != nil && h.refreshInterval > 0 {
		h.refreshQuit = make(chan struct{})
		h.refreshDone = make(chan struct{})
		go h.refreshLoop()
	}
	h.mux.HandleFunc("POST /v1/lookup", h.lookup)
	h.mux.HandleFunc("POST /v1/refresh", h.refresh)
	h.mux.HandleFunc("POST /v1/scrub", h.scrub)
	h.mux.HandleFunc("POST /v1/shards/{shard}/fail", h.failShard)
	h.mux.HandleFunc("POST /v1/shards/{shard}/rebuild", h.rebuildShard)
	h.mux.HandleFunc("GET /v1/stats", h.stats)
	h.mux.HandleFunc("GET /metrics", h.metrics)
	h.mux.HandleFunc("GET /healthz", h.health)
	if h.pprofEnabled {
		h.mux.HandleFunc("GET /debug/pprof/", httppprof.Index)
		h.mux.HandleFunc("GET /debug/pprof/cmdline", httppprof.Cmdline)
		h.mux.HandleFunc("GET /debug/pprof/profile", httppprof.Profile)
		h.mux.HandleFunc("GET /debug/pprof/symbol", httppprof.Symbol)
		h.mux.HandleFunc("GET /debug/pprof/trace", httppprof.Trace)
	}
	return h
}

// Handle returns the swappable engine handle the handler serves from.
func (h *Handler) Handle() *serving.Swappable { return h.handle }

// curBackend returns the read backend behind the *current* engine: a
// shard rebuild swaps in an engine over the repaired array, and the
// handler's stats, health, and admin surfaces must follow it rather than
// keep reporting the retired array's (now unobserved) shard state.
func (h *Handler) curBackend() ssd.Backend { return h.handle.Engine().Backend() }

// Close stops the refresh-loop and coalescer goroutines, serving anything
// already queued first. The handler keeps working afterwards, falling back
// to isolated per-request serving. Safe to call multiple times.
func (h *Handler) Close() {
	h.closeOnce.Do(func() {
		if h.refreshQuit != nil {
			close(h.refreshQuit)
			<-h.refreshDone
		}
		if h.coal != nil {
			h.coal.close()
		}
	})
}

// poolWorker is a pooled per-request worker tagged with the engine
// generation it was created for; stale entries are discarded instead of
// reused, so an engine swap invalidates the pool without coordination.
// The wrapper travels with its worker — out of the pool and back — so a
// pooled request allocates neither.
type poolWorker struct {
	gen uint64
	w   *serving.Worker
}

// getWorker returns a worker bound to the current engine generation,
// draining stale pool entries as it encounters them.
func (h *Handler) getWorker() *poolWorker {
	eng, gen := h.handle.Load()
	for {
		// Entries are either returned to the pool by putWorker or
		// deliberately dropped here when stale.
		//lint:allow poolreturn stale workers are drained, not leaked
		v := h.workers.Get()
		if v == nil {
			return &poolWorker{gen: gen, w: eng.NewWorker()}
		}
		if pw := v.(*poolWorker); pw.gen == gen {
			return pw
		}
		// Stale generation: drop the entry (its engine is retired) and
		// keep draining until the pool yields a current one or empties.
	}
}

// putWorker returns a worker to the pool unless a swap has made its
// generation stale, in which case it is dropped so the retired engine's
// page images can be collected.
func (h *Handler) putWorker(pw *poolWorker) {
	if h.handle.Generation() != pw.gen {
		return
	}
	h.workers.Put(pw)
}

// ServeHTTP implements http.Handler.
func (h *Handler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	h.mux.ServeHTTP(w, r)
}

// LookupRequest is the /v1/lookup request body.
type LookupRequest struct {
	// Keys to fetch. Duplicates are served once.
	Keys []uint32 `json:"keys"`
}

// LookupResponse is the /v1/lookup response body.
type LookupResponse struct {
	// Embeddings maps each distinct requested key to its vector. Empty
	// vectors are returned by timing-only engines.
	Embeddings map[uint32][]float32 `json:"embeddings"`
	// Degraded is set on a partial result (HTTP 206); FailedKeys then
	// lists the requested keys the engine could not serve within its
	// retry budget.
	Degraded   bool     `json:"degraded,omitempty"`
	FailedKeys []uint32 `json:"failed_keys,omitempty"`
	// Stats reports the work behind this lookup.
	Stats LookupStats `json:"stats"`
}

// LookupStats is the JSON projection of serving.QueryStats.
type LookupStats struct {
	DistinctKeys   int     `json:"distinct_keys"`
	CacheHits      int     `json:"cache_hits"`
	PagesRead      int     `json:"pages_read"`
	PageShare      float64 `json:"page_share"`
	BatchSize      int     `json:"batch_size"`
	Retries        int     `json:"retries,omitempty"`
	ReplicaRescues int     `json:"replica_rescues,omitempty"`
	ShardReroutes  int     `json:"shard_reroutes,omitempty"`
	StoreFallbacks int     `json:"store_fallbacks,omitempty"`
	LatencyNS      int64   `json:"virtual_latency_ns"`
	// Generation is the layout generation that served the lookup; it
	// increments when an online refresh swaps a new layout in.
	Generation uint64 `json:"layout_generation"`
}

const maxLookupKeys = 1 << 16

// wantsBinary reports whether the request negotiated the binary lookup
// encoding (Accept: application/octet-stream; see lease.go for the frame).
func wantsBinary(r *http.Request) bool {
	return r != nil && strings.Contains(r.Header.Get("Accept"), acceptBinary)
}

const acceptBinary = "application/octet-stream"

// Content-Type header values of a lookup reply, shared by every response:
// net/http and httptest only read a handler's header slices.
var (
	contentTypeJSON   = []string{"application/json"}
	contentTypeBinary = []string{acceptBinary}
)

// reply is a finished /v1/lookup response before any transport has seen
// it: the net/http route sets it on a ResponseWriter (write), the
// connection loop appends it to its header buffer (conn.go). body is
// appended to the buffer the caller lent.
type reply struct {
	status     int
	binary     bool // application/octet-stream; application/json otherwise
	retryAfter bool // carries Retry-After: h.retryAfter
	body       []byte
}

// errorReply is httpError's body as a reply.
func errorReply(buf []byte, status int, format string, args ...any) reply {
	return reply{status: status, body: appendErrorBody(buf, fmt.Sprintf(format, args...))}
}

// appendErrorBody appends {"error":msg} and a newline, as json.Encoder
// prints the one-field object.
func appendErrorBody(buf []byte, msg string) []byte {
	quoted, _ := json.Marshal(msg) // a string never fails to marshal
	buf = append(buf, `{"error":`...)
	buf = append(buf, quoted...)
	return append(buf, '}', '\n')
}

// write sends rp as the response of a net/http request. Every header value
// is a slice that already exists: the job's for Content-Length (reformatted
// only when the length differs from the job's previous reply).
func (h *Handler) write(w http.ResponseWriter, job *lookupJob, rp reply) {
	hd := w.Header()
	hd["Content-Type"] = contentTypeJSON
	if rp.binary {
		hd["Content-Type"] = contentTypeBinary
	}
	if job.clenOf != len(rp.body) || job.clen[0] == "" {
		job.clenOf, job.clen[0] = len(rp.body), strconv.Itoa(len(rp.body))
	}
	hd["Content-Length"] = job.clen[:]
	if rp.retryAfter {
		hd["Retry-After"] = h.retryAfter
	}
	w.WriteHeader(rp.status)
	w.Write(rp.body)
}

// lookup is the net/http route of /v1/lookup; the connection loop of Serve
// (conn.go) is the other caller of admit and serveLookup.
func (h *Handler) lookup(w http.ResponseWriter, r *http.Request) {
	if d := h.lookupSend.Load(); d > 0 {
		// net/http's own ResponseWriter reaches the connection's deadline
		// (this is what http.ResponseController calls, without its
		// per-request allocation); a writer that does not serves unbounded.
		if dw, ok := w.(interface{ SetWriteDeadline(time.Time) error }); ok {
			_ = dw.SetWriteDeadline(wallNow().Add(time.Duration(d)))
		}
	}
	job := lookupJobPool.Get().(*lookupJob)
	defer putLookupJob(job)
	bp := respBufPool.Get().(*[]byte)
	buf := (*bp)[:0]
	rp, ok := h.admit(buf)
	if ok {
		var err error
		switch job.body, err = readBody(job.body, r); {
		case err == errBodyTooLarge:
			rp = errorReply(buf, http.StatusRequestEntityTooLarge,
				"request body too large: limit %d bytes", maxLookupBody)
		case err != nil:
			rp = errorReply(buf, http.StatusBadRequest, "invalid JSON: %v", err)
		default:
			rp = h.serveLookup(r.Context(), job, wantsBinary(r), buf)
		}
	}
	h.write(w, job, rp)
	*bp = rp.body
	putRespBuf(bp)
}

// admit is a lookup's health gate, passed before the request body is looked
// at: while the node is unhealthy it sheds load (ok false, with the 503 to
// send) but admits every Nth request as a probe, whose observation
// refreshes the window, so a recovered device brings the server back
// without an operator in the loop.
func (h *Handler) admit(buf []byte) (shed reply, ok bool) {
	nh := h.nodeHealth(h.curBackend(), nil)
	if nh.Ready || h.probeSeq.Add(1)%defaultProbeEvery == 0 {
		return reply{}, true
	}
	shed = errorReply(buf, http.StatusServiceUnavailable,
		"device unhealthy: read-fault rate %.2f over recent lookups", nh.ErrorRate)
	shed.retryAfter = true
	return shed, false
}

// serveLookup is an admitted lookup from request body to reply body:
// decode job.body, serve the keys through the coalescer or, without one,
// on a pooled worker, and encode the leased result into buf. The lease is
// released before the reply is returned, so no completion buffer stays
// pinned while a slow peer is written to.
func (h *Handler) serveLookup(ctx context.Context, job *lookupJob, binary bool, buf []byte) reply {
	if err := job.decodeKeys(); err != nil {
		return errorReply(buf, http.StatusBadRequest, "invalid JSON: %v", err)
	}
	if len(job.keys) == 0 {
		return errorReply(buf, http.StatusBadRequest, "keys must be non-empty")
	}
	if len(job.keys) > maxLookupKeys {
		return errorReply(buf, http.StatusBadRequest, "too many keys: %d > %d", len(job.keys), maxLookupKeys)
	}
	// No coalescer counts as one that has shut down: serve in isolation.
	lease, err := (*respLease)(nil), errCoalescerClosed
	if h.coal != nil {
		lease, err = h.coal.do(job)
	}
	if err == errCoalescerClosed {
		lease, err = h.lookupIsolated(ctx, job.keys)
	}
	if err == errCoalesceQueueFull {
		rp := errorReply(buf, http.StatusServiceUnavailable, "server overloaded: coalesce queue full")
		rp.retryAfter = true
		return rp
	}
	if err != nil {
		return errorReply(buf, http.StatusUnprocessableEntity, "lookup: %v", err)
	}
	return leaseReply(lease, binary, buf)
}

// leaseReply encodes a leased lookup result into buf and releases the lease
// (unpinning the backend's completion buffers). Ref-backed payloads flow
// completion buffer → body buffer → socket with no intermediate
// representation.
func leaseReply(l *respLease, binary bool, buf []byte) reply {
	rp := reply{status: http.StatusOK, binary: binary}
	if l.degraded {
		rp.status = http.StatusPartialContent
	}
	if binary {
		rp.body = l.encodeBinary(buf)
	} else {
		rp.body = l.encodeJSON(buf)
	}
	l.release()
	return rp
}

// lookupIsolated serves one request on a pooled worker with no batching —
// the path taken when coalescing is disabled. The caller's context rides
// into the engine's recovery loop, so a request nobody waits for any more
// stops the worker from burning retries on its behalf.
func (h *Handler) lookupIsolated(ctx context.Context, keys []uint32) (*respLease, error) {
	pw := h.getWorker()
	res, err := pw.w.LookupCtx(ctx, keys)
	if err != nil {
		h.putWorker(pw)
		return nil, err
	}
	h.window.Observe(int64(res.Stats.ReadFaults),
		int64(res.Stats.PagesRead+res.Stats.Retries))
	// Snapshot the result (pinning any zero-copy buffer views) before the
	// worker goes back to the pool, where another request may reuse it.
	lease := newLease(res)
	h.putWorker(pw)
	return lease, nil
}

// health is a real readiness probe: it reports 503 while the node is
// unhealthy, so load balancers rotate the instance out until it clears.
// With a multi-shard backend the verdict is shard-aware — a minority of
// dead shards (the engine routes around them) does not flip the node —
// and the body carries per-shard fault fractions beside the global
// window so an operator can tell a sick drive from a sick node.
func (h *Handler) health(w http.ResponseWriter, _ *http.Request) {
	var body struct {
		Status string `json:"status"`
		HealthStats
		Shards []ssd.ShardHealthInfo `json:"shards"`
	}
	nh := h.nodeHealth(h.curBackend(), &body.Shards)
	if nh.Ready && !nh.sharded {
		w.WriteHeader(http.StatusOK)
		fmt.Fprintln(w, "ok")
		return
	}
	body.Status, body.HealthStats = "ok", nh.stats()
	status := http.StatusOK
	if !nh.Ready {
		body.Status, status = "unhealthy", http.StatusServiceUnavailable
		w.Header()["Retry-After"] = h.retryAfter
	}
	writeJSONStatus(w, status, body)
}

func writeJSON(w http.ResponseWriter, v any) {
	writeJSONStatus(w, http.StatusOK, v)
}

func writeJSONStatus(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	if err := json.NewEncoder(w).Encode(v); err != nil {
		// Headers are already out; nothing recoverable.
		return
	}
}

func httpError(w http.ResponseWriter, code int, format string, args ...any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	w.Write(appendErrorBody(nil, fmt.Sprintf(format, args...)))
}
