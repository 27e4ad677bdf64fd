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

// WithCoalescing configures cross-request micro-batching: up to maxBatch
// concurrent lookups are gathered into one coalesced serving pass, waiting
// at most maxWait for the batch to fill once two or more requests are
// pending (a lone request is always dispatched immediately). maxBatch ≤ 1
// disables coalescing and serves every request in isolation from a worker
// pool. Defaults: maxBatch 8, maxWait 250µs.
func WithCoalescing(maxBatch int, maxWait time.Duration) Option {
	return func(h *Handler) { h.maxBatch, h.maxWait = maxBatch, maxWait }
}

// WithoutCoalescing serves every request in isolation (the pre-batching
// architecture); equivalent to WithCoalescing(1, 0).
func WithoutCoalescing() Option {
	return func(h *Handler) { h.maxBatch, h.maxWait = 1, 0 }
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
	backend ssd.Backend
	mux     *http.ServeMux
	workers sync.Pool // *poolWorker entries, tagged with their generation

	window        *metrics.RateWindow
	threshold     float64
	minEvents     int64
	retryAfterSec int
	probeSeq      atomic.Int64 // admits every Nth request while unhealthy

	maxBatch      int
	maxWait       time.Duration
	coalesceQueue int
	coal          *coalescer // nil when coalescing is disabled
	closeOnce     sync.Once
	pprofEnabled  bool

	nowFn func() time.Time // injected clock (WithClock); wall clock by default

	spreadSrc SpreadReporter // last despread pass for /v1/stats, nil unless wired

	refreshSrc        RefreshSource
	refreshInterval   time.Duration
	refreshMinQueries int64
	refreshMu         sync.Mutex // serializes admin- and loop-triggered refreshes
	refreshes         atomic.Int64
	refreshErrors     atomic.Int64
	lastRefreshNS     atomic.Int64
	refreshQuit       chan struct{}
	refreshDone       chan struct{}

	shardAdmin                                    ShardAdmin
	scrubber                                      Scrubber
	shardTolerance                                float64    // dead-shard fraction above which the node is unhealthy
	scrubMu                                       sync.Mutex // serializes admin scrub sweeps
	rebuildMu                                     sync.Mutex // serializes admin rebuilds
	adminMu                                       sync.Mutex // guards lastScrub / lastRebuild
	lastScrub                                     *ScrubResponse
	lastRebuild                                   *RebuildResponse
	scrubs, scrubErrors, scrubScanned, scrubTotal atomic.Int64
	scrubLatent, scrubRepaired, scrubUnrepairable atomic.Int64
	rebuilds, rebuildErrors                       atomic.Int64
	rebuildCopied, rebuildTotal, lastMTTRNS       atomic.Int64
	scrubRunning, rebuildRunning                  atomic.Bool
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
// stop the coalescer and refresh-loop goroutines.
func NewDynamic(handle *serving.Swappable, backend ssd.Backend, opts ...Option) *Handler {
	h := &Handler{
		handle:         handle,
		backend:        backend,
		mux:            http.NewServeMux(),
		window:         metrics.NewRateWindow(defaultHealthWindow),
		threshold:      defaultUnhealthyThreshold,
		minEvents:      defaultMinHealthEvents,
		retryAfterSec:  defaultRetryAfterSec,
		maxBatch:       defaultMaxBatch,
		maxWait:        defaultMaxWait,
		coalesceQueue:  defaultCoalesceQueue,
		shardTolerance: defaultShardFailTolerance,
		nowFn:          time.Now, // the sanctioned injection point (clockcheck)
	}
	for _, o := range opts {
		o(h)
	}
	if h.maxBatch > 1 {
		h.coal = newCoalescer(h, h.maxBatch, h.maxWait, h.coalesceQueue)
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
func (h *Handler) curBackend() ssd.Backend {
	if be := h.handle.Engine().Backend(); be != nil {
		return be
	}
	return h.backend
}

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

// healthy reports the rolling read-fault rate and the readiness verdict.
// On a single-device backend the verdict is the legacy global-window one;
// with per-shard health it is shard-aware (see nodeHealth).
func (h *Handler) healthy() (rate float64, events int64, ok bool) {
	nh := h.nodeHealth(nil)
	return nh.rate, nh.events, nh.ready
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
	return r != nil && strings.Contains(r.Header.Get("Accept"), "application/octet-stream")
}

// Content-Type header values of a lookup reply, shared by every response:
// net/http and httptest only read a handler's header slices.
var (
	contentTypeJSON   = []string{"application/json"}
	contentTypeBinary = []string{"application/octet-stream"}
)

// writeLease encodes a leased lookup result into a pooled body buffer,
// releases the lease (unpinning the backend's completion buffers), and
// writes the response. Ref-backed payloads flow completion buffer → body
// buffer → socket with no intermediate representation.
func (h *Handler) writeLease(w http.ResponseWriter, binary bool, status int, l *respLease) {
	bp := respBufPool.Get().(*[]byte)
	buf := (*bp)[:0]
	if binary {
		buf = l.encodeBinary(buf)
		w.Header()["Content-Type"] = contentTypeBinary
	} else {
		buf = l.encodeJSON(buf)
		w.Header()["Content-Type"] = contentTypeJSON
	}
	l.release()
	w.Header().Set("Content-Length", strconv.Itoa(len(buf)))
	w.WriteHeader(status)
	w.Write(buf)
	*bp = buf
	putRespBuf(bp)
}

func (h *Handler) lookup(w http.ResponseWriter, r *http.Request) {
	if rate, _, ok := h.healthy(); !ok {
		// Shed load, but admit every Nth request as a probe: its
		// observation refreshes the window, so a recovered device brings
		// the server back without an operator in the loop.
		if h.probeSeq.Add(1)%defaultProbeEvery != 0 {
			w.Header().Set("Retry-After", fmt.Sprint(h.retryAfterSec))
			httpError(w, http.StatusServiceUnavailable,
				"device unhealthy: read-fault rate %.2f over recent lookups", rate)
			return
		}
	}
	job := lookupJobPool.Get().(*lookupJob)
	defer putLookupJob(job)
	var err error
	if job.body, err = readBody(job.body, r); err == errBodyTooLarge {
		httpError(w, http.StatusRequestEntityTooLarge,
			"request body too large: limit %d bytes", maxLookupBody)
		return
	}
	if err == nil {
		err = job.decodeKeys()
	}
	if err != nil {
		httpError(w, http.StatusBadRequest, "invalid JSON: %v", err)
		return
	}
	if len(job.keys) == 0 {
		httpError(w, http.StatusBadRequest, "keys must be non-empty")
		return
	}
	if len(job.keys) > maxLookupKeys {
		httpError(w, http.StatusBadRequest, "too many keys: %d > %d", len(job.keys), maxLookupKeys)
		return
	}
	if h.coal != nil {
		if h.lookupCoalesced(w, r, job) {
			return
		}
		// Coalescer shut down mid-request: fall through to isolated serving.
	}
	h.lookupIsolated(w, r, job.keys)
}

// lookupCoalesced routes the request through the coalescer. It reports
// false only when the coalescer has shut down and the request should be
// served in isolation instead; a full queue is handled here (503).
func (h *Handler) lookupCoalesced(w http.ResponseWriter, r *http.Request, job *lookupJob) bool {
	if h.coal.closing.Load() {
		return false
	}
	h.coal.inflight.Add(1)
	defer h.coal.inflight.Add(-1)
	if !h.coal.submit(job) {
		if h.coal.closing.Load() {
			return false
		}
		w.Header().Set("Retry-After", fmt.Sprint(h.retryAfterSec))
		httpError(w, http.StatusServiceUnavailable,
			"server overloaded: coalesce queue full")
		return true
	}
	var out lookupOutcome
	select {
	case out = <-job.done:
	case <-h.coal.exited:
		// The coalescer exited after accepting the job; it drains its
		// queue before exiting, so the outcome — if any — is already
		// buffered. Otherwise serve in isolation.
		select {
		case out = <-job.done:
		default:
			return false
		}
	}
	if out.err != nil {
		httpError(w, http.StatusUnprocessableEntity, "lookup: %v", out.err)
		return true
	}
	h.writeLease(w, wantsBinary(r), out.status, out.lease)
	return true
}

// lookupIsolated serves one request on a pooled worker with no batching —
// the path taken when coalescing is disabled. The request context rides
// into the engine's recovery loop, so a client that hangs up stops the
// worker from burning retries on its behalf.
func (h *Handler) lookupIsolated(w http.ResponseWriter, r *http.Request, keys []uint32) {
	pw := h.getWorker()
	res, err := pw.w.LookupCtx(r.Context(), keys)
	if err != nil {
		h.putWorker(pw)
		httpError(w, http.StatusUnprocessableEntity, "lookup: %v", err)
		return
	}
	h.window.Observe(int64(res.Stats.ReadFaults),
		int64(res.Stats.PagesRead+res.Stats.Retries))
	// Snapshot the result (pinning any zero-copy buffer views) before the
	// worker goes back to the pool, where another request may reuse it.
	lease := newLease(res)
	h.putWorker(pw)
	status := http.StatusOK
	if lease.degraded {
		status = http.StatusPartialContent
	}
	h.writeLease(w, wantsBinary(r), status, lease)
}

// StatsResponse is the /v1/stats response body.
type StatsResponse struct {
	Device struct {
		Reads       int64 `json:"reads"`
		BytesRead   int64 `json:"bytes_read"`
		Errors      int64 `json:"errors"`
		Timeouts    int64 `json:"timeouts"`
		Corruptions int64 `json:"corruptions"`
	} `json:"device"`
	// Shards breaks Device down per member drive of a multi-device
	// backend (one entry on a single device), with each shard's peak
	// observed queue depth.
	Shards []ShardStatsEntry `json:"shards"`
	// Tiers aggregates shard activity per device tier (fastest first) on a
	// heterogeneous backend; omitted when the backend has a single tier.
	Tiers []TierStatsEntry `json:"tiers,omitempty"`
	// Backend describes the read executor of a real-I/O backend; omitted
	// on simulated backends.
	Backend *BackendStatsEntry `json:"backend,omitempty"`
	// Coact reports per-query shard-spread depth and the last
	// co-activation placement pass; omitted on one-shard backends.
	Coact    *CoactStatsEntry `json:"coact,omitempty"`
	Recovery struct {
		ReadErrors      int64 `json:"read_errors"`
		Timeouts        int64 `json:"timeouts"`
		Corruptions     int64 `json:"corruptions_detected"`
		Retries         int64 `json:"retries"`
		ReplicaRescues  int64 `json:"replica_rescues"`
		RecoveredKeys   int64 `json:"recovered_keys"`
		DegradedQueries int64 `json:"degraded_queries"`
		FailedKeys      int64 `json:"failed_keys"`
		ShardReroutes   int64 `json:"shard_reroutes"`
		StoreFallbacks  int64 `json:"store_fallbacks"`
	} `json:"recovery"`
	Health struct {
		Ready        bool    `json:"ready"`
		ErrorRate    float64 `json:"error_rate"`
		WindowEvents int64   `json:"window_events"`
		// Shard-aware verdict detail; zero values on single-device
		// backends, which keep the legacy global-window verdict.
		DeadShards    int     `json:"dead_shards,omitempty"`
		LiveErrorRate float64 `json:"live_error_rate,omitempty"`
	} `json:"health"`
	// Scrub and Rebuild report admin-triggered repair activity on this
	// server (409-guarded; progress gauges update while one runs).
	Scrub struct {
		Enabled       bool           `json:"enabled"`
		Running       bool           `json:"running"`
		Sweeps        int64          `json:"sweeps"`
		Errors        int64          `json:"errors"`
		ProgressPages int64          `json:"progress_pages"`
		ProgressTotal int64          `json:"progress_total"`
		LatentSlots   int64          `json:"latent_slots_total"`
		RepairedSlots int64          `json:"repaired_slots_total"`
		Last          *ScrubResponse `json:"last,omitempty"`
	} `json:"scrub"`
	Rebuild struct {
		Enabled       bool             `json:"enabled"`
		Running       bool             `json:"running"`
		Rebuilds      int64            `json:"rebuilds"`
		Errors        int64            `json:"errors"`
		ProgressPages int64            `json:"progress_pages"`
		ProgressTotal int64            `json:"progress_total"`
		LastMTTRNS    int64            `json:"last_mttr_ns"`
		Last          *RebuildResponse `json:"last,omitempty"`
	} `json:"rebuild"`
	Cache *CacheStatsEntry `json:"cache,omitempty"`
	// Shadow is the ghost-cache miss-rate curve (one point per simulated
	// DRAM capacity); present only when the engine runs shadow caches.
	Shadow  []ShadowPointEntry `json:"shadow,omitempty"`
	Latency struct {
		Count  int     `json:"count"`
		MeanNS float64 `json:"mean_ns"`
		P50NS  int64   `json:"p50_ns"`
		P99NS  int64   `json:"p99_ns"`
	} `json:"virtual_latency"`
	MeanValidPerRead float64 `json:"mean_valid_per_read"`
	// Refresh reports online layout-refresh activity. Generation and Swaps
	// advance even when refreshes are driven externally (through the
	// shared handle) rather than by this server's loop or endpoint.
	Refresh struct {
		Enabled        bool   `json:"enabled"`
		Generation     uint64 `json:"layout_generation"`
		Swaps          int64  `json:"engine_swaps"`
		Refreshes      int64  `json:"refreshes"`
		Errors         int64  `json:"errors"`
		LastDurationNS int64  `json:"last_duration_ns"`
		PendingQueries int64  `json:"pending_queries"`
		// Valid-embeddings-per-read means either side of the most recent
		// swap: Before is frozen at swap time, After accumulates on the
		// live engine. After > Before means the refresh paid off.
		ValidPerReadBefore float64 `json:"valid_per_read_before_swap"`
		ValidPerReadAfter  float64 `json:"valid_per_read_after_swap"`
	} `json:"refresh"`
	// Coalescer reports micro-batching activity; Enabled false (and zero
	// counters) when the server serves every request in isolation.
	Coalescer CoalescerStats `json:"coalescer"`
}

// ShardStatsEntry is one device shard's slice of /v1/stats: its share of
// the read/fault activity plus the highest per-worker queue depth any
// serving worker observed on its queue pair to that shard.
type ShardStatsEntry struct {
	Shard int `json:"shard"`
	// Profile names the shard's device model; Tier is its tier rank
	// (0 = fastest) on a tiered backend, 0 otherwise.
	Profile     string `json:"profile,omitempty"`
	Tier        int    `json:"tier"`
	Reads       int64  `json:"reads"`
	BytesRead   int64  `json:"bytes_read"`
	Errors      int64  `json:"errors"`
	Timeouts    int64  `json:"timeouts"`
	Corruptions int64  `json:"corruptions"`
	QueuePeak   int64  `json:"queue_peak"`
	// Health state machine detail, present when the backend tracks
	// per-shard health (a multi-device array).
	State        string  `json:"state,omitempty"`
	FaultRate    float64 `json:"fault_rate,omitempty"`
	LatentErrors int64   `json:"latent_errors,omitempty"`
}

// TierStatsEntry is one device tier's aggregate slice of /v1/stats.
type TierStatsEntry struct {
	Tier    int    `json:"tier"`
	Profile string `json:"profile"`
	Shards  []int  `json:"shards"`
	// Pages is how many of the current layout's pages live on this tier.
	Pages     int   `json:"pages"`
	Reads     int64 `json:"reads"`
	BytesRead int64 `json:"bytes_read"`
	// ReadShare is this tier's fraction of all backend reads.
	ReadShare float64 `json:"read_share"`
	// RatedBandwidth sums the member shards' rated bandwidth (bytes/s).
	RatedBandwidth float64 `json:"rated_bandwidth"`
}

// ShadowPointEntry is one simulated capacity of the ghost-cache
// miss-rate curve on /v1/stats.
type ShadowPointEntry struct {
	Capacity int     `json:"capacity"`
	Hits     int64   `json:"hits"`
	Accesses int64   `json:"accesses"`
	HitRate  float64 `json:"hit_rate"`
}

// BackendStatsEntry is a real-I/O backend's slice of /v1/stats. The ring
// fields are present on the io_uring executor only: ReadsPerEnter near the
// pages a lookup reads means submissions batch (one io_uring_enter per
// Drain); near 1 means every read pays its own syscall.
type BackendStatsEntry struct {
	Executor      string   `json:"executor"`
	RingEnters    *int64   `json:"ring_enters,omitempty"`
	ReadsPerEnter *float64 `json:"reads_per_enter,omitempty"`
}

// ringBackend is the executor surface of ssd.FileBackend.
type ringBackend interface {
	ExecutorKind() string
	RingEnters() (n int64, ok bool)
}

// backendStats returns the executor block, nil on a simulated backend.
func (h *Handler) backendStats(reads int64) *BackendStatsEntry {
	rb, ok := h.curBackend().(ringBackend)
	if !ok {
		return nil
	}
	e := &BackendStatsEntry{Executor: rb.ExecutorKind()}
	if n, ok := rb.RingEnters(); ok {
		per := 0.0
		if n > 0 {
			per = float64(reads) / float64(n)
		}
		e.RingEnters, e.ReadsPerEnter = &n, &per
	}
	return e
}

// CacheStatsEntry is the DRAM cache's slice of /v1/stats, including
// per-segment occupancy and churn under the segmented policy and the
// pin-set counters.
type CacheStatsEntry struct {
	Hits      int64   `json:"hits"`
	Misses    int64   `json:"misses"`
	Evictions int64   `json:"evictions"`
	HitRate   float64 `json:"hit_rate"`
	Entries   int     `json:"entries"`
	// Bypassed counts keys read from a shared page that found their cache
	// shard full and were not cached. Beside Evictions, each of which made
	// room for an admitted key, it shows the admission rule at work.
	Bypassed int64 `json:"bypassed"`
	// Segment detail: probation/protected occupancy and eviction split,
	// with promotion/demotion churn (zero protected under plain LRU).
	ProbationEntries   int   `json:"probation_entries"`
	ProtectedEntries   int   `json:"protected_entries"`
	ProbationEvictions int64 `json:"probation_evictions"`
	ProtectedEvictions int64 `json:"protected_evictions"`
	Promotions         int64 `json:"promotions"`
	Demotions          int64 `json:"demotions"`
	// Pin-set detail: permanently resident entries above the LRU.
	PinnedEntries int   `json:"pinned_entries"`
	PinnedHits    int64 `json:"pinned_hits"`
}

// shardStats snapshots per-shard device counters and the current engine's
// per-shard queue-depth peaks.
func (h *Handler) shardStats(eng *serving.Engine) []ShardStatsEntry {
	be := h.curBackend()
	n := be.NumShards()
	peaks := eng.ShardQueuePeaks()
	tr, _ := be.(ssd.TierReporter)
	out := make([]ShardStatsEntry, n)
	for i := 0; i < n; i++ {
		sh := be.Shard(i)
		ds := sh.Stats()
		out[i] = ShardStatsEntry{
			Shard:       i,
			Profile:     sh.Profile().Name,
			Reads:       ds.Reads,
			BytesRead:   ds.BytesRead,
			Errors:      ds.Errors,
			Timeouts:    ds.Timeouts,
			Corruptions: ds.Corruptions,
		}
		if tr != nil {
			out[i].Tier = tr.TierOf(i)
		}
		if i < len(peaks) {
			out[i].QueuePeak = peaks[i]
		}
	}
	if hr, ok := be.(ssd.HealthReporter); ok {
		for i := range out {
			info := hr.ShardHealth(i)
			out[i].State = info.State.String()
			out[i].FaultRate = info.FaultRate
			out[i].LatentErrors = info.LatentErrors
		}
	}
	return out
}

// tierStats aggregates shard activity per device tier of a heterogeneous
// backend, nil when the backend has a single tier. Page occupancy comes
// from the engine's current layout: page p stripes to shard p mod n.
func (h *Handler) tierStats(eng *serving.Engine) []TierStatsEntry {
	be := h.curBackend()
	tr, ok := be.(ssd.TierReporter)
	if !ok || tr.NumTiers() < 2 {
		return nil
	}
	n := be.NumShards()
	out := make([]TierStatsEntry, tr.NumTiers())
	var totalReads int64
	for t := range out {
		info := tr.Tier(t)
		out[t] = TierStatsEntry{Tier: t, Profile: info.Profile.Name, Shards: info.Shards}
		for _, s := range info.Shards {
			ds := be.Shard(s).Stats()
			out[t].Reads += ds.Reads
			out[t].BytesRead += ds.BytesRead
			out[t].RatedBandwidth += be.Shard(s).Profile().Bandwidth
			totalReads += ds.Reads
		}
	}
	for p := range eng.Layout().Pages {
		out[tr.TierOf(p%n)].Pages++
	}
	if totalReads > 0 {
		for t := range out {
			out[t].ReadShare = float64(out[t].Reads) / float64(totalReads)
		}
	}
	return out
}

func (h *Handler) stats(w http.ResponseWriter, _ *http.Request) {
	var resp StatsResponse
	ds := h.curBackend().Stats()
	resp.Device.Reads = ds.Reads
	resp.Device.BytesRead = ds.BytesRead
	resp.Device.Errors = ds.Errors
	resp.Device.Timeouts = ds.Timeouts
	resp.Device.Corruptions = ds.Corruptions
	resp.Shards = h.shardStats(h.handle.Engine())
	resp.Tiers = h.tierStats(h.handle.Engine())
	resp.Backend = h.backendStats(ds.Reads)
	resp.Coact = h.coactStats(h.handle.Engine())
	// Recovery counters aggregate across engine swaps (retired engines'
	// totals are folded in) so they stay monotonic for pollers.
	rec := h.handle.Totals()
	resp.Recovery.ReadErrors = rec.ReadErrors
	resp.Recovery.Timeouts = rec.Timeouts
	resp.Recovery.Corruptions = rec.Corruptions
	resp.Recovery.Retries = rec.Retries
	resp.Recovery.ReplicaRescues = rec.ReplicaRescues
	resp.Recovery.RecoveredKeys = rec.RecoveredKeys
	resp.Recovery.DegradedQueries = rec.DegradedQueries
	resp.Recovery.FailedKeys = rec.FailedKeys
	resp.Recovery.ShardReroutes = rec.ShardReroutes
	resp.Recovery.StoreFallbacks = rec.StoreFallbacks
	nh := h.nodeHealth(nil)
	resp.Health.Ready = nh.ready
	resp.Health.ErrorRate = nh.rate
	resp.Health.WindowEvents = nh.events
	resp.Health.DeadShards = nh.deadShards
	resp.Health.LiveErrorRate = nh.liveRate
	resp.Scrub.Enabled = h.scrubber != nil
	resp.Scrub.Running = h.scrubRunning.Load()
	resp.Scrub.Sweeps = h.scrubs.Load()
	resp.Scrub.Errors = h.scrubErrors.Load()
	resp.Scrub.ProgressPages = h.scrubScanned.Load()
	resp.Scrub.ProgressTotal = h.scrubTotal.Load()
	resp.Scrub.LatentSlots = h.scrubLatent.Load()
	resp.Scrub.RepairedSlots = h.scrubRepaired.Load()
	resp.Rebuild.Enabled = h.shardAdmin != nil
	resp.Rebuild.Running = h.rebuildRunning.Load()
	resp.Rebuild.Rebuilds = h.rebuilds.Load()
	resp.Rebuild.Errors = h.rebuildErrors.Load()
	resp.Rebuild.ProgressPages = h.rebuildCopied.Load()
	resp.Rebuild.ProgressTotal = h.rebuildTotal.Load()
	resp.Rebuild.LastMTTRNS = h.lastMTTRNS.Load()
	h.adminMu.Lock()
	resp.Scrub.Last = h.lastScrub
	resp.Rebuild.Last = h.lastRebuild
	h.adminMu.Unlock()
	eng := h.handle.Engine()
	if c := eng.Cache(); c != nil {
		cs := c.Stats()
		resp.Cache = &CacheStatsEntry{
			Hits:               cs.Hits,
			Misses:             cs.Misses,
			Evictions:          cs.Evictions,
			Bypassed:           cs.Bypassed,
			HitRate:            cs.HitRate(),
			Entries:            c.Len(),
			ProbationEntries:   cs.ProbationLen,
			ProtectedEntries:   cs.ProtectedLen,
			ProbationEvictions: cs.ProbationEvictions,
			ProtectedEvictions: cs.ProtectedEvictions,
			Promotions:         cs.Promotions,
			Demotions:          cs.Demotions,
			PinnedEntries:      cs.PinnedEntries,
			PinnedHits:         cs.PinnedHits,
		}
	}
	if sh := eng.Shadow(); sh != nil {
		for _, p := range sh.Curve() {
			resp.Shadow = append(resp.Shadow, ShadowPointEntry{
				Capacity: p.Capacity, Hits: p.Hits, Accesses: p.Accesses, HitRate: p.HitRate,
			})
		}
	}
	ls := eng.Latency.Snapshot()
	resp.Latency.Count = ls.Count
	resp.Latency.MeanNS = ls.MeanNS
	resp.Latency.P50NS = ls.P50NS
	resp.Latency.P99NS = ls.P99NS
	resp.MeanValidPerRead = eng.ValidPerRead.Mean()
	resp.Refresh.Enabled = h.refreshSrc != nil
	resp.Refresh.Generation = h.handle.Generation()
	resp.Refresh.Swaps = h.handle.Swaps()
	resp.Refresh.Refreshes = h.refreshes.Load()
	resp.Refresh.Errors = h.refreshErrors.Load()
	resp.Refresh.LastDurationNS = h.lastRefreshNS.Load()
	if h.refreshSrc != nil {
		resp.Refresh.PendingQueries = h.refreshSrc.PendingQueries()
	}
	resp.Refresh.ValidPerReadBefore = h.handle.ValidPerReadBefore()
	resp.Refresh.ValidPerReadAfter = eng.ValidPerRead.Mean()
	if h.coal != nil {
		resp.Coalescer = h.coal.stats()
	}
	writeJSON(w, resp)
}

// metrics renders the same counters in Prometheus text exposition format
// for scrape-based monitoring.
func (h *Handler) metrics(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4")
	be := h.curBackend()
	ds := be.Stats()
	fmt.Fprintf(w, "# TYPE maxembed_device_reads_total counter\nmaxembed_device_reads_total %d\n", ds.Reads)
	fmt.Fprintf(w, "# TYPE maxembed_device_bytes_read_total counter\nmaxembed_device_bytes_read_total %d\n", ds.BytesRead)
	fmt.Fprintf(w, "# TYPE maxembed_device_errors_total counter\nmaxembed_device_errors_total %d\n", ds.Errors)
	fmt.Fprintf(w, "# TYPE maxembed_device_timeouts_total counter\nmaxembed_device_timeouts_total %d\n", ds.Timeouts)
	fmt.Fprintf(w, "# TYPE maxembed_device_corruptions_total counter\nmaxembed_device_corruptions_total %d\n", ds.Corruptions)
	shards := h.shardStats(h.handle.Engine())
	fmt.Fprintf(w, "# TYPE maxembed_shard_reads_total counter\n")
	for _, s := range shards {
		fmt.Fprintf(w, "maxembed_shard_reads_total{shard=\"%d\"} %d\n", s.Shard, s.Reads)
	}
	fmt.Fprintf(w, "# TYPE maxembed_shard_errors_total counter\n")
	for _, s := range shards {
		fmt.Fprintf(w, "maxembed_shard_errors_total{shard=\"%d\"} %d\n", s.Shard, s.Errors)
	}
	fmt.Fprintf(w, "# TYPE maxembed_shard_timeouts_total counter\n")
	for _, s := range shards {
		fmt.Fprintf(w, "maxembed_shard_timeouts_total{shard=\"%d\"} %d\n", s.Shard, s.Timeouts)
	}
	fmt.Fprintf(w, "# TYPE maxembed_shard_corruptions_total counter\n")
	for _, s := range shards {
		fmt.Fprintf(w, "maxembed_shard_corruptions_total{shard=\"%d\"} %d\n", s.Shard, s.Corruptions)
	}
	fmt.Fprintf(w, "# TYPE maxembed_shard_queue_peak gauge\n")
	for _, s := range shards {
		fmt.Fprintf(w, "maxembed_shard_queue_peak{shard=\"%d\"} %d\n", s.Shard, s.QueuePeak)
	}
	if tiers := h.tierStats(h.handle.Engine()); tiers != nil {
		fmt.Fprintf(w, "# TYPE maxembed_tier_reads_total counter\n")
		for _, t := range tiers {
			fmt.Fprintf(w, "maxembed_tier_reads_total{tier=\"%d\",profile=%q} %d\n", t.Tier, t.Profile, t.Reads)
		}
		fmt.Fprintf(w, "# TYPE maxembed_tier_bytes_read_total counter\n")
		for _, t := range tiers {
			fmt.Fprintf(w, "maxembed_tier_bytes_read_total{tier=\"%d\",profile=%q} %d\n", t.Tier, t.Profile, t.BytesRead)
		}
		fmt.Fprintf(w, "# TYPE maxembed_tier_pages gauge\n")
		for _, t := range tiers {
			fmt.Fprintf(w, "maxembed_tier_pages{tier=\"%d\",profile=%q} %d\n", t.Tier, t.Profile, t.Pages)
		}
		fmt.Fprintf(w, "# TYPE maxembed_tier_read_share gauge\n")
		for _, t := range tiers {
			fmt.Fprintf(w, "maxembed_tier_read_share{tier=\"%d\",profile=%q} %g\n", t.Tier, t.Profile, t.ReadShare)
		}
	}
	h.coactMetrics(w, h.handle.Engine())
	if rb, ok := be.(ringBackend); ok {
		if n, ok := rb.RingEnters(); ok {
			fmt.Fprintf(w, "# TYPE maxembed_backend_ring_enters_total counter\nmaxembed_backend_ring_enters_total %d\n", n)
		}
	}
	if lr, ok := be.(ssd.ReadLatencyReporter); ok {
		// Measured (wall-clock) per-shard read latency of a real-I/O
		// backend, in Prometheus cumulative-histogram form.
		fmt.Fprintf(w, "# TYPE maxembed_backend_read_latency_seconds histogram\n")
		for s := 0; s < be.NumShards(); s++ {
			snap := lr.ShardReadLatency(s)
			var cum int64
			for i, c := range snap.Counts {
				cum += c
				if i < len(snap.UpperNS) {
					fmt.Fprintf(w, "maxembed_backend_read_latency_seconds_bucket{shard=\"%d\",le=\"%g\"} %d\n",
						s, float64(snap.UpperNS[i])/1e9, cum)
				} else {
					fmt.Fprintf(w, "maxembed_backend_read_latency_seconds_bucket{shard=\"%d\",le=\"+Inf\"} %d\n", s, cum)
				}
			}
			fmt.Fprintf(w, "maxembed_backend_read_latency_seconds_sum{shard=\"%d\"} %g\n", s, float64(snap.SumNS)/1e9)
			fmt.Fprintf(w, "maxembed_backend_read_latency_seconds_count{shard=\"%d\"} %d\n", s, snap.Count)
		}
	}
	if hr, ok := be.(ssd.HealthReporter); ok {
		n := be.NumShards()
		// Shard state machine position: 0 healthy, 1 suspect, 2 failed,
		// 3 rebuilding.
		fmt.Fprintf(w, "# TYPE maxembed_shard_state gauge\n")
		for i := 0; i < n; i++ {
			fmt.Fprintf(w, "maxembed_shard_state{shard=\"%d\"} %d\n", i, int(hr.ShardState(i)))
		}
		fmt.Fprintf(w, "# TYPE maxembed_shard_fault_rate gauge\n")
		for i := 0; i < n; i++ {
			fmt.Fprintf(w, "maxembed_shard_fault_rate{shard=\"%d\"} %g\n", i, hr.ShardHealth(i).FaultRate)
		}
		fmt.Fprintf(w, "# TYPE maxembed_shard_latent_errors_total counter\n")
		for i := 0; i < n; i++ {
			fmt.Fprintf(w, "maxembed_shard_latent_errors_total{shard=\"%d\"} %d\n", i, hr.ShardHealth(i).LatentErrors)
		}
	}
	rec := h.handle.Totals()
	fmt.Fprintf(w, "# TYPE maxembed_read_errors_total counter\nmaxembed_read_errors_total %d\n", rec.ReadErrors)
	fmt.Fprintf(w, "# TYPE maxembed_corruptions_detected_total counter\nmaxembed_corruptions_detected_total %d\n", rec.Corruptions)
	fmt.Fprintf(w, "# TYPE maxembed_read_retries_total counter\nmaxembed_read_retries_total %d\n", rec.Retries)
	fmt.Fprintf(w, "# TYPE maxembed_replica_rescues_total counter\nmaxembed_replica_rescues_total %d\n", rec.ReplicaRescues)
	fmt.Fprintf(w, "# TYPE maxembed_recovered_keys_total counter\nmaxembed_recovered_keys_total %d\n", rec.RecoveredKeys)
	fmt.Fprintf(w, "# TYPE maxembed_degraded_queries_total counter\nmaxembed_degraded_queries_total %d\n", rec.DegradedQueries)
	fmt.Fprintf(w, "# TYPE maxembed_failed_keys_total counter\nmaxembed_failed_keys_total %d\n", rec.FailedKeys)
	fmt.Fprintf(w, "# TYPE maxembed_shard_reroutes_total counter\nmaxembed_shard_reroutes_total %d\n", rec.ShardReroutes)
	fmt.Fprintf(w, "# TYPE maxembed_store_fallbacks_total counter\nmaxembed_store_fallbacks_total %d\n", rec.StoreFallbacks)
	nh := h.nodeHealth(nil)
	fmt.Fprintf(w, "# TYPE maxembed_read_error_rate gauge\nmaxembed_read_error_rate %g\n", nh.rate)
	fmt.Fprintf(w, "# TYPE maxembed_ready gauge\nmaxembed_ready %d\n", bit(nh.ready))
	if nh.sharded {
		fmt.Fprintf(w, "# TYPE maxembed_dead_shards gauge\nmaxembed_dead_shards %d\n", nh.deadShards)
		fmt.Fprintf(w, "# TYPE maxembed_live_error_rate gauge\nmaxembed_live_error_rate %g\n", nh.liveRate)
	}
	fmt.Fprintf(w, "# TYPE maxembed_scrub_sweeps_total counter\nmaxembed_scrub_sweeps_total %d\n", h.scrubs.Load())
	fmt.Fprintf(w, "# TYPE maxembed_scrub_errors_total counter\nmaxembed_scrub_errors_total %d\n", h.scrubErrors.Load())
	fmt.Fprintf(w, "# TYPE maxembed_scrub_running gauge\nmaxembed_scrub_running %d\n", bit(h.scrubRunning.Load()))
	fmt.Fprintf(w, "# TYPE maxembed_scrub_pages_scanned gauge\nmaxembed_scrub_pages_scanned %d\n", h.scrubScanned.Load())
	fmt.Fprintf(w, "# TYPE maxembed_scrub_latent_slots_total counter\nmaxembed_scrub_latent_slots_total %d\n", h.scrubLatent.Load())
	fmt.Fprintf(w, "# TYPE maxembed_scrub_repaired_slots_total counter\nmaxembed_scrub_repaired_slots_total %d\n", h.scrubRepaired.Load())
	fmt.Fprintf(w, "# TYPE maxembed_scrub_unrepairable_slots_total counter\nmaxembed_scrub_unrepairable_slots_total %d\n", h.scrubUnrepairable.Load())
	fmt.Fprintf(w, "# TYPE maxembed_rebuild_total counter\nmaxembed_rebuild_total %d\n", h.rebuilds.Load())
	fmt.Fprintf(w, "# TYPE maxembed_rebuild_errors_total counter\nmaxembed_rebuild_errors_total %d\n", h.rebuildErrors.Load())
	fmt.Fprintf(w, "# TYPE maxembed_rebuild_running gauge\nmaxembed_rebuild_running %d\n", bit(h.rebuildRunning.Load()))
	fmt.Fprintf(w, "# TYPE maxembed_rebuild_pages_copied gauge\nmaxembed_rebuild_pages_copied %d\n", h.rebuildCopied.Load())
	fmt.Fprintf(w, "# TYPE maxembed_rebuild_last_mttr_ns gauge\nmaxembed_rebuild_last_mttr_ns %d\n", h.lastMTTRNS.Load())
	eng := h.handle.Engine()
	if c := eng.Cache(); c != nil {
		cs := c.Stats()
		fmt.Fprintf(w, "# TYPE maxembed_cache_hits_total counter\nmaxembed_cache_hits_total %d\n", cs.Hits)
		fmt.Fprintf(w, "# TYPE maxembed_cache_misses_total counter\nmaxembed_cache_misses_total %d\n", cs.Misses)
		fmt.Fprintf(w, "# TYPE maxembed_cache_bypassed_total counter\nmaxembed_cache_bypassed_total %d\n", cs.Bypassed)
		fmt.Fprintf(w, "# TYPE maxembed_cache_entries gauge\nmaxembed_cache_entries %d\n", c.Len())
		fmt.Fprintf(w, "# TYPE maxembed_cache_probation_entries gauge\nmaxembed_cache_probation_entries %d\n", cs.ProbationLen)
		fmt.Fprintf(w, "# TYPE maxembed_cache_protected_entries gauge\nmaxembed_cache_protected_entries %d\n", cs.ProtectedLen)
		fmt.Fprintf(w, "# TYPE maxembed_cache_probation_evictions_total counter\nmaxembed_cache_probation_evictions_total %d\n", cs.ProbationEvictions)
		fmt.Fprintf(w, "# TYPE maxembed_cache_protected_evictions_total counter\nmaxembed_cache_protected_evictions_total %d\n", cs.ProtectedEvictions)
		fmt.Fprintf(w, "# TYPE maxembed_cache_promotions_total counter\nmaxembed_cache_promotions_total %d\n", cs.Promotions)
		fmt.Fprintf(w, "# TYPE maxembed_cache_demotions_total counter\nmaxembed_cache_demotions_total %d\n", cs.Demotions)
		fmt.Fprintf(w, "# TYPE maxembed_cache_pinned_entries gauge\nmaxembed_cache_pinned_entries %d\n", cs.PinnedEntries)
		fmt.Fprintf(w, "# TYPE maxembed_cache_pinned_hits_total counter\nmaxembed_cache_pinned_hits_total %d\n", cs.PinnedHits)
	}
	ls := eng.Latency.Snapshot()
	fmt.Fprintf(w, "# TYPE maxembed_lookups_total counter\nmaxembed_lookups_total %d\n", rec.Lookups)
	fmt.Fprintf(w, "# TYPE maxembed_lookup_latency_p99_ns gauge\nmaxembed_lookup_latency_p99_ns %d\n", ls.P99NS)
	fmt.Fprintf(w, "# TYPE maxembed_valid_per_read gauge\nmaxembed_valid_per_read %g\n", eng.ValidPerRead.Mean())
	fmt.Fprintf(w, "# TYPE maxembed_layout_generation gauge\nmaxembed_layout_generation %d\n", h.handle.Generation())
	fmt.Fprintf(w, "# TYPE maxembed_engine_swaps_total counter\nmaxembed_engine_swaps_total %d\n", h.handle.Swaps())
	fmt.Fprintf(w, "# TYPE maxembed_refresh_total counter\nmaxembed_refresh_total %d\n", h.refreshes.Load())
	fmt.Fprintf(w, "# TYPE maxembed_refresh_errors_total counter\nmaxembed_refresh_errors_total %d\n", h.refreshErrors.Load())
	fmt.Fprintf(w, "# TYPE maxembed_refresh_duration_seconds gauge\nmaxembed_refresh_duration_seconds %g\n", float64(h.lastRefreshNS.Load())/1e9)
	fmt.Fprintf(w, "# TYPE maxembed_valid_per_read_before_swap gauge\nmaxembed_valid_per_read_before_swap %g\n", h.handle.ValidPerReadBefore())
	if h.coal != nil {
		cs := h.coal.stats()
		fmt.Fprintf(w, "# TYPE maxembed_coalesce_batches_total counter\nmaxembed_coalesce_batches_total %d\n", cs.Batches)
		fmt.Fprintf(w, "# TYPE maxembed_coalesce_bypass_total counter\nmaxembed_coalesce_bypass_total %d\n", cs.Bypasses)
		fmt.Fprintf(w, "# TYPE maxembed_coalesce_requests_total counter\nmaxembed_coalesce_requests_total %d\n", cs.Coalesced)
		fmt.Fprintf(w, "# TYPE maxembed_coalesce_shed_total counter\nmaxembed_coalesce_shed_total %d\n", cs.Shed)
		fmt.Fprintf(w, "# TYPE maxembed_coalesce_batch_size_mean gauge\nmaxembed_coalesce_batch_size_mean %g\n", cs.MeanBatchSize)
		fmt.Fprintf(w, "# TYPE maxembed_coalesce_wait_p99_ns gauge\nmaxembed_coalesce_wait_p99_ns %d\n", cs.WaitP99NS)
		// Cumulative batch-size histogram in exposition format.
		fmt.Fprintf(w, "# TYPE maxembed_coalesce_batch_size histogram\n")
		var cum int64
		for sz := 1; sz <= h.coal.maxBatch; sz++ {
			cum += h.coal.batchSizes.Bucket(sz)
			fmt.Fprintf(w, "maxembed_coalesce_batch_size_bucket{le=%q} %d\n", fmt.Sprint(sz), cum)
		}
		fmt.Fprintf(w, "maxembed_coalesce_batch_size_bucket{le=\"+Inf\"} %d\n", cs.Batches)
		fmt.Fprintf(w, "maxembed_coalesce_batch_size_count %d\n", cs.Batches)
	}
}

// health is a real readiness probe: it reports 503 while the node is
// unhealthy, so load balancers rotate the instance out until it clears.
// With a multi-shard backend the verdict is shard-aware — a minority of
// dead shards (the engine routes around them) does not flip the node —
// and the body carries per-shard fault fractions beside the global
// window so an operator can tell a sick drive from a sick node.
func (h *Handler) health(w http.ResponseWriter, _ *http.Request) {
	var shards []ssd.ShardHealthInfo
	nh := h.nodeHealth(&shards)
	if !nh.ready {
		w.Header().Set("Retry-After", fmt.Sprint(h.retryAfterSec))
		body := map[string]any{
			"status":        "unhealthy",
			"error_rate":    nh.rate,
			"window_events": nh.events,
		}
		if nh.sharded {
			body["shards"] = shardHealthEntries(shards)
			body["dead_shards"] = nh.deadShards
			body["live_error_rate"] = nh.liveRate
		}
		writeJSONStatus(w, http.StatusServiceUnavailable, body)
		return
	}
	if nh.sharded {
		writeJSON(w, map[string]any{
			"status":          "ok",
			"error_rate":      nh.rate,
			"window_events":   nh.events,
			"shards":          shardHealthEntries(shards),
			"dead_shards":     nh.deadShards,
			"live_error_rate": nh.liveRate,
		})
		return
	}
	w.WriteHeader(http.StatusOK)
	fmt.Fprintln(w, "ok")
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
	json.NewEncoder(w).Encode(map[string]string{"error": fmt.Sprintf(format, args...)})
}
