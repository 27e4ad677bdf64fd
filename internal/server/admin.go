package server

import (
	"context"
	"net/http"
	"strconv"

	"maxembed/internal/serving"
	"maxembed/internal/ssd"
)

// Shard administration: the operational surface over per-shard health,
// the background scrubber, and live shard rebuild. Mirrors refresh.go's
// pattern — the handler drives interfaces the DB implements, endpoints
// are mutex-guarded (409 when busy), and progress is published through
// /v1/stats and /metrics so an operator can watch a rebuild land.

// ShardAdmin is the shard chaos/repair face of the serving stack — in
// practice maxembed.DB on a multi-device deployment.
type ShardAdmin interface {
	// ShardHealth returns per-shard health snapshots (nil when the
	// backend has no shard health machinery).
	ShardHealth() []ssd.ShardHealthInfo
	// FailShard kills a shard: future reads fail and the serving layer
	// routes around it (the chaos hook).
	FailShard(shard int) error
	// RebuildShard streams the shard onto the hot spare and hot-swaps
	// the repaired array into the serving handle.
	RebuildShard(ctx context.Context, shard int, cfg serving.RebuildConfig) (serving.RebuildReport, error)
}

// Scrubber runs verify-and-repair sweeps over the store image — in
// practice maxembed.DB.
type Scrubber interface {
	Scrub(ctx context.Context, cfg serving.ScrubConfig) (serving.ScrubReport, error)
}

// WithShardAdmin enables the POST /v1/shards/{shard}/fail and
// /v1/shards/{shard}/rebuild admin endpoints.
func WithShardAdmin(sa ShardAdmin) Option {
	return func(h *Handler) { h.shardAdmin = sa }
}

// WithScrub enables the POST /v1/scrub admin endpoint.
func WithScrub(s Scrubber) Option {
	return func(h *Handler) { h.scrubber = s }
}

// WithShardFailTolerance sets the fraction of dead (failed or
// rebuilding) shards above which the node reports unhealthy (default
// 0.5). Below it, dead shards are the engine's problem — selection
// reroutes onto live replicas — and the node keeps admitting traffic.
func WithShardFailTolerance(frac float64) Option {
	return func(h *Handler) { h.shardTolerance = frac }
}

// HealthStats is the readiness verdict as /v1/stats, /metrics and /healthz
// report it.
type HealthStats struct {
	Ready bool `json:"ready" prom:"ready,gauge"`
	// ErrorRate is the global rolling read-fault rate, WindowEvents the
	// reads its window covers.
	ErrorRate    float64 `json:"error_rate" prom:"read_error_rate,gauge"`
	WindowEvents int64   `json:"window_events"`
	// Shard-aware verdict detail; nil on single-device backends, which
	// keep the legacy global-window verdict.
	*ShardedHealth
}

// ShardedHealth is the part of the verdict only a backend with per-shard
// health has: how many shards are dead, and the fault rate pooled over the
// live ones.
type ShardedHealth struct {
	DeadShards    int     `json:"dead_shards" prom:"dead_shards,gauge"`
	LiveErrorRate float64 `json:"live_error_rate" prom:"live_error_rate,gauge"`
}

// nodeHealth is one evaluation of the verdict, held by value so that the
// admission check of every lookup allocates nothing; stats hands it out.
type nodeHealth struct {
	HealthStats
	sharded    bool // the backend tracks per-shard health: live is meaningful
	live       ShardedHealth
	liveEvents int64
}

func (nh nodeHealth) stats() HealthStats {
	if nh.sharded {
		nh.ShardedHealth = &nh.live
	}
	return nh.HealthStats
}

// nodeHealth computes the readiness verdict over backend be. Without shard
// health the verdict is the legacy one: global window rate vs threshold.
// With it, dead shards below the tolerance no longer flip the node — their
// faults are excluded and readiness asks (a) are too many shards dead, and
// (b) are the *surviving* shards faulting beyond the threshold.
//
// Every lookup asks for the verdict (admission), so computing it allocates
// nothing; /healthz, which prints the per-shard detail the verdict was
// reached from, passes a slice to collect it in.
func (h *Handler) nodeHealth(be ssd.Backend, detail *[]ssd.ShardHealthInfo) nodeHealth {
	var nh nodeHealth
	nh.ErrorRate, nh.WindowEvents = h.window.Rate()
	hr, ok := be.(ssd.HealthReporter)
	if !ok {
		nh.Ready = nh.WindowEvents < h.minEvents || nh.ErrorRate <= h.threshold
		return nh
	}
	nh.sharded = true
	n := be.NumShards()
	var liveFaults, liveReads float64
	for i := 0; i < n; i++ {
		info := hr.ShardHealth(i)
		if detail != nil {
			*detail = append(*detail, info)
		}
		if !info.State.Live() {
			nh.live.DeadShards++
			continue
		}
		liveFaults += info.FaultRate * float64(info.WindowReads)
		liveReads += float64(info.WindowReads)
	}
	if liveReads > 0 {
		nh.live.LiveErrorRate = liveFaults / liveReads
	}
	nh.liveEvents = int64(liveReads)
	deadFrac := float64(nh.live.DeadShards) / float64(n)
	nh.Ready = deadFrac <= h.shardTolerance &&
		(nh.liveEvents < h.minEvents || nh.live.LiveErrorRate <= h.threshold)
	return nh
}

// ScrubStats is the scrub section of /v1/stats: admin-triggered sweeps on
// this server (409-guarded; the progress gauges update while one runs).
type ScrubStats struct {
	Enabled           bool           `json:"enabled"`
	Running           bool           `json:"running" prom:"running,gauge"`
	Sweeps            int64          `json:"sweeps" prom:"sweeps_total,counter"`
	Errors            int64          `json:"errors" prom:"errors_total,counter"`
	ProgressPages     int64          `json:"progress_pages" prom:"pages_scanned,gauge"`
	ProgressTotal     int64          `json:"progress_total"`
	LatentSlots       int64          `json:"latent_slots_total" prom:"latent_slots_total,counter"`
	RepairedSlots     int64          `json:"repaired_slots_total" prom:"repaired_slots_total,counter"`
	UnrepairableSlots int64          `json:"unrepairable_slots_total" prom:"unrepairable_slots_total,counter"`
	Last              *ScrubResponse `json:"last,omitempty"`
}

// RebuildStats is the rebuild section of /v1/stats.
type RebuildStats struct {
	Enabled       bool             `json:"enabled"`
	Running       bool             `json:"running" prom:"running,gauge"`
	Rebuilds      int64            `json:"rebuilds" prom:"total,counter"`
	Errors        int64            `json:"errors" prom:"errors_total,counter"`
	ProgressPages int64            `json:"progress_pages" prom:"pages_copied,gauge"`
	ProgressTotal int64            `json:"progress_total"`
	LastMTTRNS    int64            `json:"last_mttr_ns" prom:"last_mttr_ns,gauge"`
	Last          *RebuildResponse `json:"last,omitempty"`
}

// ScrubResponse is the POST /v1/scrub response body (and the "last"
// object of the stats scrub section): the sweep's report and its virtual
// duration.
type ScrubResponse struct {
	serving.ScrubReport
	DurationNS int64 `json:"virtual_duration_ns"`
}

// scrub is the POST /v1/scrub admin endpoint: one synchronous sweep.
// Query parameters: pages_per_sec (float), detect_only (bool). 501 when
// no scrubber is configured; 409 while another sweep runs. Parameter
// parsing happens before the scrub mutex is taken and the response is
// written after it is released, so the critical section covers exactly
// the sweep (lockhold).
func (h *Handler) scrub(w http.ResponseWriter, r *http.Request) {
	if h.scrubber == nil {
		httpError(w, http.StatusNotImplemented,
			"scrub not configured: server started without a scrubber")
		return
	}
	cfg := serving.ScrubConfig{
		Progress: func(scanned, total int) {
			h.statsMu.Lock()
			h.scrubStats.ProgressPages, h.scrubStats.ProgressTotal = int64(scanned), int64(total)
			h.statsMu.Unlock()
		},
	}
	if v := r.URL.Query().Get("pages_per_sec"); v != "" {
		rate, err := strconv.ParseFloat(v, 64)
		if err != nil || rate <= 0 {
			httpError(w, http.StatusBadRequest, "invalid pages_per_sec %q", v)
			return
		}
		cfg.PagesPerSec = rate
	}
	if v := r.URL.Query().Get("detect_only"); v != "" {
		b, err := strconv.ParseBool(v)
		if err != nil {
			httpError(w, http.StatusBadRequest, "invalid detect_only %q", v)
			return
		}
		cfg.DetectOnly = b
	}
	resp, busy, err := h.runScrub(r.Context(), cfg)
	if busy {
		httpError(w, http.StatusConflict, "scrub already in progress")
		return
	}
	if err != nil {
		httpError(w, http.StatusUnprocessableEntity, "scrub: %v", err)
		return
	}
	writeJSON(w, resp)
}

// runScrub performs one sweep under scrubMu, reporting busy when another
// sweep holds it, and folds the result into the scrub stats.
func (h *Handler) runScrub(ctx context.Context, cfg serving.ScrubConfig) (resp ScrubResponse, busy bool, err error) {
	if !h.scrubMu.TryLock() {
		return ScrubResponse{}, true, nil
	}
	defer h.scrubMu.Unlock()
	st := &h.scrubStats
	h.statsMu.Lock()
	st.Running = true
	h.statsMu.Unlock()
	rep, err := h.scrubber.Scrub(ctx, cfg)
	resp = ScrubResponse{ScrubReport: rep, DurationNS: rep.DurationNS()}
	h.statsMu.Lock()
	defer h.statsMu.Unlock()
	st.Running = false
	if err != nil {
		st.Errors++
		return ScrubResponse{}, false, err
	}
	st.Sweeps++
	st.LatentSlots += int64(rep.LatentSlots)
	st.RepairedSlots += int64(rep.RepairedSlots)
	st.UnrepairableSlots += int64(rep.UnrepairableSlots)
	st.Last = &resp
	return resp, false, nil
}

// shardIndex parses the {shard} path value against the backend's shard
// count, writing the HTTP error itself on failure.
func (h *Handler) shardIndex(w http.ResponseWriter, r *http.Request) (int, bool) {
	v := r.PathValue("shard")
	i, err := strconv.Atoi(v)
	if n := h.curBackend().NumShards(); err != nil || i < 0 || i >= n {
		httpError(w, http.StatusBadRequest, "invalid shard %q (backend has %d)", v, n)
		return 0, false
	}
	return i, true
}

// failShard is the POST /v1/shards/{shard}/fail chaos endpoint: it kills
// the shard (all future reads fail) and returns the resulting health
// snapshot. Meant for resilience drills, not production.
func (h *Handler) failShard(w http.ResponseWriter, r *http.Request) {
	if h.shardAdmin == nil {
		httpError(w, http.StatusNotImplemented,
			"shard admin not configured: server started without a shard admin")
		return
	}
	i, ok := h.shardIndex(w, r)
	if !ok {
		return
	}
	if err := h.shardAdmin.FailShard(i); err != nil {
		httpError(w, http.StatusUnprocessableEntity, "fail shard: %v", err)
		return
	}
	writeJSON(w, map[string]any{
		"shard":  i,
		"shards": h.shardAdmin.ShardHealth(),
	})
}

// RebuildResponse is the POST /v1/shards/{shard}/rebuild response body
// (and the "last" object of the stats rebuild section): the rebuild's
// report and its virtual duration, the MTTR.
type RebuildResponse struct {
	serving.RebuildReport
	MTTRNS int64 `json:"mttr_ns"`
}

// rebuildShard is the POST /v1/shards/{shard}/rebuild admin endpoint:
// one synchronous rebuild onto the hot spare. Query parameter
// pages_per_sec bounds the rebuild rate. 409 while another rebuild runs.
// As with scrub, parsing precedes the rebuild mutex and the response
// follows its release (lockhold).
func (h *Handler) rebuildShard(w http.ResponseWriter, r *http.Request) {
	if h.shardAdmin == nil {
		httpError(w, http.StatusNotImplemented,
			"shard admin not configured: server started without a shard admin")
		return
	}
	i, ok := h.shardIndex(w, r)
	if !ok {
		return
	}
	cfg := serving.RebuildConfig{
		Progress: func(copied, total int, _ int64) {
			h.statsMu.Lock()
			h.rebuildStats.ProgressPages, h.rebuildStats.ProgressTotal = int64(copied), int64(total)
			h.statsMu.Unlock()
		},
	}
	if v := r.URL.Query().Get("pages_per_sec"); v != "" {
		rate, err := strconv.ParseFloat(v, 64)
		if err != nil || rate <= 0 {
			httpError(w, http.StatusBadRequest, "invalid pages_per_sec %q", v)
			return
		}
		cfg.PagesPerSec = rate
	}
	resp, busy, err := h.runRebuild(r.Context(), i, cfg)
	if busy {
		httpError(w, http.StatusConflict, "rebuild already in progress")
		return
	}
	if err != nil {
		httpError(w, http.StatusUnprocessableEntity, "rebuild: %v", err)
		return
	}
	writeJSON(w, resp)
}

// runRebuild performs one rebuild under rebuildMu, reporting busy when
// another rebuild holds it, and folds the result into the rebuild stats.
func (h *Handler) runRebuild(ctx context.Context, shard int, cfg serving.RebuildConfig) (resp RebuildResponse, busy bool, err error) {
	if !h.rebuildMu.TryLock() {
		return RebuildResponse{}, true, nil
	}
	defer h.rebuildMu.Unlock()
	st := &h.rebuildStats
	h.statsMu.Lock()
	st.Running = true
	h.statsMu.Unlock()
	rep, err := h.shardAdmin.RebuildShard(ctx, shard, cfg)
	resp = RebuildResponse{RebuildReport: rep, MTTRNS: rep.DurationNS()}
	h.statsMu.Lock()
	defer h.statsMu.Unlock()
	st.Running = false
	if err != nil {
		st.Errors++
		return RebuildResponse{}, false, err
	}
	st.Rebuilds++
	st.LastMTTRNS = resp.MTTRNS
	st.Last = &resp
	return resp, false, nil
}
