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

// nodeHealth is one evaluation of the readiness verdict.
type nodeHealth struct {
	ready  bool
	rate   float64 // global rolling read-fault rate
	events int64   // reads the global window covers
	// sharded reports a backend that tracks per-shard health; the fields
	// below are zero without it (the legacy global-window verdict applies
	// there unchanged).
	sharded    bool
	deadShards int
	liveRate   float64 // fault rate pooled over live shards only
	liveEvents int64
}

// nodeHealth computes the readiness verdict. Without shard health the
// verdict is the legacy one: global window rate vs threshold. With it,
// dead shards below the tolerance no longer flip the node — their faults
// are excluded and readiness asks (a) are too many shards dead, and
// (b) are the *surviving* shards faulting beyond the threshold.
//
// Every lookup asks for the verdict (admission), so computing it allocates
// nothing; /healthz, which prints the per-shard detail the verdict was
// reached from, passes a slice to collect it in.
func (h *Handler) nodeHealth(detail *[]ssd.ShardHealthInfo) nodeHealth {
	var nh nodeHealth
	nh.rate, nh.events = h.window.Rate()
	be := h.curBackend()
	hr, ok := be.(ssd.HealthReporter)
	if !ok {
		nh.ready = nh.events < h.minEvents || nh.rate <= h.threshold
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
			nh.deadShards++
			continue
		}
		liveFaults += info.FaultRate * float64(info.WindowReads)
		liveReads += float64(info.WindowReads)
	}
	if liveReads > 0 {
		nh.liveRate = liveFaults / liveReads
	}
	nh.liveEvents = int64(liveReads)
	deadFrac := float64(nh.deadShards) / float64(n)
	nh.ready = deadFrac <= h.shardTolerance &&
		(nh.liveEvents < h.minEvents || nh.liveRate <= h.threshold)
	return nh
}

// ShardHealthEntry is one shard's health in JSON responses.
type ShardHealthEntry struct {
	Shard        int     `json:"shard"`
	State        string  `json:"state"`
	FaultRate    float64 `json:"fault_rate"`
	WindowReads  int     `json:"window_reads"`
	LatentErrors int64   `json:"latent_errors"`
	Transitions  int64   `json:"transitions"`
}

func shardHealthEntries(infos []ssd.ShardHealthInfo) []ShardHealthEntry {
	out := make([]ShardHealthEntry, len(infos))
	for i, info := range infos {
		out[i] = ShardHealthEntry{
			Shard:        info.Shard,
			State:        info.State.String(),
			FaultRate:    info.FaultRate,
			WindowReads:  info.WindowReads,
			LatentErrors: info.LatentErrors,
			Transitions:  info.Transitions,
		}
	}
	return out
}

// ScrubResponse is the POST /v1/scrub response body (and the "last"
// object of the stats scrub section).
type ScrubResponse struct {
	PagesScanned      int   `json:"pages_scanned"`
	PagesSkipped      int   `json:"pages_skipped"`
	PagesUnread       int   `json:"pages_unread"`
	SlotsVerified     int   `json:"slots_verified"`
	ReadFaults        int   `json:"read_faults"`
	LatentSlots       int   `json:"latent_slots"`
	RepairedSlots     int   `json:"repaired_slots"`
	UnrepairableSlots int   `json:"unrepairable_slots"`
	PerShardLatent    []int `json:"per_shard_latent,omitempty"`
	DurationNS        int64 `json:"virtual_duration_ns"`
}

func scrubResponse(rep serving.ScrubReport) ScrubResponse {
	return ScrubResponse{
		PagesScanned:      rep.PagesScanned,
		PagesSkipped:      rep.PagesSkipped,
		PagesUnread:       rep.PagesUnread,
		SlotsVerified:     rep.SlotsVerified,
		ReadFaults:        rep.ReadFaults,
		LatentSlots:       rep.LatentSlots,
		RepairedSlots:     rep.RepairedSlots,
		UnrepairableSlots: rep.UnrepairableSlots,
		PerShardLatent:    rep.PerShardLatent,
		DurationNS:        rep.DurationNS(),
	}
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
			h.scrubScanned.Store(int64(scanned))
			h.scrubTotal.Store(int64(total))
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
// sweep holds it, and folds the result into the scrub counters.
func (h *Handler) runScrub(ctx context.Context, cfg serving.ScrubConfig) (resp ScrubResponse, busy bool, err error) {
	if !h.scrubMu.TryLock() {
		return ScrubResponse{}, true, nil
	}
	defer h.scrubMu.Unlock()
	h.scrubRunning.Store(true)
	defer h.scrubRunning.Store(false)
	rep, err := h.scrubber.Scrub(ctx, cfg)
	if err != nil {
		h.scrubErrors.Add(1)
		return ScrubResponse{}, false, err
	}
	h.scrubs.Add(1)
	h.scrubLatent.Add(int64(rep.LatentSlots))
	h.scrubRepaired.Add(int64(rep.RepairedSlots))
	h.scrubUnrepairable.Add(int64(rep.UnrepairableSlots))
	resp = scrubResponse(rep)
	h.adminMu.Lock()
	h.lastScrub = &resp
	h.adminMu.Unlock()
	return resp, false, nil
}

// shardIndex parses the {shard} path value against the backend's shard
// count, writing the HTTP error itself on failure.
func (h *Handler) shardIndex(w http.ResponseWriter, r *http.Request) (int, bool) {
	v := r.PathValue("shard")
	i, err := strconv.Atoi(v)
	if err != nil || i < 0 || i >= h.curBackend().NumShards() {
		httpError(w, http.StatusBadRequest, "invalid shard %q (backend has %d)", v, h.curBackend().NumShards())
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
		"shards": shardHealthEntries(h.shardAdmin.ShardHealth()),
	})
}

// RebuildResponse is the POST /v1/shards/{shard}/rebuild response body
// (and the "last" object of the stats rebuild section).
type RebuildResponse struct {
	Shard            int   `json:"shard"`
	LocalPages       int   `json:"local_pages"`
	FromSource       int   `json:"from_source"`
	FromReplicas     int   `json:"from_replicas"`
	FromStore        int   `json:"from_store"`
	SourceReadFaults int   `json:"source_read_faults"`
	MTTRNS           int64 `json:"mttr_ns"`
}

func rebuildResponse(rep serving.RebuildReport) RebuildResponse {
	return RebuildResponse{
		Shard:            rep.Shard,
		LocalPages:       rep.LocalPages,
		FromSource:       rep.FromSource,
		FromReplicas:     rep.FromReplicas,
		FromStore:        rep.FromStore,
		SourceReadFaults: rep.SourceReadFaults,
		MTTRNS:           rep.DurationNS(),
	}
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
			h.rebuildCopied.Store(int64(copied))
			h.rebuildTotal.Store(int64(total))
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
// another rebuild holds it, and folds the result into the rebuild
// counters.
func (h *Handler) runRebuild(ctx context.Context, shard int, cfg serving.RebuildConfig) (resp RebuildResponse, busy bool, err error) {
	if !h.rebuildMu.TryLock() {
		return RebuildResponse{}, true, nil
	}
	defer h.rebuildMu.Unlock()
	h.rebuildRunning.Store(true)
	defer h.rebuildRunning.Store(false)
	rep, err := h.shardAdmin.RebuildShard(ctx, shard, cfg)
	if err != nil {
		h.rebuildErrors.Add(1)
		return RebuildResponse{}, false, err
	}
	h.rebuilds.Add(1)
	h.lastMTTRNS.Store(rep.DurationNS())
	resp = rebuildResponse(rep)
	h.adminMu.Lock()
	h.lastRebuild = &resp
	h.adminMu.Unlock()
	return resp, false, nil
}
