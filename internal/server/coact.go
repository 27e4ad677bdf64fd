package server

import (
	"maxembed/internal/placement"
	"maxembed/internal/serving"
)

// SpreadReporter exposes the last co-activation placement pass — in
// practice maxembed.DB, whose LastDespread returns nil until a despread
// pass has run (single-device deployments, or co-activation placement
// disabled on a homogeneous array).
type SpreadReporter interface {
	LastDespread() *placement.SpreadReport
}

// WithSpreadReport wires the co-activation placement report into /v1/stats
// and /metrics. The live per-query max-shard-depth gauge is exported on
// multi-shard backends regardless; this option adds the offline pass's
// before/after spread and replica-diversity numbers next to it.
func WithSpreadReport(sr SpreadReporter) Option {
	return func(h *Handler) { h.spreadSrc = sr }
}

// CoactStatsEntry is the co-activation slice of /v1/stats, present on
// multi-shard backends: how deep the busiest shard's read queue goes for
// an average query right now, and — when a placement pass ran — what that
// pass claimed to have done, so drift between the two is observable.
type CoactStatsEntry struct {
	// MeanMaxShardDepth is the mean, over served queries since the last
	// engine swap or reset, of the deepest per-shard count of each
	// query's planned reads (1.0 = perfectly spread plans).
	MeanMaxShardDepth float64 `json:"mean_max_shard_depth" prom:"mean_max_shard_depth,gauge"`
	// Queries is how many queries the depth histogram has absorbed.
	Queries int64 `json:"queries" prom:"depth_queries,gauge"`
	// Placement echoes the last despread pass, omitted when none ran.
	Placement *placement.SpreadReport `json:"placement,omitempty" prom:""`
}

// coactStats builds the co-activation stats slice: nil on one-shard
// backends, where per-query depth degenerates to the plan size and there
// is nothing to spread.
func (h *Handler) coactStats(eng *serving.Engine) *CoactStatsEntry {
	if eng.NumShards() < 2 {
		return nil
	}
	out := &CoactStatsEntry{
		MeanMaxShardDepth: eng.SpreadDepth.Mean(),
		Queries:           eng.SpreadDepth.Count(),
	}
	if h.spreadSrc != nil {
		out.Placement = h.spreadSrc.LastDespread()
	}
	return out
}
