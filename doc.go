// Package maxembed is a reproduction of "MaxEmbed: Maximizing SSD
// bandwidth utilization for huge embedding models serving" (ASPLOS 2024):
// an SSD-backed embedding store for deep-learning recommendation models
// that fights page-granularity read amplification by co-locating
// co-appearing embeddings (hypergraph partitioning, as in Bandana; here by
// greedy co-appearance page growth, with the paper's SHP selectable) and —
// the paper's contribution — selectively replicating hot, high-
// connectivity embeddings onto extra pages so more queried keys are served
// per page read.
//
// The package exposes the two phases as one API: Open runs the offline
// phase (hypergraph construction, partitioning, replication, page layout)
// over a historical query trace, and the returned DB serves the online
// phase (cache probe, one-pass replica selection with index shrinking,
// pipelined asynchronous SSD reads).
//
// The SSD is a calibrated discrete-event simulation (no NVMe hardware or
// SPDK in this environment); see DESIGN.md for the substitution rationale.
// Timing is virtual and deterministic, which makes experiments exactly
// reproducible.
//
// Quick start:
//
//	trace, _ := maxembed.GenerateTrace(maxembed.ProfileCriteo, 0.5)
//	db, err := maxembed.Open(trace.NumItems, trace.Queries,
//		maxembed.WithReplicationRatio(0.2))
//	if err != nil { ... }
//	sess := db.NewSession()
//	res, err := sess.Lookup([]maxembed.Key{1, 42, 7})
//	// res.Refs[i] is a view of res.Keys[i]'s payload bytes, valid until the
//	// session's next lookup; res.AppendVector(i, dst) decodes it to
//	// float32s. res.Stats holds the virtual timing.
package maxembed
