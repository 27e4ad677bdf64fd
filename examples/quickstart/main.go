// Quickstart: build a MaxEmbed store from a historical query trace and
// serve embedding lookups from it.
//
//	go run ./examples/quickstart
package main

import (
	"fmt"
	"log"

	"maxembed"
)

func main() {
	// Synthesize a small Criteo-like query trace (in production this is
	// your historical embedding-lookup log).
	trace, err := maxembed.GenerateTrace(maxembed.ProfileCriteo, 0.05)
	if err != nil {
		log.Fatal(err)
	}
	// First half trains the placement; second half is live traffic.
	history, live := trace.Split(0.5)

	// Offline phase: hypergraph partitioning + connectivity-priority
	// replication with 20% extra space, then page layout on the simulated
	// SSD.
	db, err := maxembed.Open(trace.NumItems, history.Queries,
		maxembed.WithReplicationRatio(0.2),
		maxembed.WithCacheRatio(0.1),
	)
	if err != nil {
		log.Fatal(err)
	}
	ls := db.LayoutStats()
	fmt.Printf("layout: %d keys on %d pages, %.1f%% replica slots\n",
		ls.NumKeys, ls.NumPages, ls.ReplicationRatio*100)

	// Online phase: one session per serving goroutine.
	sess := db.NewSession()
	var pages, keys int
	for _, q := range live.Queries[:1000] {
		res, err := sess.Lookup(q)
		if err != nil {
			log.Fatal(err)
		}
		pages += res.Stats.PagesRead
		keys += res.Stats.DistinctKeys
		// res.Keys / res.Refs hold the embeddings: Refs[i] is a view of
		// Keys[i]'s payload bytes, valid until the session's next lookup;
		// res.AppendVector(i, dst) decodes it, e.g.:
		_ = res.Refs
	}
	fmt.Printf("served 1000 queries (%d embeddings) with %d SSD page reads\n", keys, pages)
	fmt.Printf("virtual time: %.2f ms, device read %d pages total\n",
		float64(sess.Now())/1e6, db.DeviceStats().Reads)

	// A single lookup, end to end.
	res, err := db.Lookup(live.Queries[1000])
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("query %v -> %d vectors of dim %d, latency %.1f µs (%d page reads, %d cache hits)\n",
		live.Queries[1000][:min(5, len(live.Queries[1000]))],
		len(res.Refs), len(res.AppendVector(0, nil)),
		float64(res.Stats.LatencyNS())/1e3, res.Stats.PagesRead, res.Stats.CacheHits)
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}
