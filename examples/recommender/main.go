// Recommender: a miniature DLRM-style inference service on top of
// MaxEmbed, mirroring the paper's Figure 1 pipeline: sparse features →
// embedding lookup (SSD) → pooling → interaction scoring.
//
// For each request the service fetches the user-context embeddings and a
// slate of candidate-item embeddings from the MaxEmbed store, mean-pools
// the context, and ranks candidates by dot product — the part of a real
// DLRM that the embedding storage layer feeds.
//
//	go run ./examples/recommender
package main

import (
	"fmt"
	"log"
	"math/rand"
	"sort"

	"maxembed"
)

const (
	dim        = 64
	slateSize  = 8
	nRequests  = 500
	topK       = 3
	cacheRatio = 0.10
)

func main() {
	// Shopping-style workload: strong co-appearance (Alibaba iFashion
	// profile), the case the paper reports the largest gains on.
	trace, err := maxembed.GenerateTrace(maxembed.ProfileAlibabaIFashion, 0.05)
	if err != nil {
		log.Fatal(err)
	}
	history, live := trace.Split(0.5)

	db, err := maxembed.Open(trace.NumItems, history.Queries,
		maxembed.WithEmbeddingDim(dim),
		maxembed.WithReplicationRatio(0.4),
		maxembed.WithCacheRatio(cacheRatio),
	)
	if err != nil {
		log.Fatal(err)
	}
	sess := db.NewSession()
	rng := rand.New(rand.NewSource(42))

	var pagesTotal, latencyTotal int64
	for r := 0; r < nRequests; r++ {
		// Context features: one live query from the trace (user/session
		// history). Candidates: a random slate of items to rank.
		context := live.Queries[r%len(live.Queries)]
		slate := make([]maxembed.Key, slateSize)
		for i := range slate {
			slate[i] = maxembed.Key(rng.Intn(trace.NumItems))
		}
		// One batched lookup fetches context + candidates together, the
		// pattern that lets co-located embeddings share page reads.
		query := make([]maxembed.Key, 0, len(context)+slateSize)
		query = append(query, context...)
		query = append(query, slate...)
		res, err := sess.Lookup(query)
		if err != nil {
			log.Fatal(err)
		}
		pagesTotal += int64(res.Stats.PagesRead)
		latencyTotal += res.Stats.LatencyNS()

		// Pooling: mean of context vectors.
		byKey := make(map[maxembed.Key][]float32, len(res.Keys))
		for i, k := range res.Keys {
			byKey[k] = res.AppendVector(i, nil)
		}
		pooled := make([]float64, dim)
		n := 0
		for _, k := range context {
			if v, ok := byKey[k]; ok {
				for j, x := range v {
					pooled[j] += float64(x)
				}
				n++
			}
		}
		for j := range pooled {
			pooled[j] /= float64(n)
		}
		// Interaction: dot(pooled, candidate); report the top-K slate.
		type scored struct {
			key   maxembed.Key
			score float64
		}
		ranked := make([]scored, 0, slateSize)
		for _, k := range slate {
			v := byKey[k]
			var dot float64
			for j, x := range v {
				dot += pooled[j] * float64(x)
			}
			ranked = append(ranked, scored{k, dot})
		}
		sort.Slice(ranked, func(i, j int) bool { return ranked[i].score > ranked[j].score })
		if r < 3 {
			fmt.Printf("request %d: top-%d of slate =", r, topK)
			for _, s := range ranked[:topK] {
				fmt.Printf(" item%d(%.3f)", s.key, s.score)
			}
			fmt.Printf("  [%d embeddings, %d page reads, %.1f µs]\n",
				res.Stats.DistinctKeys, res.Stats.PagesRead,
				float64(res.Stats.LatencyNS())/1e3)
		}
	}
	fmt.Printf("\n%d requests served: mean %.2f page reads, mean latency %.1f µs (virtual)\n",
		nRequests, float64(pagesTotal)/nRequests, float64(latencyTotal)/nRequests/1e3)
}
