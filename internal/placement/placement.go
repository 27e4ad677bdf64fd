// Package placement implements the embedding placement strategies the
// paper evaluates (§5, Fig 14):
//
//   - Vanilla: sequential packing, no access-pattern awareness (Fig 3).
//   - SHP: Bandana's hypergraph-partitioned placement, one copy per key.
//   - RPP (strawman 1, §5.1): replicate the hottest keys before
//     partitioning and let the partitioner place the copies.
//   - FPR (strawman 2, §5.2): partition into finer clusters, then refill
//     each cluster with its most co-appearing outside keys.
//   - MaxEmbed (§5.3): partition, then add replica pages chosen by
//     connectivity-priority scoring — the paper's solution.
//
// The strategy ids are the paper's labels. Every strategy that partitions
// does so through the one configured base partitioner (Options.Partitioner):
// by default greedy co-appearance page growth (grow.go), on request the
// paper's SHP (internal/shp) — so "shp" names the single-copy partitioned
// layout, whichever algorithm partitioned it.
//
// All strategies emit a layout.Layout whose replica slots are bounded by
// the configured replication ratio r.
package placement

import (
	"fmt"
	"sort"

	"maxembed/internal/hypergraph"
	"maxembed/internal/layout"
	"maxembed/internal/shp"
)

// Strategy names a placement algorithm.
type Strategy string

// The available strategies, under the paper's labels. "shp" is the paper's
// baseline — the partitioned layout with one copy per key — and like "rpp",
// "fpr" and "maxembed" it partitions with Options.Partitioner, which is the
// SHP algorithm only when that says PartitionerSHP.
const (
	StrategyVanilla  Strategy = "vanilla"
	StrategySHP      Strategy = "shp"
	StrategyRPP      Strategy = "rpp"
	StrategyFPR      Strategy = "fpr"
	StrategyMaxEmbed Strategy = "maxembed"
)

// Strategies lists all strategies in evaluation order.
func Strategies() []Strategy {
	return []Strategy{StrategyVanilla, StrategySHP, StrategyRPP, StrategyFPR, StrategyMaxEmbed}
}

// Options configures a placement run.
type Options struct {
	// Capacity is d: embeddings per SSD page. Required.
	Capacity int
	// ReplicationRatio is r: replica key-slots as a fraction of the key
	// count. Ignored by Vanilla and SHP.
	ReplicationRatio float64
	// MaxIters bounds PartitionerSHP's refinement iterations per bisection
	// level (0 = its default). The default partitioner has no iterations.
	MaxIters int
	// Seed drives PartitionerSHP's random initial assignment. The default
	// partitioner is a function of the graph alone and ignores it.
	Seed int64
	// Partitioner selects the base partitioning algorithm every
	// partitioning strategy (SHP, RPP, FPR, MaxEmbed) starts from:
	// PartitionerGrown (default) or PartitionerSHP (the paper's).
	Partitioner Partitioner
	// Shards is the device count the layout will be striped over (page p
	// lives on device p mod Shards, matching ssd.Array). Shards > 1 makes
	// MaxEmbed's replication shard-aware: replica pages are steered onto
	// devices that hold none of their keys' home copies, so a key's copies
	// land on distinct devices and recovery can reroute around a faulty
	// shard. 0 or 1 means a single device (no steering).
	Shards int
}

// Partitioner names a base hypergraph-partitioning algorithm.
type Partitioner string

// Available partitioners.
const (
	// PartitionerGrown is greedy co-appearance page growth (grow.go), the
	// default: fewer pages per query than SHP on every profile, in less
	// time (the partitioners experiment asserts both).
	PartitionerGrown Partitioner = ""
	// PartitionerSHP is recursive-bisection Social Hash Partitioning, the
	// algorithm the paper and Bandana name (internal/shp).
	PartitionerSHP Partitioner = "shp"
)

// partition runs the configured base partitioner: a bucket per vertex, at
// most opts.Capacity vertices per bucket, ⌈N/Capacity⌉ buckets.
func partition(g *hypergraph.Graph, opts Options) ([]int32, error) {
	switch opts.Partitioner {
	case PartitionerGrown:
		return grow(g, opts.Capacity), nil
	case PartitionerSHP:
		res, err := shp.Partition(g, shp.Options{
			Capacity: opts.Capacity,
			MaxIters: opts.MaxIters,
			Seed:     opts.Seed,
		})
		if err != nil {
			return nil, err
		}
		return res.Assign, nil
	default:
		return nil, fmt.Errorf("placement: unknown partitioner %q", opts.Partitioner)
	}
}

func (o Options) validate() error {
	if o.Capacity <= 0 {
		return fmt.Errorf("placement: Capacity must be positive, got %d", o.Capacity)
	}
	if o.ReplicationRatio < 0 {
		return fmt.Errorf("placement: ReplicationRatio must be non-negative, got %v", o.ReplicationRatio)
	}
	return nil
}

// Build runs the named strategy over the query hypergraph.
func Build(s Strategy, g *hypergraph.Graph, opts Options) (*layout.Layout, error) {
	switch s {
	case StrategyVanilla:
		if err := opts.validate(); err != nil {
			return nil, err
		}
		return layout.Vanilla(g.NumVertices(), opts.Capacity), nil
	case StrategySHP:
		return SHP(g, opts)
	case StrategyRPP:
		return RPP(g, opts)
	case StrategyFPR:
		return FPR(g, opts)
	case StrategyMaxEmbed:
		return MaxEmbed(g, opts)
	default:
		return nil, fmt.Errorf("placement: unknown strategy %q", s)
	}
}

// SHP places one copy of each key on the page the base partitioner gives
// it — the Bandana baseline of the paper's figures, which partitions with
// Social Hash Partitioning (Options.Partitioner = PartitionerSHP); here the
// configured partitioner, by default co-appearance page growth.
func SHP(g *hypergraph.Graph, opts Options) (*layout.Layout, error) {
	if err := opts.validate(); err != nil {
		return nil, err
	}
	assign, err := partition(g, opts)
	if err != nil {
		return nil, err
	}
	return layout.FromAssignment(assign, opts.Capacity)
}

// MaxEmbed implements connectivity-priority replication (§5.3):
//
//  1. Partition the hypergraph with the base partitioner (the paper:
//     vanilla SHP; here Options.Partitioner, by default page growth).
//  2. Score every vertex: score(v) = Σ_{e∋v} (λ(e)−1), where λ(e) is the
//     number of buckets edge e spans — the vertex's contribution to
//     residual read amplification, weighted by its hotness.
//  3. Take the top ⌊rN/d⌋ scored vertices as replica-cluster bases.
//  4. For each base, gather its (d−1) most co-occurring neighbours that
//     are not already co-located with it, and emit them as a replica page.
func MaxEmbed(g *hypergraph.Graph, opts Options) (*layout.Layout, error) {
	if err := opts.validate(); err != nil {
		return nil, err
	}
	assign, err := partition(g, opts)
	if err != nil {
		return nil, err
	}
	return Replicate(g, assign, opts)
}

// Replicate runs the connectivity-priority replication (§5.3 steps 2–4)
// over an existing home assignment, producing a layout whose home pages
// follow assign and whose replica pages are chosen from g's co-appearance
// structure. Because replication never moves home copies, it can be re-run
// against a fresher query trace to refresh the replicas as access patterns
// drift, without rewriting the base table on SSD.
func Replicate(g *hypergraph.Graph, assign []int32, opts Options) (*layout.Layout, error) {
	if err := opts.validate(); err != nil {
		return nil, err
	}
	n := g.NumVertices()
	if len(assign) != n {
		return nil, fmt.Errorf("placement: assignment covers %d keys, graph has %d", len(assign), n)
	}
	lay, err := layout.FromAssignment(assign, opts.Capacity)
	if err != nil {
		return nil, err
	}

	budget := replicaPageBudget(n, opts.Capacity, opts.ReplicationRatio)
	if budget == 0 || n == 0 {
		return lay, nil
	}

	// Score vertices by Σ(λ(e)−1) over their edges.
	score := make([]int64, n)
	for e := 0; e < g.NumEdges(); e++ {
		lam := int64(g.Connectivity(hypergraph.EdgeID(e), assign)) - 1
		if lam <= 0 {
			continue
		}
		for _, v := range g.Edge(hypergraph.EdgeID(e)) {
			score[v] += lam
		}
	}
	order := make([]hypergraph.Vertex, n)
	for v := range order {
		order[v] = hypergraph.Vertex(v)
	}
	sort.Slice(order, func(i, j int) bool {
		if score[order[i]] != score[order[j]] {
			return score[order[i]] > score[order[j]]
		}
		return order[i] < order[j]
	})

	// pairSeen records key pairs already co-located on a replica page, so
	// successive bases with near-identical neighbourhoods (common when a
	// recurring key set is much larger than a page) produce complementary
	// digests instead of duplicate pages — the wasted-space failure mode
	// the paper attributes to naive replication (§5.1).
	pairSeen := make(map[uint64]struct{})
	pairKey := func(a, b hypergraph.Vertex) uint64 {
		if a > b {
			a, b = b, a
		}
		return uint64(a)<<32 | uint64(b)
	}
	coocc := hypergraph.NewCoOccurrence(g)
	var cands [][]layout.Key
	for _, base := range order {
		if len(cands) >= budget || score[base] == 0 {
			break
		}
		baseBucket := assign[base]
		neighbors := coocc.Top(base, opts.Capacity-1, func(u hypergraph.Vertex) bool {
			if assign[u] == baseBucket {
				return true
			}
			_, dup := pairSeen[pairKey(base, u)]
			return dup
		})
		if len(neighbors) == 0 {
			continue
		}
		keys := make([]layout.Key, 0, len(neighbors)+1)
		keys = append(keys, base)
		keys = append(keys, neighbors...)
		cands = append(cands, keys)
		for i, a := range keys {
			for _, b := range keys[i+1:] {
				pairSeen[pairKey(a, b)] = struct{}{}
			}
		}
	}
	if err := emitReplicaPages(lay, cands, opts.Shards); err != nil {
		return nil, err
	}
	return lay, nil
}

// emitReplicaPages appends the candidate replica pages (built in score
// order) to the layout. With Shards > 1 the candidates are permuted across
// the replica-page slots: slot i becomes global page NumPages+i, which
// lives on device (NumPages+i) mod Shards under ssd.Array striping, so
// each slot greedily takes the earliest unplaced candidate with the fewest
// keys whose home page shares that device — a key's replica then lands on
// a different device than its home copy whenever the budget allows, which
// is what lets recovery route around a whole faulty shard. Shards <= 1
// emits the candidates in score order unchanged (the historical layout).
func emitReplicaPages(lay *layout.Layout, cands [][]layout.Key, shards int) error {
	if shards > 1 && len(cands) > 1 {
		numHome := lay.NumPages()
		used := make([]bool, len(cands))
		ordered := make([][]layout.Key, 0, len(cands))
		for slot := 0; slot < len(cands); slot++ {
			slotShard := (numHome + slot) % shards
			pick, best := -1, int(^uint(0)>>1)
			for i, keys := range cands {
				if used[i] {
					continue
				}
				collisions := 0
				for _, k := range keys {
					if int(lay.Home[k])%shards == slotShard {
						collisions++
					}
				}
				if collisions < best {
					pick, best = i, collisions
					if collisions == 0 {
						break
					}
				}
			}
			used[pick] = true
			ordered = append(ordered, cands[pick])
		}
		cands = ordered
	}
	for _, keys := range cands {
		if _, err := lay.AddReplicaPage(keys); err != nil {
			return fmt.Errorf("placement: maxembed replica page: %w", err)
		}
	}
	return nil
}

// replicaPageBudget returns ⌊rN/d⌋: the number of extra pages a
// replication ratio r affords.
func replicaPageBudget(n, capacity int, r float64) int {
	if r <= 0 {
		return 0
	}
	return int(r * float64(n) / float64(capacity))
}
