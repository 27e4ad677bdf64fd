package placement

import (
	"fmt"
	"sort"

	"maxembed/internal/hypergraph"
	"maxembed/internal/layout"
)

// RPP implements strawman 1, replication prior to partition (§5.1): the
// hottest ⌊rN⌋ keys get one replica vertex each, the replica is attached to
// half of its original's hyperedges, and the expanded hypergraph is handed
// to the base partitioner (the paper: vanilla SHP; here Options.Partitioner,
// the same one every other strategy uses), which decides both placements.
// The paper shows this underperforms because hotness alone ignores
// adjacency, and duplicate combinations waste space — both effects emerge
// naturally here (a replica landing on its original's page is a dead slot).
func RPP(g *hypergraph.Graph, opts Options) (*layout.Layout, error) {
	if err := opts.validate(); err != nil {
		return nil, err
	}
	n := g.NumVertices()
	nRep := int(opts.ReplicationRatio * float64(n))
	if nRep > n {
		nRep = n
	}
	if nRep == 0 {
		return SHP(g, opts)
	}

	// Pick the nRep hottest vertices (highest degree = most queries).
	order := make([]hypergraph.Vertex, n)
	for v := range order {
		order[v] = hypergraph.Vertex(v)
	}
	sort.Slice(order, func(i, j int) bool {
		di, dj := g.Degree(order[i]), g.Degree(order[j])
		if di != dj {
			return di > dj
		}
		return order[i] < order[j]
	})
	replicaID := make([]int32, n) // original → expanded replica id, -1 if none
	for v := range replicaID {
		replicaID[v] = -1
	}
	for i, v := range order[:nRep] {
		replicaID[v] = int32(n + i)
	}

	// Rebuild the edge set over the expanded vertex space, alternating
	// each replicated vertex's appearances between the original and the
	// replica so both copies carry co-appearance signal.
	toggle := make([]bool, n)
	b := hypergraph.NewBuilder(n + nRep)
	members := make([]hypergraph.Vertex, 0, 64)
	for e := 0; e < g.NumEdges(); e++ {
		members = members[:0]
		for _, v := range g.Edge(hypergraph.EdgeID(e)) {
			if r := replicaID[v]; r >= 0 && toggle[v] {
				members = append(members, hypergraph.Vertex(r))
			} else {
				members = append(members, v)
			}
			if replicaID[v] >= 0 {
				toggle[v] = !toggle[v]
			}
		}
		if err := b.AddEdge(members); err != nil {
			return nil, fmt.Errorf("placement: rpp expanded edge: %w", err)
		}
	}
	expanded := b.Build()

	expandedAssign, err := partition(expanded, opts)
	if err != nil {
		return nil, err
	}

	// Collapse the expanded assignment back to a layout over original
	// keys. Replicas landing on their original's page are dropped — the
	// wasted-space failure mode the paper attributes to RPP.
	pageOf := compactBuckets(expandedAssign)
	numPages := 0
	for _, p := range pageOf {
		if int(p)+1 > numPages {
			numPages = int(p) + 1
		}
	}
	lay := &layout.Layout{
		NumKeys:  n,
		Capacity: opts.Capacity,
		Pages:    make([][]layout.Key, numPages),
		Home:     make([]layout.PageID, n),
		Replicas: make([][]layout.PageID, n),
	}
	for v := 0; v < n; v++ {
		p := pageOf[v]
		lay.Home[v] = p
		lay.Pages[p] = append(lay.Pages[p], layout.Key(v))
	}
	for v := 0; v < n; v++ {
		r := replicaID[v]
		if r < 0 {
			continue
		}
		p := pageOf[r]
		if p == lay.Home[v] {
			continue // duplicate combination; slot wasted
		}
		lay.Replicas[v] = append(lay.Replicas[v], p)
		lay.Pages[p] = append(lay.Pages[p], layout.Key(v))
	}
	return lay, nil
}

// compactBuckets renumbers bucket ids to dense page ids in ascending
// bucket order.
func compactBuckets(assign []int32) []layout.PageID {
	seen := make(map[int32]struct{})
	for _, b := range assign {
		seen[b] = struct{}{}
	}
	ids := make([]int32, 0, len(seen))
	for b := range seen {
		ids = append(ids, b)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	remap := make(map[int32]layout.PageID, len(ids))
	for i, b := range ids {
		remap[b] = layout.PageID(i)
	}
	out := make([]layout.PageID, len(assign))
	for v, b := range assign {
		out[v] = remap[b]
	}
	return out
}
