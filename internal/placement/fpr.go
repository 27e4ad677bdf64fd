package placement

import (
	"math"

	"maxembed/internal/hypergraph"
	"maxembed/internal/layout"
)

// FPR implements strawman 2, finer-partition and fill with replication
// (§5.2): the hypergraph is partitioned into ⌈(1+r)N/d⌉ clusters — finer
// than the page count actually needed, by handing the base partitioner
// (Options.Partitioner, the same one every other strategy uses) the
// capacity ⌈N/⌈(1+r)N/d⌉⌉ in place of d — and each under-full page is then
// refilled with the keys that most frequently co-appear with its members.
// The paper shows the finer partition can destroy combinations the coarse
// partition would have kept, making FPR unstable across datasets.
func FPR(g *hypergraph.Graph, opts Options) (*layout.Layout, error) {
	if err := opts.validate(); err != nil {
		return nil, err
	}
	n := g.NumVertices()
	// The global replica-slot budget ⌊rN⌋; without one FPR is the base
	// partition.
	budget := int(opts.ReplicationRatio * float64(n))
	if budget == 0 {
		return SHP(g, opts)
	}
	numBuckets := int(math.Ceil((1 + opts.ReplicationRatio) * float64(n) / float64(opts.Capacity)))
	finer := opts
	finer.Capacity = (n + numBuckets - 1) / numBuckets
	assign, err := partition(g, finer)
	if err != nil {
		return nil, err
	}
	lay, err := layout.FromAssignment(assign, opts.Capacity)
	if err != nil {
		return nil, err
	}

	// Refill each page up to capacity with its most co-appearing outside
	// keys, bounded by the budget.
	if lay.Replicas == nil {
		lay.Replicas = make([][]layout.PageID, n)
	}
	coocc := hypergraph.NewCoOccurrence(g)
	for p := range lay.Pages {
		if budget == 0 {
			break
		}
		free := lay.Capacity - len(lay.Pages[p])
		if free > budget {
			free = budget
		}
		if free <= 0 {
			continue
		}
		refill := coocc.TopForSet(lay.Pages[p], free, nil)
		for _, k := range refill {
			lay.Pages[p] = append(lay.Pages[p], k)
			lay.Replicas[k] = append(lay.Replicas[k], layout.PageID(p))
		}
		budget -= len(refill)
	}
	return lay, nil
}
