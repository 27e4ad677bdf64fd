package hypergraph

import "slices"

// CoOccurrence counts, for a base vertex, how often every other vertex
// appears in the same hyperedge as the base. It is the primitive behind
// replica-cluster construction (§5.3 step 4) and FPR cluster refill (§5.2).
// Replication calls it once per candidate base, which makes it most of a
// large Open: the tally is a dense array and the ranking a sort of packed
// integers, with nothing hashed and no comparison closure.
type CoOccurrence struct {
	g *Graph
	// counts[v] is v's tally in the call in progress and zero between
	// calls; touched lists the entries to reset. -1 marks a member of
	// TopForSet's set for the span of that call.
	counts  []int32
	touched []Vertex
	ranked  []uint64 // finish's sort scratch
}

// NewCoOccurrence returns a counter bound to g.
func NewCoOccurrence(g *Graph) *CoOccurrence {
	return &CoOccurrence{g: g, counts: make([]int32, g.NumVertices())}
}

// Top returns up to n vertices that co-occur most frequently with base,
// excluding base itself and any vertex for which exclude returns true
// (exclude may be nil; it must not depend on when or how often it is
// called). Ties break toward the lower vertex id so results are
// deterministic. The returned slice is freshly allocated.
func (c *CoOccurrence) Top(base Vertex, n int, exclude func(Vertex) bool) []Vertex {
	if n <= 0 {
		return nil
	}
	c.counts[base] = -1
	c.tally(base)
	c.counts[base] = 0
	return c.finish(n, exclude)
}

// TopForSet returns up to n vertices co-occurring most frequently with any
// member of the given set, excluding set members themselves and vertices
// for which exclude returns true. Used by FPR to refill a finer cluster
// with the most co-appearing outside vertices.
func (c *CoOccurrence) TopForSet(set []Vertex, n int, exclude func(Vertex) bool) []Vertex {
	if n <= 0 {
		return nil
	}
	for _, v := range set {
		c.counts[v] = -1
	}
	for _, base := range set {
		c.tally(base)
	}
	for _, v := range set {
		c.counts[v] = 0
	}
	return c.finish(n, exclude)
}

// tally adds one to every unmarked vertex of every edge incident to base.
func (c *CoOccurrence) tally(base Vertex) {
	for _, e := range c.g.IncidentEdges(base) {
		for _, v := range c.g.Edge(e) {
			switch c.counts[v] {
			case -1:
				continue
			case 0:
				c.touched = append(c.touched, v)
			}
			c.counts[v]++
		}
	}
}

// finish ranks the tallied vertices — count descending, id ascending —
// returns the first n that exclude lets through, and zeroes the scratch
// for the next call.
func (c *CoOccurrence) finish(n int, exclude func(Vertex) bool) []Vertex {
	ranked := c.ranked[:0]
	for _, v := range c.touched {
		// The complemented count in the high word sorts the larger count
		// first; equal counts fall to the id in the low word.
		ranked = append(ranked, uint64(^uint32(c.counts[v]))<<32|uint64(v))
		c.counts[v] = 0
	}
	c.touched, c.ranked = c.touched[:0], ranked
	slices.Sort(ranked)
	out := make([]Vertex, 0, min(n, len(ranked)))
	for _, r := range ranked {
		if len(out) == n {
			break
		}
		if v := Vertex(r); exclude == nil || !exclude(v) {
			out = append(out, v)
		}
	}
	return out
}
