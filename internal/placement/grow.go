package placement

import (
	"slices"

	"maxembed/internal/hypergraph"
)

// grow is the default base partitioner: greedy co-appearance page growth.
// It assigns every vertex of g to one of exactly ⌈N/capacity⌉ buckets of at
// most capacity vertices, so that key sets that recur in the queries end up
// on one page.
//
// Vertices are visited by descending degree (ties to the lower id). An
// unassigned vertex that appears in at least one edge opens a page; while
// the page has room it takes the unassigned vertex that co-appears most
// often with the page's current members (ties to the lower id), and it
// closes when it is full or nothing unassigned co-appears with it. The
// co-appearance counts live in a dense tally that is bumped by walking each
// newly added member's incident edges and reset through the list of touched
// entries, so the whole pass is O(pins × mean edge size) plus one scan of
// the touched list per pick.
//
// Pages that closed short and the vertices no edge mentions are then packed
// (see pack) so that the bucket count is the minimum, ⌈N/capacity⌉ — what
// SHP produces, and what keeps the table at one page per capacity keys.
//
// The result is a function of (g, capacity) alone: no seed, no goroutines.
// All scratch is O(N) and garbage on return.
func grow(g *hypergraph.Graph, capacity int) []int32 {
	n := g.NumVertices()
	assign := make([]int32, n)
	if n == 0 {
		return assign
	}

	// Hottest first: the complemented degree in the high word sorts the
	// larger degree first, equal degrees fall to the id in the low word.
	order := make([]uint64, n)
	for v := range order {
		order[v] = uint64(^uint32(g.Degree(hypergraph.Vertex(v))))<<32 | uint64(v)
	}
	slices.Sort(order)

	var (
		// tally[u] is how often unassigned u co-appears with the members of
		// the page being grown — zero between pages — and taken once u is
		// on a page, so the two inner loops read one array.
		tally   = make([]int32, n)
		touched []hypergraph.Vertex
		// seq lists the grown vertices page after page. A full page takes
		// the next bucket id at once; one that closed short is kept as a
		// group (a sub-slice of seq) for pack.
		seq      = make([]hypergraph.Vertex, 0, n)
		partials [][]hypergraph.Vertex
		full     int32
	)
	const taken = -1
	add := func(v hypergraph.Vertex) {
		tally[v] = taken
		seq = append(seq, v)
		for _, e := range g.IncidentEdges(v) {
			for _, u := range g.Edge(e) {
				switch tally[u] {
				case taken:
					continue
				case 0:
					touched = append(touched, u)
				}
				tally[u]++
			}
		}
	}
	for _, o := range order {
		seed := hypergraph.Vertex(o)
		if g.Degree(seed) == 0 {
			break // order is by descending degree: the rest is cold too
		}
		if tally[seed] == taken {
			continue
		}
		start := len(seq)
		add(seed)
		for len(seq)-start < capacity {
			// Pick the best candidate, dropping the entries that joined
			// the page since they were touched.
			best, bestCount := hypergraph.Vertex(0), int32(0)
			live := touched[:0]
			for _, u := range touched {
				c := tally[u]
				if c == taken {
					continue
				}
				live = append(live, u)
				if c > bestCount || (c == bestCount && u < best) {
					best, bestCount = u, c
				}
			}
			touched = live
			if bestCount == 0 {
				break
			}
			add(best)
		}
		for _, u := range touched {
			if tally[u] != taken {
				tally[u] = 0
			}
		}
		touched = touched[:0]
		page := seq[start:]
		if len(page) < capacity {
			partials = append(partials, page)
			continue
		}
		for _, v := range page {
			assign[v] = full
		}
		full++
	}
	var loose []hypergraph.Vertex // the vertices no edge mentions, ascending
	for v, c := range tally {
		if c != taken {
			loose = append(loose, hypergraph.Vertex(v))
		}
	}
	numBuckets := int32((n + capacity - 1) / capacity)
	pack(assign, partials, loose, capacity, full, numBuckets)
	return assign
}

// pack assigns the vertices growth left over — groups, the pages that
// closed short, largest co-appearance first within each, and loose, the
// vertices with no edge — to buckets first..numBuckets-1, which by the
// choice of numBuckets = ⌈N/capacity⌉ have room for all of them and not a
// whole bucket more.
//
// Groups are packed whole, first-fit-decreasing. If that needs more
// buckets than there are, the emptiest buckets are broken up and their
// vertices, each group's in growth order, fill the holes of the others
// ahead of the loose vertices: those groups are the coldest and smallest
// growth made, so the co-location lost is the cheapest there is to lose.
func pack(assign []int32, groups [][]hypergraph.Vertex, loose []hypergraph.Vertex, capacity int, first, numBuckets int32) {
	// Stable, so equal sizes keep growth order (hotter first).
	slices.SortStableFunc(groups, func(a, b []hypergraph.Vertex) int { return len(b) - len(a) })
	type bin struct {
		groups [][]hypergraph.Vertex
		used   int
	}
	var bins []bin
	// next[s]: no bin before it has room for a group of s. A bin's room only
	// shrinks, so each pointer only advances and first fit stays linear.
	next := make([]int, capacity+1)
	for _, grp := range groups {
		i := next[len(grp)]
		for i < len(bins) && bins[i].used+len(grp) > capacity {
			i++
		}
		next[len(grp)] = i
		if i == len(bins) {
			bins = append(bins, bin{})
		}
		bins[i].groups = append(bins[i].groups, grp)
		bins[i].used += len(grp)
	}

	room := int(numBuckets - first)
	if len(bins) > room {
		slices.SortStableFunc(bins, func(a, b bin) int { return b.used - a.used })
		var broken []hypergraph.Vertex
		for _, b := range bins[room:] {
			for _, grp := range b.groups {
				broken = append(broken, grp...)
			}
		}
		bins = bins[:room]
		loose = append(broken, loose...)
	}
	// Empty buckets for what the holes leave of loose.
	bins = append(bins, make([]bin, room-len(bins))...)

	for i, b := range bins {
		bucket := first + int32(i)
		for _, grp := range b.groups {
			for _, v := range grp {
				assign[v] = bucket
			}
		}
		fill := min(capacity-b.used, len(loose))
		for _, v := range loose[:fill] {
			assign[v] = bucket
		}
		loose = loose[fill:]
	}
}
