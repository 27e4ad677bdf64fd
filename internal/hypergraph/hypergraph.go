// Package hypergraph provides a compact hypergraph representation used by
// the offline phase of MaxEmbed. Vertices model embedding keys and
// hyperedges model embedding lookup queries: the edge connects every key
// that appeared in one query. The representation is CSR (compressed sparse
// row) in both directions — edge → member vertices and vertex → incident
// edges — so partitioning and replication can stream over either side
// without per-node allocations.
package hypergraph

import (
	"errors"
	"fmt"
	"slices"
)

// Vertex identifies a vertex (an embedding key) in the hypergraph.
// Vertices are dense: 0..NumVertices-1.
type Vertex = uint32

// EdgeID identifies a hyperedge (a query) in the hypergraph.
type EdgeID = uint32

// Graph is an immutable hypergraph. Build one with a Builder or FromQueries.
type Graph struct {
	numVertices int

	// CSR of edges: members of edge e are edgeMembers[edgeOff[e]:edgeOff[e+1]].
	edgeOff     []uint64
	edgeMembers []Vertex

	// CSR of incidence: edges containing vertex v are
	// vertexEdges[vertexOff[v]:vertexOff[v+1]].
	vertexOff   []uint64
	vertexEdges []EdgeID
}

// ErrVertexRange reports an edge member outside [0, numVertices).
var ErrVertexRange = errors.New("hypergraph: vertex out of range")

// Builder accumulates hyperedges and produces an immutable Graph.
// The zero value is ready to use once NumVertices is set via NewBuilder.
type Builder struct {
	numVertices int
	edgeOff     []uint64
	edgeMembers []Vertex
}

// NewBuilder returns a Builder for a graph over numVertices vertices.
func NewBuilder(numVertices int) *Builder {
	return &Builder{
		numVertices: numVertices,
		edgeOff:     []uint64{0},
	}
}

// AddEdge appends one hyperedge whose members are the given vertices.
// Duplicate members within one edge are deduplicated; empty and
// single-member edges are kept (they contribute to vertex frequency even
// though they cannot span buckets). AddEdge returns an error if any member
// is out of range.
func (b *Builder) AddEdge(members []Vertex) error {
	start := len(b.edgeMembers)
	for _, v := range members {
		if int(v) >= b.numVertices {
			b.edgeMembers = b.edgeMembers[:start]
			return fmt.Errorf("%w: %d >= %d", ErrVertexRange, v, b.numVertices)
		}
		b.edgeMembers = append(b.edgeMembers, v)
	}
	// Deduplicate in place: sort the freshly appended span, then compact.
	span := b.edgeMembers[start:]
	slices.Sort(span)
	w := 0
	for i, v := range span {
		if i == 0 || v != span[w-1] {
			span[w] = v
			w++
		}
	}
	b.edgeMembers = b.edgeMembers[:start+w]
	b.edgeOff = append(b.edgeOff, uint64(len(b.edgeMembers)))
	return nil
}

// Build finalizes the builder into an immutable Graph, constructing the
// vertex→edge incidence CSR. The builder must not be used afterwards.
func (b *Builder) Build() *Graph {
	g := &Graph{
		numVertices: b.numVertices,
		edgeOff:     b.edgeOff,
		edgeMembers: b.edgeMembers,
	}
	g.buildIncidence()
	b.edgeOff = nil
	b.edgeMembers = nil
	return g
}

func (g *Graph) buildIncidence() {
	counts := make([]uint64, g.numVertices+1)
	for _, v := range g.edgeMembers {
		counts[v+1]++
	}
	for i := 1; i <= g.numVertices; i++ {
		counts[i] += counts[i-1]
	}
	g.vertexOff = counts
	g.vertexEdges = make([]EdgeID, len(g.edgeMembers))
	// cursor tracks the next write position per vertex.
	cursor := make([]uint64, g.numVertices)
	copy(cursor, g.vertexOff[:g.numVertices])
	for e := 0; e < g.NumEdges(); e++ {
		for _, v := range g.Edge(EdgeID(e)) {
			g.vertexEdges[cursor[v]] = EdgeID(e)
			cursor[v]++
		}
	}
}

// FromQueries builds a graph treating each query (slice of keys) as one
// hyperedge over numVertices vertices.
func FromQueries(numVertices int, queries [][]Vertex) (*Graph, error) {
	b := NewBuilder(numVertices)
	// Both arrays are sized once: grown by doubling, each step holds the old
	// array beside the new one, and that garbage is the peak of a start-up.
	pins := 0
	for _, q := range queries {
		pins += len(q)
	}
	b.edgeOff = append(make([]uint64, 0, len(queries)+1), 0)
	b.edgeMembers = make([]Vertex, 0, pins)
	for i, q := range queries {
		if err := b.AddEdge(q); err != nil {
			return nil, fmt.Errorf("query %d: %w", i, err)
		}
	}
	return b.Build(), nil
}

// NumVertices returns the number of vertices.
func (g *Graph) NumVertices() int { return g.numVertices }

// NumEdges returns the number of hyperedges.
func (g *Graph) NumEdges() int { return len(g.edgeOff) - 1 }

// NumPins returns the total number of (edge, vertex) incidences, i.e. the
// sum of edge sizes after in-edge deduplication.
func (g *Graph) NumPins() int { return len(g.edgeMembers) }

// Edge returns the member vertices of edge e, sorted ascending.
// The returned slice aliases internal storage and must not be modified.
func (g *Graph) Edge(e EdgeID) []Vertex {
	return g.edgeMembers[g.edgeOff[e]:g.edgeOff[e+1]]
}

// EdgeSize returns the number of distinct members of edge e.
func (g *Graph) EdgeSize(e EdgeID) int {
	return int(g.edgeOff[e+1] - g.edgeOff[e])
}

// IncidentEdges returns the edges containing vertex v, in edge-id order.
// The returned slice aliases internal storage and must not be modified.
func (g *Graph) IncidentEdges(v Vertex) []EdgeID {
	return g.vertexEdges[g.vertexOff[v]:g.vertexOff[v+1]]
}

// Degree returns the number of edges containing v — the vertex's access
// frequency when edges model queries.
func (g *Graph) Degree(v Vertex) int {
	return int(g.vertexOff[v+1] - g.vertexOff[v])
}

// MeanEdgeSize returns the average number of distinct members per edge,
// or 0 for an edgeless graph.
func (g *Graph) MeanEdgeSize() float64 {
	if g.NumEdges() == 0 {
		return 0
	}
	return float64(g.NumPins()) / float64(g.NumEdges())
}

// Connectivity returns λ(e): the number of distinct values that assign
// takes over e's members. assign maps a vertex to its bucket. When edges
// model queries and buckets model SSD pages, λ(e) is exactly the number of
// page reads query e costs under single-copy placement.
func (g *Graph) Connectivity(e EdgeID, assign []int32) int {
	members := g.Edge(e)
	switch len(members) {
	case 0:
		return 0
	case 1:
		return 1
	}
	// Edges are small (query length); count distinct buckets with a small
	// stack-friendly scan instead of allocating a map.
	var seen [16]int32
	distinct := 0
	var spill map[int32]struct{}
	for _, v := range members {
		b := assign[v]
		found := false
		for i := 0; i < distinct && i < len(seen); i++ {
			if seen[i] == b {
				found = true
				break
			}
		}
		if !found && spill != nil {
			_, found = spill[b]
		}
		if found {
			continue
		}
		if distinct < len(seen) {
			seen[distinct] = b
		} else {
			if spill == nil {
				spill = make(map[int32]struct{})
			}
			spill[b] = struct{}{}
		}
		distinct++
	}
	return distinct
}

// TotalConnectivity returns Σ_e λ(e) under assign — the total page-read
// count the trace would cost with one copy per key and no cache.
func (g *Graph) TotalConnectivity(assign []int32) int64 {
	var total int64
	for e := 0; e < g.NumEdges(); e++ {
		total += int64(g.Connectivity(EdgeID(e), assign))
	}
	return total
}

// Stats summarizes a graph.
type Stats struct {
	NumVertices  int
	NumEdges     int
	NumPins      int
	MeanEdgeSize float64
	MaxEdgeSize  int
	MaxDegree    int
}

// ComputeStats returns summary statistics for the graph.
func (g *Graph) ComputeStats() Stats {
	s := Stats{
		NumVertices:  g.NumVertices(),
		NumEdges:     g.NumEdges(),
		NumPins:      g.NumPins(),
		MeanEdgeSize: g.MeanEdgeSize(),
	}
	for e := 0; e < g.NumEdges(); e++ {
		if n := g.EdgeSize(EdgeID(e)); n > s.MaxEdgeSize {
			s.MaxEdgeSize = n
		}
	}
	for v := 0; v < g.NumVertices(); v++ {
		if d := g.Degree(Vertex(v)); d > s.MaxDegree {
			s.MaxDegree = d
		}
	}
	return s
}
