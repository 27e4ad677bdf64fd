package placement

import (
	"math/rand"
	"reflect"
	"runtime"
	"testing"

	"maxembed/internal/hypergraph"
	"maxembed/internal/layout"
	"maxembed/internal/workload"
)

// graphOf builds a graph over n vertices from the given edges.
func graphOf(t *testing.T, n int, edges [][]hypergraph.Vertex) *hypergraph.Graph {
	t.Helper()
	g, err := hypergraph.FromQueries(n, edges)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// checkPartition asserts the base partitioner's contract: a bucket for every
// vertex, none over capacity, exactly ⌈N/capacity⌉ of them, ids dense.
func checkPartition(t *testing.T, assign []int32, n, capacity int) {
	t.Helper()
	if len(assign) != n {
		t.Fatalf("assignment covers %d vertices, graph has %d", len(assign), n)
	}
	want := (n + capacity - 1) / capacity
	sizes := make([]int, want)
	for v, b := range assign {
		if b < 0 || int(b) >= want {
			t.Fatalf("vertex %d in bucket %d, want [0, %d)", v, b, want)
		}
		sizes[b]++
	}
	for b, s := range sizes {
		if s == 0 {
			t.Errorf("bucket %d is empty: fewer than ⌈%d/%d⌉ = %d pages", b, n, capacity, want)
		}
		if s > capacity {
			t.Errorf("bucket %d holds %d vertices, capacity %d", b, s, capacity)
		}
	}
}

func TestGrowInvariants(t *testing.T) {
	clustered, _ := clusteredGraph(t)

	// Every edge contains vertex 0, so its tally touches the whole graph.
	var star [][]hypergraph.Vertex
	rng := rand.New(rand.NewSource(9))
	for e := 0; e < 300; e++ {
		edge := []hypergraph.Vertex{0}
		for i := 0; i < 6; i++ {
			edge = append(edge, hypergraph.Vertex(1+rng.Intn(199)))
		}
		star = append(star, edge)
	}

	// Disjoint four-vertex components and no cold vertices: every page
	// closes short, the groups do not divide the capacity, and pack has to
	// break some up to reach the minimum page count.
	var islands [][]hypergraph.Vertex
	for c := 0; c < 25; c++ {
		b := hypergraph.Vertex(4 * c)
		islands = append(islands, []hypergraph.Vertex{b, b + 1, b + 2, b + 3}, []hypergraph.Vertex{b, b + 1})
	}

	for _, tc := range []struct {
		name string
		g    *hypergraph.Graph
	}{
		{"empty", graphOf(t, 0, nil)},
		{"one vertex", graphOf(t, 1, nil)},
		{"fewer vertices than a page", graphOf(t, 5, [][]hypergraph.Vertex{{0, 1, 2}, {1, 2, 3}})},
		{"all cold", graphOf(t, 100, nil)},
		{"singleton edges only", graphOf(t, 40, [][]hypergraph.Vertex{{3}, {7}, {3}})},
		{"hottest vertex in every edge", graphOf(t, 200, star)},
		{"islands", graphOf(t, 100, islands)},
		{"islands and cold", graphOf(t, 131, islands)},
		{"clustered", clustered},
	} {
		for _, capacity := range []int{1, 2, 7, 15, 64} {
			assign := grow(tc.g, capacity)
			checkPartition(t, assign, tc.g.NumVertices(), capacity)
			if t.Failed() {
				t.Fatalf("%s at capacity %d", tc.name, capacity)
			}
		}
	}
}

func TestGrowDeterministic(t *testing.T) {
	g, _ := clusteredGraph(t)
	want := grow(g, 15)
	for _, procs := range []int{1, 4} {
		prev := runtime.GOMAXPROCS(procs)
		got := grow(g, 15)
		runtime.GOMAXPROCS(prev)
		if !reflect.DeepEqual(got, want) {
			t.Errorf("assignment at GOMAXPROCS=%d differs from the first run", procs)
		}
	}
}

// Disjoint recurring sets of exactly one page each, their keys scattered
// over the id space and every query a random subset of one set: the
// partition must put each set on a page of its own.
func TestGrowRecoversPlantedSets(t *testing.T) {
	const (
		capacity = 15
		sets     = 40
		n        = sets * capacity
	)
	rng := rand.New(rand.NewSource(5))
	setOf := make([]int, n) // vertex → planted set
	for i, v := range rng.Perm(n) {
		setOf[v] = i / capacity
	}
	members := make([][]hypergraph.Vertex, sets)
	for v, s := range setOf {
		members[s] = append(members[s], hypergraph.Vertex(v))
	}
	var queries [][]hypergraph.Vertex
	for q := 0; q < 60*sets; q++ {
		m := members[rng.Intn(sets)]
		size := 2 + rng.Intn(capacity-1)
		var query []hypergraph.Vertex
		for _, i := range rng.Perm(capacity)[:size] {
			query = append(query, m[i])
		}
		queries = append(queries, query)
	}
	g := graphOf(t, n, queries)
	assign := grow(g, capacity)
	checkPartition(t, assign, n, capacity)
	for s, m := range members {
		for _, v := range m[1:] {
			if assign[v] != assign[m[0]] {
				t.Fatalf("planted set %d is split over buckets %d and %d", s, assign[m[0]], assign[v])
			}
		}
	}
	if got := g.TotalConnectivity(assign); got != int64(g.NumEdges()) {
		t.Errorf("Σλ(e) = %d over %d queries, want one page each", got, g.NumEdges())
	}
}

// A greedy heuristic has no quality guarantee on arbitrary graphs; this is
// a regression floor on fixed inputs: on the package fixture and on each
// dataset profile the grown assignment costs fewer page reads over its own
// history (Σλ(e)) than sequential placement and than the paper's SHP.
func TestGrowConnectivityBelowVanillaAndSHP(t *testing.T) {
	const capacity = 15
	clustered, _ := clusteredGraph(t)
	graphs := map[string]*hypergraph.Graph{"clustered": clustered}
	for _, p := range workload.Profiles() {
		tr, err := workload.Generate(p.Scaled(0.05))
		if err != nil {
			t.Fatal(err)
		}
		hist, _ := tr.Split(0.5)
		graphs[p.Name] = graphOf(t, tr.NumItems, hist.Queries)
	}
	for name, g := range graphs {
		n := g.NumVertices()
		grown, err := partition(g, Options{Capacity: capacity})
		if err != nil {
			t.Fatal(err)
		}
		checkPartition(t, grown, n, capacity)
		shp, err := partition(g, Options{Capacity: capacity, Seed: 1, Partitioner: PartitionerSHP})
		if err != nil {
			t.Fatal(err)
		}
		vanilla := make([]int32, n)
		for k, p := range layout.Vanilla(n, capacity).Home {
			vanilla[k] = int32(p)
		}
		got := g.TotalConnectivity(grown)
		if v := g.TotalConnectivity(vanilla); got >= v {
			t.Errorf("%s: grown Σλ(e) = %d, not below vanilla's %d", name, got, v)
		}
		if s := g.TotalConnectivity(shp); got >= s {
			t.Errorf("%s: grown Σλ(e) = %d, not below SHP's %d", name, got, s)
		}
	}
}

// The refresh path starts from the home assignment a grown layout carries:
// re-replicating over it and despreading the result over four shards must
// keep the home pages and stay a valid layout.
func TestGrownAssignmentSurvivesRefreshPath(t *testing.T) {
	g, _ := clusteredGraph(t)
	const shards = 4
	opts := Options{Capacity: 15, ReplicationRatio: 0.2, Shards: shards}
	lay, err := Replicate(g, grow(g, opts.Capacity), opts)
	if err != nil {
		t.Fatal(err)
	}
	if err := lay.Validate(); err != nil {
		t.Fatalf("Replicate over a grown assignment: %v", err)
	}
	if lay.ReplicationRatio() == 0 {
		t.Fatal("no replicas on the grown base")
	}
	home := make([]int32, lay.NumKeys)
	for k, p := range lay.Home {
		home[k] = int32(p)
	}
	again, err := Replicate(g, home, opts)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(again, lay) {
		t.Error("re-replicating over the layout's own home assignment changed it")
	}
	spread, _, err := Despread(again, g, shards, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := spread.Validate(); err != nil {
		t.Fatalf("Despread over a grown layout: %v", err)
	}
	if spread.NumPages() != lay.NumPages() || spread.ReplicationRatio() != lay.ReplicationRatio() {
		t.Errorf("Despread changed the layout's size: %d pages r=%v, was %d pages r=%v",
			spread.NumPages(), spread.ReplicationRatio(), lay.NumPages(), lay.ReplicationRatio())
	}
}
