package hypergraph

import (
	"math/rand"
	"reflect"
	"slices"
	"sort"
	"testing"
)

func TestCoOccurrenceTop(t *testing.T) {
	// Vertex 0 co-occurs: with 1 three times, with 2 twice, with 3 once.
	g := mustGraph(t, 5, [][]Vertex{
		{0, 1, 2},
		{0, 1, 2},
		{0, 1, 3},
		{4}, // unrelated
	})
	c := NewCoOccurrence(g)
	got := c.Top(0, 3, nil)
	want := []Vertex{1, 2, 3}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("Top(0,3) = %v, want %v", got, want)
	}
	// n smaller than candidates truncates.
	if got := c.Top(0, 1, nil); !reflect.DeepEqual(got, []Vertex{1}) {
		t.Errorf("Top(0,1) = %v, want [1]", got)
	}
	// exclude filters.
	got = c.Top(0, 3, func(v Vertex) bool { return v == 1 })
	want = []Vertex{2, 3}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("Top with exclude = %v, want %v", got, want)
	}
	// Base never appears in its own result.
	for _, v := range c.Top(0, 10, nil) {
		if v == 0 {
			t.Error("Top returned the base vertex")
		}
	}
}

func TestCoOccurrenceTopTieBreak(t *testing.T) {
	// 2 and 1 both co-occur with 0 once; lower id wins ties.
	g := mustGraph(t, 3, [][]Vertex{{0, 2}, {0, 1}})
	c := NewCoOccurrence(g)
	got := c.Top(0, 2, nil)
	want := []Vertex{1, 2}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("Top = %v, want %v", got, want)
	}
}

func TestCoOccurrenceScratchReset(t *testing.T) {
	g := mustGraph(t, 4, [][]Vertex{{0, 1}, {2, 3}})
	c := NewCoOccurrence(g)
	first := c.Top(0, 5, nil)
	if !reflect.DeepEqual(first, []Vertex{1}) {
		t.Fatalf("Top(0) = %v, want [1]", first)
	}
	// If scratch state leaked, 1 would pollute this result.
	second := c.Top(2, 5, nil)
	if !reflect.DeepEqual(second, []Vertex{3}) {
		t.Errorf("Top(2) = %v, want [3]", second)
	}
}

func TestTopForSet(t *testing.T) {
	g := mustGraph(t, 6, [][]Vertex{
		{0, 1, 4},
		{0, 4},
		{1, 5},
		{2, 3},
	})
	c := NewCoOccurrence(g)
	// Set {0,1}: 4 co-occurs 3 times (twice with 0, once via edge 0 counted
	// once per base => edge {0,1,4} counts 4 for base 0 and base 1).
	got := c.TopForSet([]Vertex{0, 1}, 2, nil)
	want := []Vertex{4, 5}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("TopForSet = %v, want %v", got, want)
	}
	// Set members are never returned.
	for _, v := range c.TopForSet([]Vertex{0, 1}, 10, nil) {
		if v == 0 || v == 1 {
			t.Error("TopForSet returned a set member")
		}
	}
}

// TopForSet with a set whose members share edges: overlap must not double
// count, and counts accumulate per (base, edge) incidence exactly as the
// documented semantics — each set member contributes its own incident
// edges, so a vertex co-occurring with two members in one edge is counted
// once per member.
func TestTopForSetOverlappingSets(t *testing.T) {
	g := mustGraph(t, 6, [][]Vertex{
		{0, 1, 4}, // 4 seen from base 0 and from base 1 → counts twice
		{0, 4},    // 4 from base 0
		{1, 4},    // 4 from base 1
		{0, 5},    // 5 from base 0
		{2, 5},    // outside the set
	})
	c := NewCoOccurrence(g)
	got := c.TopForSet([]Vertex{0, 1}, 3, nil)
	// Counts: 4 → 4 (edge 0 twice, edges 1 and 2 once each), 5 → 1.
	want := []Vertex{4, 5}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("TopForSet = %v, want %v", got, want)
	}
	// A set with duplicate members double-counts those members' edges but
	// still never returns a member and stays deterministic.
	dup := c.TopForSet([]Vertex{0, 0, 1}, 5, nil)
	for _, v := range dup {
		if v == 0 || v == 1 {
			t.Errorf("TopForSet with duplicate members returned member %d", v)
		}
	}
	again := c.TopForSet([]Vertex{0, 0, 1}, 5, nil)
	if !reflect.DeepEqual(dup, again) {
		t.Errorf("TopForSet with duplicates not deterministic: %v vs %v", dup, again)
	}
}

// TopForSet where exclude rejects every candidate must return an empty
// slice and leave the scratch state clean for the next call.
func TestTopForSetExcludeAll(t *testing.T) {
	g := mustGraph(t, 5, [][]Vertex{
		{0, 2, 3},
		{1, 3, 4},
	})
	c := NewCoOccurrence(g)
	got := c.TopForSet([]Vertex{0, 1}, 10, func(Vertex) bool { return true })
	if len(got) != 0 {
		t.Fatalf("exclude-all TopForSet = %v, want empty", got)
	}
	// Scratch must have been reset: a follow-up unfiltered call sees the
	// true counts, not leftovers.
	next := c.TopForSet([]Vertex{0}, 10, nil)
	want := []Vertex{2, 3}
	if !reflect.DeepEqual(next, want) {
		t.Errorf("TopForSet after exclude-all = %v, want %v", next, want)
	}
	// A set covering the whole vertex space has no candidates at all.
	all := c.TopForSet([]Vertex{0, 1, 2, 3, 4}, 10, nil)
	if len(all) != 0 {
		t.Errorf("TopForSet over full vertex set = %v, want empty", all)
	}
}

// Placement consumes TopForSet output, so equal-weight candidates must come
// back in a stable order (ascending vertex id) on every call.
func TestTopForSetEqualWeightDeterminism(t *testing.T) {
	// Vertices 2..5 each co-occur with the set exactly once.
	g := mustGraph(t, 7, [][]Vertex{
		{0, 5},
		{0, 3},
		{1, 2},
		{1, 4},
	})
	c := NewCoOccurrence(g)
	want := []Vertex{2, 3, 4, 5}
	for i := 0; i < 3; i++ {
		got := c.TopForSet([]Vertex{0, 1}, 10, nil)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("call %d: TopForSet = %v, want %v (equal weights must tie-break by id)", i, got, want)
		}
	}
	// Truncation under equal weights keeps the same prefix.
	if got := c.TopForSet([]Vertex{0, 1}, 2, nil); !reflect.DeepEqual(got, []Vertex{2, 3}) {
		t.Errorf("truncated TopForSet = %v, want [2 3]", got)
	}
}

func TestTopZeroN(t *testing.T) {
	g := mustGraph(t, 2, [][]Vertex{{0, 1}})
	c := NewCoOccurrence(g)
	if got := c.Top(0, 0, nil); got != nil {
		t.Errorf("Top(n=0) = %v, want nil", got)
	}
	if got := c.TopForSet([]Vertex{0}, 0, nil); got != nil {
		t.Errorf("TopForSet(n=0) = %v, want nil", got)
	}
}

// Property: Top counts match a naive recount, results are unique and never
// include the base, and repeated calls give identical results.
func TestCoOccurrenceProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for iter := 0; iter < 30; iter++ {
		n := 2 + rng.Intn(30)
		queries := make([][]Vertex, 1+rng.Intn(40))
		for i := range queries {
			l := 1 + rng.Intn(6)
			q := make([]Vertex, l)
			for j := range q {
				q[j] = Vertex(rng.Intn(n))
			}
			queries[i] = q
		}
		g := mustGraph(t, n, queries)
		c := NewCoOccurrence(g)
		base := Vertex(rng.Intn(n))
		got := c.Top(base, n, nil)
		again := c.Top(base, n, nil)
		if !reflect.DeepEqual(got, again) {
			t.Fatalf("Top not deterministic: %v vs %v", got, again)
		}
		// Naive recount.
		counts := map[Vertex]int{}
		for e := 0; e < g.NumEdges(); e++ {
			members := g.Edge(EdgeID(e))
			has := false
			for _, v := range members {
				if v == base {
					has = true
					break
				}
			}
			if !has {
				continue
			}
			for _, v := range members {
				if v != base {
					counts[v]++
				}
			}
		}
		if len(got) != len(counts) {
			t.Fatalf("Top len = %d, want %d", len(got), len(counts))
		}
		seen := map[Vertex]bool{}
		prev := -1
		for _, v := range got {
			if v == base || seen[v] {
				t.Fatalf("invalid Top result %v (base %d)", got, base)
			}
			seen[v] = true
			if prev >= 0 && counts[v] > prev {
				t.Fatalf("Top not sorted by count: %v", got)
			}
			prev = counts[v]
		}
	}
}

// refTop and refTopForSet are the implementation CoOccurrence had before it
// went dense — a map tally, exclude applied up front, sort.Slice by (count
// descending, id ascending) — kept as the reference for the differential
// test below.
func refTop(g *Graph, base Vertex, n int, exclude func(Vertex) bool) []Vertex {
	return refTopForSet(g, []Vertex{base}, n, exclude)
}

func refTopForSet(g *Graph, set []Vertex, n int, exclude func(Vertex) bool) []Vertex {
	if n <= 0 {
		return nil
	}
	counts := map[Vertex]int{}
	for _, base := range set {
		for _, e := range g.IncidentEdges(base) {
			for _, v := range g.Edge(e) {
				if !slices.Contains(set, v) {
					counts[v]++
				}
			}
		}
	}
	cands := []Vertex{}
	for v := range counts {
		if exclude == nil || !exclude(v) {
			cands = append(cands, v)
		}
	}
	sort.Slice(cands, func(i, j int) bool {
		if ci, cj := counts[cands[i]], counts[cands[j]]; ci != cj {
			return ci > cj
		}
		return cands[i] < cands[j]
	})
	return cands[:min(n, len(cands))]
}

// TestCoOccurrenceMatchesReference: over random graphs, bases, sets (with
// repeated members), limits and exclude functions, one CoOccurrence reused
// across every call returns exactly what the map-and-closure reference
// returns — same vertices, same order — so placement built on it is
// unchanged to the byte.
func TestCoOccurrenceMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for iter := 0; iter < 200; iter++ {
		n := 2 + rng.Intn(60)
		queries := make([][]Vertex, 1+rng.Intn(80))
		for i := range queries {
			q := make([]Vertex, 1+rng.Intn(8))
			for j := range q {
				q[j] = Vertex(rng.Intn(n))
			}
			queries[i] = q
		}
		g := mustGraph(t, n, queries)
		c := NewCoOccurrence(g)
		for call := 0; call < 20; call++ {
			var exclude func(Vertex) bool
			switch salt := Vertex(rng.Intn(7)); rng.Intn(4) {
			case 1:
				exclude = func(v Vertex) bool { return (v+salt)%3 == 0 }
			case 2:
				exclude = func(v Vertex) bool { return v > salt*8 }
			case 3:
				exclude = func(Vertex) bool { return true }
			}
			limit := rng.Intn(n + 2)
			if rng.Intn(2) == 0 {
				base := Vertex(rng.Intn(n))
				got, want := c.Top(base, limit, exclude), refTop(g, base, limit, exclude)
				if !slices.Equal(got, want) {
					t.Fatalf("graph %d: Top(%d, %d) = %v, reference %v", iter, base, limit, got, want)
				}
				continue
			}
			set := make([]Vertex, 1+rng.Intn(5))
			for i := range set {
				set[i] = Vertex(rng.Intn(n))
			}
			got, want := c.TopForSet(set, limit, exclude), refTopForSet(g, set, limit, exclude)
			if !slices.Equal(got, want) {
				t.Fatalf("graph %d: TopForSet(%v, %d) = %v, reference %v", iter, set, limit, got, want)
			}
		}
	}
}
