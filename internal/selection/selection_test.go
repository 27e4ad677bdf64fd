package selection

import (
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"maxembed/internal/hypergraph"
	"maxembed/internal/layout"
	"maxembed/internal/placement"
	"maxembed/internal/workload"
)

// testLayout: 12 keys, capacity 4, 3 home pages + 1 replica page mixing
// keys from different homes.
//
//	page 0: 0 1 2 3   page 1: 4 5 6 7   page 2: 8 9 10 11
//	page 3 (replica): 0 4 8
func testLayout(t *testing.T) *layout.Layout {
	t.Helper()
	lay := layout.Vanilla(12, 4)
	if _, err := lay.AddReplicaPage([]layout.Key{0, 4, 8}); err != nil {
		t.Fatal(err)
	}
	return lay
}

func collect(emits *[][2]interface{}) EmitFunc {
	return func(p PageID, covered []Key, _ Stats) {
		cp := make([]Key, len(covered))
		copy(cp, covered)
		*emits = append(*emits, [2]interface{}{p, cp})
	}
}

func pagesOf(emits [][2]interface{}) []PageID {
	var out []PageID
	for _, e := range emits {
		out = append(out, e[0].(PageID))
	}
	return out
}

func TestOnePassUsesReplicaPage(t *testing.T) {
	lay := testLayout(t)
	sel := NewSelector(NewIndex(lay, 0))
	var emits [][2]interface{}
	st, err := sel.OnePass([]Key{0, 4, 8}, nil, collect(&emits))
	if err != nil {
		t.Fatal(err)
	}
	// The replica page 3 covers the whole query in one read.
	if st.Pages != 1 {
		t.Fatalf("Pages = %d, want 1; emits %v", st.Pages, emits)
	}
	if got := pagesOf(emits); !reflect.DeepEqual(got, []PageID{3}) {
		t.Errorf("selected pages = %v, want [3]", got)
	}
	if st.Keys != 3 {
		t.Errorf("Keys = %d, want 3", st.Keys)
	}
}

func TestOnePassUnreplicatedQuery(t *testing.T) {
	lay := testLayout(t)
	sel := NewSelector(NewIndex(lay, 0))
	var emits [][2]interface{}
	st, err := sel.OnePass([]Key{1, 2, 5}, nil, collect(&emits))
	if err != nil {
		t.Fatal(err)
	}
	if st.Pages != 2 {
		t.Errorf("Pages = %d, want 2 (pages 0 and 1)", st.Pages)
	}
	got := map[PageID]bool{}
	for _, p := range pagesOf(emits) {
		got[p] = true
	}
	if !got[0] || !got[1] {
		t.Errorf("selected pages = %v, want {0,1}", pagesOf(emits))
	}
}

func TestOnePassDedupesAndSkips(t *testing.T) {
	lay := testLayout(t)
	sel := NewSelector(NewIndex(lay, 0))
	skip := func(k Key) bool { return k == 1 } // cached
	st, err := sel.OnePass([]Key{1, 2, 2, 2, 1}, skip, nil)
	if err != nil {
		t.Fatal(err)
	}
	if st.Keys != 1 {
		t.Errorf("Keys = %d, want 1 (dedup + skip)", st.Keys)
	}
	if st.Pages != 1 {
		t.Errorf("Pages = %d, want 1", st.Pages)
	}
}

func TestOnePassEmptyQuery(t *testing.T) {
	lay := testLayout(t)
	sel := NewSelector(NewIndex(lay, 0))
	st, err := sel.OnePass(nil, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if st.Pages != 0 || st.Keys != 0 {
		t.Errorf("empty query: %+v", st)
	}
	// All keys skipped behaves the same.
	st, err = sel.OnePass([]Key{0, 1}, func(Key) bool { return true }, nil)
	if err != nil {
		t.Fatal(err)
	}
	if st.Pages != 0 {
		t.Errorf("all-skipped query selected %d pages", st.Pages)
	}
}

// Regression: a skipped (cached) key that happens to live on a fetched
// page must not be re-reported as covered — it is already served elsewhere.
func TestSkippedKeyNotRecovered(t *testing.T) {
	lay := testLayout(t) // page 0 holds keys 0..3
	sel := NewSelector(NewIndex(lay, 0))
	skip := func(k Key) bool { return k == 1 }
	var all []Key
	st, err := sel.OnePass([]Key{0, 1, 2}, skip, func(_ PageID, covered []Key, _ Stats) {
		all = append(all, covered...)
	})
	if err != nil {
		t.Fatal(err)
	}
	if st.Keys != 2 {
		t.Errorf("Keys = %d, want 2", st.Keys)
	}
	for _, k := range all {
		if k == 1 {
			t.Error("skipped key 1 reported as covered")
		}
	}
	if len(all) != 2 {
		t.Errorf("covered %v, want exactly {0,2}", all)
	}
}

func TestOnePassKeyOutOfRange(t *testing.T) {
	lay := testLayout(t)
	sel := NewSelector(NewIndex(lay, 0))
	if _, err := sel.OnePass([]Key{99}, nil, nil); err == nil {
		t.Error("out-of-range key accepted")
	}
	if _, err := sel.Greedy([]Key{99}, nil, nil); err == nil {
		t.Error("Greedy accepted out-of-range key")
	}
}

func TestIndexShrinking(t *testing.T) {
	lay := layout.Vanilla(8, 4)
	// Give key 0 three replica pages.
	for i := 0; i < 3; i++ {
		if _, err := lay.AddReplicaPage([]layout.Key{0, Key(i + 1)}); err != nil {
			t.Fatal(err)
		}
	}
	full := NewIndex(lay, 0)
	if got := full.ReplicaCount(0); got != 4 {
		t.Fatalf("full ReplicaCount = %d, want 4", got)
	}
	shrunk := NewIndex(lay, 2)
	if got := shrunk.ReplicaCount(0); got != 2 {
		t.Errorf("shrunk ReplicaCount = %d, want 2", got)
	}
	// Home page always survives shrinking.
	if shrunk.Candidates(0)[0] != lay.Home[0] {
		t.Error("shrunk candidates do not start with home page")
	}
	if shrunk.MemoryEntries() >= full.MemoryEntries() {
		t.Error("shrinking did not reduce memory entries")
	}
	// Selection still covers everything (Fig 7's guarantee via the
	// invert index).
	sel := NewSelector(shrunk)
	var covered []Key
	st, err := sel.OnePass([]Key{0, 1, 2, 3, 4, 5, 6, 7}, nil, func(p PageID, c []Key, _ Stats) {
		covered = append(covered, c...)
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(covered) != 8 {
		t.Errorf("covered %d keys, want 8", len(covered))
	}
	if st.InvertScans > 0 && st.CandidatePages > 16 {
		t.Errorf("CandidatePages = %d exceeds k·q bound 16", st.CandidatePages)
	}
}

func TestGreedyMatchesOnePassCoverage(t *testing.T) {
	lay := testLayout(t)
	sel := NewSelector(NewIndex(lay, 0))
	var emits [][2]interface{}
	st, err := sel.Greedy([]Key{0, 4, 8, 1}, nil, collect(&emits))
	if err != nil {
		t.Fatal(err)
	}
	// Greedy picks replica page 3 (covers 0,4,8) then page 0 (covers 1).
	if st.Pages != 2 {
		t.Errorf("Greedy Pages = %d, want 2", st.Pages)
	}
	if got := pagesOf(emits); got[0] != 3 {
		t.Errorf("Greedy first pick = %v, want page 3", got)
	}
}

// Integration property: on real strategy outputs, both algorithms cover
// every queried key, the emit callback reports each key exactly once, and
// OnePass never reads more pages than there are query keys.
func TestSelectionCoverageProperty(t *testing.T) {
	p := workload.Profile{
		Name: "t", Items: 800, Queries: 1500, MeanQueryLen: 12,
		Communities: 40, CommunityAffinity: 0.85, ZipfS: 1.2, Seed: 5,
	}
	tr, err := workload.Generate(p)
	if err != nil {
		t.Fatal(err)
	}
	g, err := hypergraph.FromQueries(tr.NumItems, tr.Queries)
	if err != nil {
		t.Fatal(err)
	}
	for _, strat := range []placement.Strategy{placement.StrategySHP, placement.StrategyMaxEmbed} {
		lay, err := placement.Build(strat, g, placement.Options{
			Capacity: 8, ReplicationRatio: 0.4, Seed: 2,
		})
		if err != nil {
			t.Fatal(err)
		}
		for _, limit := range []int{0, 5} {
			sel := NewSelector(NewIndex(lay, limit))
			rng := rand.New(rand.NewSource(9))
			var onePassTotal, greedyTotal int
			for qi := 0; qi < 300; qi++ {
				q := tr.Queries[rng.Intn(len(tr.Queries))]
				want := map[Key]bool{}
				for _, k := range q {
					want[k] = true
				}
				got := map[Key]int{}
				st, err := sel.OnePass(q, nil, func(_ PageID, covered []Key, _ Stats) {
					for _, k := range covered {
						got[k]++
					}
				})
				if err != nil {
					t.Fatal(err)
				}
				if len(got) != len(want) {
					t.Fatalf("%s limit=%d: covered %d of %d keys", strat, limit, len(got), len(want))
				}
				for k, c := range got {
					if !want[k] || c != 1 {
						t.Fatalf("%s: key %d covered %d times (in query: %v)", strat, k, c, want[k])
					}
				}
				if st.Pages > len(want) {
					t.Fatalf("%s: %d pages for %d keys", strat, st.Pages, len(want))
				}
				// Greedy covers the same key set.
				gGot := map[Key]bool{}
				gst, err := sel.Greedy(q, nil, func(_ PageID, covered []Key, _ Stats) {
					for _, k := range covered {
						gGot[k] = true
					}
				})
				if err != nil {
					t.Fatal(err)
				}
				if len(gGot) != len(want) {
					t.Fatalf("%s greedy: covered %d of %d", strat, len(gGot), len(want))
				}
				onePassTotal += st.Pages
				greedyTotal += gst.Pages
			}
			// Both are heuristics and may differ per query, but in
			// aggregate classic greedy should not be beaten by more
			// than noise — otherwise one of them is broken.
			if float64(greedyTotal) > 1.02*float64(onePassTotal) {
				t.Errorf("%s limit=%d: greedy total %d pages ≫ one-pass %d",
					strat, limit, greedyTotal, onePassTotal)
			}
		}
	}
}

// With r=0 every key has exactly one candidate, so OnePass must select
// exactly the distinct home pages.
func TestOnePassDegeneratesWithoutReplicas(t *testing.T) {
	lay := layout.Vanilla(40, 5)
	sel := NewSelector(NewIndex(lay, 0))
	query := []Key{0, 1, 7, 12, 39}
	wantPages := map[PageID]bool{}
	for _, k := range query {
		wantPages[lay.Home[k]] = true
	}
	var got []PageID
	st, err := sel.OnePass(query, nil, func(p PageID, _ []Key, _ Stats) { got = append(got, p) })
	if err != nil {
		t.Fatal(err)
	}
	if st.Pages != len(wantPages) {
		t.Errorf("Pages = %d, want %d", st.Pages, len(wantPages))
	}
	for _, p := range got {
		if !wantPages[p] {
			t.Errorf("unexpected page %d", p)
		}
	}
}

func TestSelectorReuseAcrossQueries(t *testing.T) {
	// Scratch state must fully reset between queries.
	lay := testLayout(t)
	sel := NewSelector(NewIndex(lay, 0))
	if _, err := sel.OnePass([]Key{0, 1, 2, 3}, nil, nil); err != nil {
		t.Fatal(err)
	}
	st, err := sel.OnePass([]Key{0}, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if st.Keys != 1 || st.Pages != 1 {
		t.Errorf("second query stats = %+v", st)
	}
}

// replicaSorter is the comparator OnePass ordered keys with before it packed
// (replica count, key) into integers: ascending replica count, ties by key
// id. It stays here as the reference the packed sort is checked against.
type replicaSorter struct {
	keys []Key
	fwd  [][]PageID
}

func (s *replicaSorter) Len() int      { return len(s.keys) }
func (s *replicaSorter) Swap(i, j int) { s.keys[i], s.keys[j] = s.keys[j], s.keys[i] }
func (s *replicaSorter) Less(i, j int) bool {
	ri, rj := len(s.fwd[s.keys[i]]), len(s.fwd[s.keys[j]])
	if ri != rj {
		return ri < rj
	}
	return s.keys[i] < s.keys[j]
}

// TestOnePassOrderMatchesComparatorSort: over every dataset profile's
// generated trace, OnePass selects the same pages, covering the same keys,
// in the same order as a selection that visits the keys in the order the
// sort.Sort comparator gives them.
func TestOnePassOrderMatchesComparatorSort(t *testing.T) {
	for _, p := range workload.Profiles() {
		tr, err := workload.Generate(p.Scaled(0.02))
		if err != nil {
			t.Fatal(err)
		}
		g, err := hypergraph.FromQueries(tr.NumItems, tr.Queries)
		if err != nil {
			t.Fatal(err)
		}
		lay, err := placement.Build(placement.StrategyMaxEmbed, g, placement.Options{
			Capacity: 15, ReplicationRatio: 0.4, Seed: 1,
		})
		if err != nil {
			t.Fatal(err)
		}
		idx := NewIndex(lay, 10)
		sel, ref := NewSelector(idx), NewSelector(idx)
		for qi, q := range tr.Queries {
			var ordered []Key
			seen := map[Key]bool{}
			for _, k := range q {
				if !seen[k] {
					seen[k] = true
					ordered = append(ordered, k)
				}
			}
			sort.Sort(&replicaSorter{keys: ordered, fwd: idx.forward})
			var want, got [][2]interface{}
			if _, err := ref.OnePassUnsorted(ordered, nil, collect(&want)); err != nil {
				t.Fatal(err)
			}
			if _, err := sel.OnePass(q, nil, collect(&got)); err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("%s query %d: selected %v; comparator order selects %v", p.Name, qi, got, want)
			}
		}
	}
}
