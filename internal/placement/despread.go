// Co-activation-aware cross-SSD placement: permuting page IDs so pages
// serving the same recurring query sets land on different shards.
//
// The striped array fixes page → shard as p mod n, which is blind to which
// pages are read *together*: a skewed trace that repeatedly co-activates a
// hot page group can alias that whole group onto one drive's queue pair,
// bounding per-query tail latency by the deepest shard instead of the
// array. Despread feeds the co-appearance hypergraph into shard assignment
// — a greedy balanced partition over co-activation edge weights, within
// each tier's residue classes — and emits the result as a page-ID
// permutation exactly like Retier, so it rides the refresh-boundary atomic
// hot-swap and leaves replica emission, recovery, scrubbing, and rebuild
// untouched.
//
// Composition (DESIGN.md §16): Build/Replicate(Shards) → Retier → Despread.
// Retier decides which *tier* each page lives on (cross-tier, by heat);
// Despread decides which *shard within its tier* (intra-tier, by
// co-activation and replica diversity). Because Despread only permutes IDs
// within a tier's residue classes, tier membership and per-shard page
// counts are preserved exactly. The replica shard-diversity objective also
// repairs the collisions Retier's heat-only permutation can introduce into
// the Options.Shards replica placement (the satellite fix this pass
// carries): with a nil graph, Despread runs in diversity-only mode.
package placement

import (
	"fmt"
	"sort"

	"maxembed/internal/hypergraph"
	"maxembed/internal/layout"
)

// SpreadReport summarizes one Despread pass.
type SpreadReport struct {
	// Shards is the stripe width; Tiers the number of residue-class groups
	// the permutation respected (1 when tierOfShard was nil).
	Shards int `json:"shards"`
	Tiers  int `json:"tiers"`
	// Moved is the number of pages whose shard changed.
	Moved int `json:"moved_pages" prom:"moved_pages,gauge"`
	// Edges is the number of page-level co-activation edges scored; 0 in
	// diversity-only mode (nil graph).
	Edges int `json:"edges_scored" prom:"edges_scored,gauge"`
	// MeanDepthBefore/After is the mean per-query max-shard depth over the
	// co-activation edges — the number of page reads the deepest shard
	// serializes for an average recurring query set (1.0 = perfect spread).
	MeanDepthBefore float64 `json:"mean_depth_before" prom:"mean_depth_before,gauge"`
	MeanDepthAfter  float64 `json:"mean_depth_after" prom:"mean_depth_after,gauge"`
	// MaxDepthBefore/After is the worst single-edge depth.
	MaxDepthBefore int `json:"max_depth_before"`
	MaxDepthAfter  int `json:"max_depth_after"`
	// ReplicaCollisionsBefore/After count (key, replica-copy) pairs whose
	// replica page shares a shard with the key's home page — the invariant
	// Options.Shards established at replica emission and Retier can break.
	ReplicaCollisionsBefore int `json:"replica_collisions_before"`
	ReplicaCollisionsAfter  int `json:"replica_collisions_after" prom:"replica_collisions,gauge"`
	// UncoveredKeysBefore/After count replicated keys with NO replica on a
	// different shard than their home — the keys a single-shard failure
	// strands without a shard-diverse rescue copy. This is the invariant
	// recovery actually depends on; pairwise collisions are the soft
	// minimization objective on top of it.
	UncoveredKeysBefore int `json:"uncovered_keys_before"`
	UncoveredKeysAfter  int `json:"uncovered_keys_after" prom:"uncovered_keys,gauge"`
}

// UncoveredKeys counts replicated keys with no replica on a different shard
// than their home page under p mod shards striping — the keys recovery
// cannot rescue shard-diversely after a single-shard failure.
func UncoveredKeys(lay *layout.Layout, shards int) int {
	if shards <= 1 || lay.Replicas == nil {
		return 0
	}
	n := uint32(shards)
	c := 0
	for k, reps := range lay.Replicas {
		if len(reps) == 0 {
			continue
		}
		hs := lay.Home[k] % n
		diverse := false
		for _, r := range reps {
			if r%n != hs {
				diverse = true
				break
			}
		}
		if !diverse {
			c++
		}
	}
	return c
}

// ReplicaCollisions counts (key, replica-copy) pairs whose replica page
// lands on the same shard as the key's home page under p mod shards
// striping — the shard-diversity measure Despread minimizes and tests
// assert on.
func ReplicaCollisions(lay *layout.Layout, shards int) int {
	if shards <= 1 || lay.Replicas == nil {
		return 0
	}
	n := uint32(shards)
	c := 0
	for k, reps := range lay.Replicas {
		hs := lay.Home[k] % n
		for _, r := range reps {
			if r%n == hs {
				c++
			}
		}
	}
	return c
}

// Despread returns a copy of lay with page IDs permuted within each tier's
// residue classes so that pages co-activated by the same recurring query
// sets land on different shards and replica pages avoid their keys' home
// shards. g is the co-appearance hypergraph over keys (hyperedges are
// history queries); nil runs the pass in diversity-only mode, repairing
// replica shard collisions without co-activation input. tierOfShard maps
// each shard to its tier rank (ssd.Array.TierShardMap); nil treats the
// whole array as one tier. Pages never change tier: Retier's cross-tier
// heat placement is preserved exactly, as are per-shard page counts (the
// partition is balanced by construction).
//
// The input layout is not modified. With one shard the copy is returned
// unchanged with an empty report, mirroring Retier's homogeneous case.
func Despread(lay *layout.Layout, g *hypergraph.Graph, shards int, tierOfShard []int) (*layout.Layout, *SpreadReport, error) {
	if shards < 1 {
		return nil, nil, fmt.Errorf("placement: Despread needs a positive shard count, got %d", shards)
	}
	if tierOfShard != nil && len(tierOfShard) != shards {
		return nil, nil, fmt.Errorf("placement: tier map covers %d shards, array has %d", len(tierOfShard), shards)
	}
	numPages := lay.NumPages()
	rep := &SpreadReport{Shards: shards, Tiers: 1}
	if shards == 1 || numPages == 0 {
		return applyPagePerm(lay, nil), rep, nil
	}

	// Tier geometry: which tier each page slot (residue class) belongs to,
	// and which shards make up each tier.
	numTiers := 1
	if tierOfShard != nil {
		for s, t := range tierOfShard {
			if t < 0 {
				return nil, nil, fmt.Errorf("placement: shard %d has negative tier %d", s, t)
			}
			if t+1 > numTiers {
				numTiers = t + 1
			}
		}
	}
	rep.Tiers = numTiers
	tierOf := func(s int) int {
		if tierOfShard == nil {
			return 0
		}
		return tierOfShard[s]
	}
	tierShards := make([][]int, numTiers)
	for s := 0; s < shards; s++ {
		t := tierOf(s)
		tierShards[t] = append(tierShards[t], s)
	}
	// quota[s] is the number of page IDs striping onto shard s — fixed by
	// the ID space, so filling quotas exactly preserves balance.
	quota := make([]int, shards)
	for p := 0; p < numPages; p++ {
		quota[p%shards]++
	}

	// Page-level co-activation: each history query's keys map to their home
	// pages, giving one hyperedge per query over page IDs. Recurring query
	// sets appear as repeated edges, weighting them naturally.
	var pg *hypergraph.Graph
	if g != nil {
		pb := hypergraph.NewBuilder(numPages)
		var scratch []hypergraph.Vertex
		for e := 0; e < g.NumEdges(); e++ {
			scratch = scratch[:0]
			for _, v := range g.Edge(hypergraph.EdgeID(e)) {
				if int(v) < len(lay.Home) {
					scratch = append(scratch, lay.Home[v])
				}
			}
			if err := pb.AddEdge(scratch); err != nil {
				return nil, nil, fmt.Errorf("placement: page co-activation edge: %w", err)
			}
		}
		pg = pb.Build()
		rep.Edges = pg.NumEdges()
	}

	// copies[p] lists, for each key resident on page p, the other pages
	// holding a copy of that key — the replica-diversity neighbourhood.
	copies := make([][]layout.PageID, numPages)
	if lay.Replicas != nil {
		for k := 0; k < lay.NumKeys; k++ {
			reps := lay.Replicas[k]
			if len(reps) == 0 {
				continue
			}
			h := lay.Home[k]
			for _, r := range reps {
				copies[h] = append(copies[h], r)
				copies[r] = append(copies[r], h)
				for _, r2 := range reps {
					if r2 != r {
						copies[r] = append(copies[r], r2)
					}
				}
			}
		}
	}

	// Greedy balanced partition, one tier at a time. Pages are processed
	// most-co-activated first (ties by ID, deterministically); each picks
	// the in-tier shard minimizing, lexicographically: replica collisions
	// with already-placed copies, co-activation depth with already-placed
	// co-pages, current fill, shard ID.
	newShard := make([]int, numPages)
	for p := range newShard {
		newShard[p] = -1
	}
	tierPages := make([][]layout.PageID, numTiers)
	for p := 0; p < numPages; p++ {
		t := tierOf(p % shards)
		tierPages[t] = append(tierPages[t], layout.PageID(p))
	}
	placedLoad := make([]int, shards)
	divCost := make([]int, shards)
	coactCost := make([]int, shards)
	for t := 0; t < numTiers; t++ {
		pages := append([]layout.PageID(nil), tierPages[t]...)
		activity := func(p layout.PageID) int {
			if pg == nil {
				return 0
			}
			return pg.Degree(p)
		}
		// Most-constrained first: co-activation weight, then replica
		// relationships (replica pages have no page-level edges — their
		// keys' edges point at the home pages — so without this they would
		// all land last, exactly when quotas are exhausted and the greedy
		// is forced into collisions). Copy-free, co-activation-free pages
		// genuinely don't care where they go; they fill the remainder.
		sort.SliceStable(pages, func(i, j int) bool {
			ai, aj := activity(pages[i]), activity(pages[j])
			if ai != aj {
				return ai > aj
			}
			if ci, cj := len(copies[pages[i]]), len(copies[pages[j]]); ci != cj {
				return ci > cj
			}
			return pages[i] < pages[j]
		})
		cands := tierShards[t]
		for _, p := range pages {
			for _, s := range cands {
				divCost[s], coactCost[s] = 0, 0
			}
			for _, c := range copies[p] {
				if s := newShard[c]; s >= 0 {
					divCost[s]++
				}
			}
			if pg != nil {
				for _, e := range pg.IncidentEdges(p) {
					for _, q := range pg.Edge(e) {
						if q == p {
							continue
						}
						if s := newShard[q]; s >= 0 {
							coactCost[s]++
						}
					}
				}
			}
			best := -1
			for _, s := range cands {
				if placedLoad[s] >= quota[s] {
					continue
				}
				if best < 0 {
					best = s
					continue
				}
				if divCost[s] != divCost[best] {
					if divCost[s] < divCost[best] {
						best = s
					}
					continue
				}
				if coactCost[s] != coactCost[best] {
					if coactCost[s] < coactCost[best] {
						best = s
					}
					continue
				}
				if placedLoad[s] < placedLoad[best] {
					best = s
				}
			}
			if best < 0 {
				return nil, nil, fmt.Errorf("placement: tier %d ran out of shard slots (internal invariant)", t)
			}
			newShard[p] = best
			placedLoad[best]++
		}
	}

	// The greedy above is myopic: when a page is placed, copies and
	// co-activated neighbours not yet placed contribute zero cost, so a
	// constrained page can still end up sharing a shard with a neighbour
	// placed after it. A bounded, deterministic swap refinement repairs
	// this: every page whose current shard carries positive cost looks for
	// a same-tier partner on another shard such that exchanging the two
	// strictly reduces (replica collisions, then co-activation depth).
	// Swaps trade shards one-for-one, so per-shard balance and tier
	// membership stay exact, and each accepted swap strictly decreases the
	// lexicographic (diversity, co-activation) potential, so the loop
	// cannot cycle. Partner evaluations are budgeted per tier to keep
	// refinement near-linear on large layouts.
	divAt := func(p layout.PageID, s int) int {
		c := 0
		for _, q := range copies[p] {
			if newShard[q] == s {
				c++
			}
		}
		return c
	}
	coactAt := func(p layout.PageID, s int) int {
		if pg == nil {
			return 0
		}
		c := 0
		for _, e := range pg.IncidentEdges(p) {
			for _, q := range pg.Edge(e) {
				if q != p && newShard[q] == s {
					c++
				}
			}
		}
		return c
	}
	divMult := func(p, q layout.PageID) int {
		m := 0
		for _, r := range copies[p] {
			if r == q {
				m++
			}
		}
		return m
	}
	coactMult := func(p, q layout.PageID) int {
		if pg == nil {
			return 0
		}
		m := 0
		for _, e := range pg.IncidentEdges(p) {
			for _, r := range pg.Edge(e) {
				if r == q {
					m++
				}
			}
		}
		return m
	}
	for t := 0; t < numTiers; t++ {
		if len(tierShards[t]) < 2 {
			continue
		}
		budget := 256 * len(tierPages[t])
		for pass := 0; pass < 8 && budget > 0; pass++ {
			improved := false
			for _, p := range tierPages[t] {
				if budget <= 0 {
					break
				}
				s := newShard[p]
				pDiv, pCoact := divAt(p, s), coactAt(p, s)
				if pDiv == 0 && pCoact == 0 {
					continue
				}
				// Best swap, not first-improving: scanning every partner and
				// minimizing the (replica, co-activation) delta lets a
				// constrained page trade with a coact-neutral partner (a cold
				// or replica page) instead of whichever hot home page happens
				// to come first — first-improving diversity repairs were
				// measurably regressing the co-activation spread.
				bestQ, bestS, bestD, bestC := layout.PageID(0), -1, 0, 0
				for _, s2 := range tierShards[t] {
					if s2 == s || budget <= 0 {
						continue
					}
					pDiv2, pCoact2 := divAt(p, s2), coactAt(p, s2)
					for _, q := range tierPages[t] {
						if newShard[q] != s2 {
							continue
						}
						budget--
						if budget < 0 {
							break
						}
						// Exchanging p↔q: costs were computed with both still
						// in place, so pairs between p and q appear on both
						// sides — subtract them twice (the lists are
						// symmetric by construction).
						dDelta := pDiv2 - pDiv + divAt(q, s) - divAt(q, s2) - 2*divMult(p, q)
						if dDelta > bestD {
							continue
						}
						// Never trade co-activation spread for collisions:
						// a colliding pair always has a replica-page side
						// with no co-activation edges, so a coact-neutral
						// repair partner (another replica or a cold page)
						// almost always exists — insisting on one keeps the
						// tentpole objective from eroding.
						cDelta := pCoact2 - pCoact + coactAt(q, s) - coactAt(q, s2) - 2*coactMult(p, q)
						if cDelta > 0 {
							continue
						}
						if dDelta < bestD || cDelta < bestC {
							bestQ, bestS, bestD, bestC = q, s2, dDelta, cDelta
						}
					}
				}
				if bestS >= 0 {
					newShard[p], newShard[bestQ] = bestS, s
					improved = true
				}
			}
			if !improved {
				break
			}
		}
	}

	// Coverage repair: the pairwise objective above can still strand a key
	// with every copy on one shard — uncovered, meaning a single-shard
	// failure leaves recovery no shard-diverse replica for it. Walk the
	// uncovered keys and swap one of their copy pages onto another in-tier
	// shard, picking the partner that fixes the most coverage with the
	// least pairwise-collision and co-activation damage. The global
	// uncovered count strictly decreases with each accepted swap, so the
	// loop terminates; a budget bounds the partner scans on large layouts.
	if lay.Replicas != nil {
		coveredNow := func(k int) bool {
			reps := lay.Replicas[k]
			if len(reps) == 0 {
				return true
			}
			hs := newShard[lay.Home[k]]
			for _, r := range reps {
				if newShard[r] != hs {
					return true
				}
			}
			return false
		}
		var affected []layout.Key
		addAffected := func(p layout.PageID) {
			for _, k := range lay.Pages[p] {
				dup := false
				for _, a := range affected {
					if a == k {
						dup = true
						break
					}
				}
				if !dup {
					affected = append(affected, k)
				}
			}
		}
		countUncov := func() int {
			c := 0
			for _, k := range affected {
				if !coveredNow(int(k)) {
					c++
				}
			}
			return c
		}
		// trySwap scores exchanging pages c and q: coverage can only change
		// for keys resident on either page, so the uncovered delta is exact
		// from just those keys.
		trySwap := func(c, q layout.PageID) (uncov, div, coact int) {
			affected = affected[:0]
			addAffected(c)
			addAffected(q)
			before := countUncov()
			sc, sq := newShard[c], newShard[q]
			div = divAt(c, sq) - divAt(c, sc) + divAt(q, sc) - divAt(q, sq) - 2*divMult(c, q)
			coact = coactAt(c, sq) - coactAt(c, sc) + coactAt(q, sc) - coactAt(q, sq) - 2*coactMult(c, q)
			newShard[c], newShard[q] = sq, sc
			uncov = countUncov() - before
			newShard[c], newShard[q] = sc, sq
			return uncov, div, coact
		}
		coverBudget := 64 * numPages
		for pass := 0; pass < 8 && coverBudget > 0; pass++ {
			improved := false
			for k := 0; k < lay.NumKeys && coverBudget > 0; k++ {
				if coveredNow(k) {
					continue
				}
				// Every copy of k sits on one shard; replicas are tried
				// before the home page because they carry no co-activation
				// edges of their own.
				cands := append(append([]layout.PageID(nil), lay.Replicas[k]...), lay.Home[k])
				var bestC, bestQ layout.PageID
				bestU, bestD, bestA, found := 0, 0, 0, false
				for _, c := range cands {
					t := tierOf(newShard[c])
					for _, s2 := range tierShards[t] {
						if s2 == newShard[c] {
							continue
						}
						for _, q := range tierPages[t] {
							if newShard[q] != s2 {
								continue
							}
							coverBudget--
							if coverBudget < 0 {
								break
							}
							u, d, a := trySwap(c, q)
							if u >= 0 {
								continue
							}
							// Coact damage ranks above pairwise collisions
							// here: coverage must be restored, but the
							// tentpole spread objective is the next thing
							// to protect while doing it.
							if !found || u < bestU || (u == bestU && (a < bestA || (a == bestA && d < bestD))) {
								bestC, bestQ, bestU, bestD, bestA, found = c, q, u, d, a, true
							}
						}
					}
				}
				if found {
					newShard[bestC], newShard[bestQ] = newShard[bestQ], newShard[bestC]
					improved = true
				}
			}
			if !improved {
				break
			}
		}
	}

	// Hand out IDs Retier-style: pages staying on their shard keep their
	// IDs; each shard's vacated slot IDs (ascending) go to its incoming
	// pages in placement order, so more co-activated pages get lower IDs.
	perm := make([]layout.PageID, numPages)
	vacated := make([][]layout.PageID, shards)
	incoming := make([][]layout.PageID, shards)
	for p := 0; p < numPages; p++ {
		if newShard[p] == p%shards {
			perm[p] = layout.PageID(p)
		} else {
			vacated[p%shards] = append(vacated[p%shards], layout.PageID(p))
			rep.Moved++
		}
	}
	for t := 0; t < numTiers; t++ {
		var moved []layout.PageID
		for p := 0; p < numPages; p++ {
			if tierOf(p%shards) == t && newShard[p] != p%shards {
				moved = append(moved, layout.PageID(p))
			}
		}
		sort.SliceStable(moved, func(i, j int) bool {
			ai, aj := 0, 0
			if pg != nil {
				ai, aj = pg.Degree(moved[i]), pg.Degree(moved[j])
			}
			if ai != aj {
				return ai > aj
			}
			return moved[i] < moved[j]
		})
		for _, p := range moved {
			incoming[newShard[p]] = append(incoming[newShard[p]], p)
		}
	}
	for s := 0; s < shards; s++ {
		if len(vacated[s]) != len(incoming[s]) {
			return nil, nil, fmt.Errorf("placement: shard %d vacates %d slots but receives %d pages",
				s, len(vacated[s]), len(incoming[s]))
		}
		for i, p := range incoming[s] {
			perm[p] = vacated[s][i]
		}
	}

	out := applyPagePerm(lay, perm)
	rep.ReplicaCollisionsBefore = ReplicaCollisions(lay, shards)
	rep.ReplicaCollisionsAfter = ReplicaCollisions(out, shards)
	rep.UncoveredKeysBefore = UncoveredKeys(lay, shards)
	rep.UncoveredKeysAfter = UncoveredKeys(out, shards)
	if pg != nil {
		identity := make([]uint32, numPages)
		for p := range identity {
			identity[p] = uint32(p)
		}
		before := pg.ShardSpread(identity, shards)
		after := pg.ShardSpread(perm, shards)
		rep.MeanDepthBefore, rep.MaxDepthBefore = before.MeanMaxDepth, before.MaxMaxDepth
		rep.MeanDepthAfter, rep.MaxDepthAfter = after.MeanMaxDepth, after.MaxMaxDepth
	}
	return out, rep, nil
}

// applyPagePerm returns a fresh layout with page IDs renumbered by perm
// (old → new); nil perm is the identity. Page key slices are immutable
// under renumbering and safely shared with the input — the same apply step
// Retier uses, factored so both passes stay byte-for-byte consistent.
func applyPagePerm(lay *layout.Layout, perm []layout.PageID) *layout.Layout {
	numPages := lay.NumPages()
	out := &layout.Layout{
		NumKeys:  lay.NumKeys,
		Capacity: lay.Capacity,
		Pages:    make([][]layout.Key, numPages),
		Home:     make([]layout.PageID, len(lay.Home)),
	}
	if perm == nil {
		copy(out.Pages, lay.Pages)
		copy(out.Home, lay.Home)
	} else {
		for p, keys := range lay.Pages {
			out.Pages[perm[p]] = keys
		}
		for k, h := range lay.Home {
			out.Home[k] = perm[h]
		}
	}
	if lay.Replicas != nil {
		out.Replicas = make([][]layout.PageID, len(lay.Replicas))
		for k, reps := range lay.Replicas {
			if len(reps) == 0 {
				continue
			}
			nr := make([]layout.PageID, len(reps))
			if perm == nil {
				copy(nr, reps)
			} else {
				for i, r := range reps {
					nr[i] = perm[r]
				}
			}
			out.Replicas[k] = nr
		}
	}
	return out
}
