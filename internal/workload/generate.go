package workload

import (
	"math"
	"math/rand"
)

// Generate synthesizes a trace for the profile using its default seed.
func Generate(p Profile) (*Trace, error) {
	return GenerateSeeded(p, p.Seed)
}

// GenerateSeeded synthesizes a trace for the profile with an explicit seed.
// Generation is deterministic for a given (profile, seed) pair.
//
// Model. Items are assigned round-robin to latent communities. A pool of
// query templates is synthesized first: each template draws its keys from a
// band of communities around a primary one (geometric spread), modelling a
// recurring context — a user, a session, an outfit, an ad slot. Each query
// then instantiates a template: it samples a Zipf-popular template and
// draws most of its keys uniformly from that template's key set
// (CommunityAffinity), mixing in globally popular keys (small feature
// columns) for the rest.
//
// This reproduces the two structural properties the paper's analysis rests
// on (§3): key combinations *recur* across queries — which is what makes
// both partitioning and replication learnable — and a template's key set
// exceeds one SSD page, so single-copy placement must split it; the
// recurring remainder is exactly what replica pages recover. Shopping
// profiles get high affinity and concentrated template popularity;
// advertising profiles flatter ones (PopularityOffset), matching the
// paper's observation that CriteoTB is nearly cache-insensitive (Fig 12).
func GenerateSeeded(p Profile, seed int64) (*Trace, error) {
	t, _, err := generate(p, seed, -1, p.Queries)
	return t, err
}

// GenerateShifted is GenerateSeeded with a popularity shift: from query
// index at on, the template pool is permuted, so the recurring key sets stay
// what they were — a placement learned before the shift fits as well as it
// did — while which of them are popular changes completely. That is the
// drift a DRAM cache has to follow (new campaigns, a new season's catalog).
// The trace is n queries long, over the template pool of p whatever n is:
// queries before at are identical to GenerateSeeded's, as far as those go,
// and the permutation depends on the seed alone, so a trace shifted at 0 is
// the post-shift world from the start.
func GenerateShifted(p Profile, seed int64, at, n int) (*Trace, error) {
	t, _, err := generate(p, seed, max(at, 0), n)
	return t, err
}

// generate also returns the item→community map (in final id space) so
// white-box tests can verify the co-occurrence structure. Item ids are
// scrambled by a seeded permutation: real datasets do not assign ids in
// popularity order, so neither does the generator — without this, the
// vanilla sequential placement would accidentally co-locate the hottest
// items and look far better than it does on real traces.
//
// The trace has n queries; the template pool is sized by p.Queries. shiftAt
// ≥ 0 permutes template popularity from that query on (see GenerateShifted),
// with a generator of its own so that the draws of the trace proper do not
// move.
func generate(p Profile, seed int64, shiftAt, n int) (*Trace, []int32, error) {
	if err := p.Validate(); err != nil {
		return nil, nil, err
	}
	rng := rand.New(rand.NewSource(seed))

	numComm := p.Communities
	if numComm > p.Items {
		numComm = p.Items
	}
	idOf := rng.Perm(p.Items) // rank space → id space
	community := make([]int32, p.Items)
	for rank, id := range idOf {
		community[id] = int32(rank % numComm)
	}
	// Community c holds ranks {c, c+numComm, c+2*numComm, ...}.
	commSize := func(c int) int {
		n := p.Items / numComm
		if c < p.Items%numComm {
			n++
		}
		return n
	}

	// Global pulls model small-cardinality feature columns: a modest hot
	// head, flattened by the Zipf v-offset so no single key appears in
	// nearly every query (real hashed columns spread their head). The
	// pool spans only the head tenth of the rank space — small columns
	// are small; the long tail belongs to the big, community-structured
	// columns.
	globalMax := p.Items/10 - 1
	if globalMax < 1 {
		globalMax = 1
	}
	globalZipf := rand.NewZipf(rng, 1.5, 500, uint64(globalMax))

	// Template pool. Each template's size exceeds the mean query length so
	// repeated instantiations overlap heavily, and its keys span a band of
	// communities so the recurring set exceeds one SSD page.
	numTemplates := p.Queries / 12
	if numTemplates < 1 {
		numTemplates = 1
	}
	templates := make([][]int, numTemplates)
	meanTemplate := p.TemplateLen
	if meanTemplate == 0 {
		meanTemplate = 1.25*p.MeanQueryLen + 2
	}
	for ti := range templates {
		primary := rng.Intn(numComm)
		size := 2 + poisson(rng, meanTemplate-2)
		keys := make([]int, 0, size)
		for j := 0; j < size; j++ {
			offset := 0
			for rng.Float64() < p.CommunitySpread {
				offset++
			}
			if rng.Intn(2) == 0 {
				offset = -offset
			}
			comm := ((primary+offset)%numComm + numComm) % numComm
			sz := commSize(comm)
			local := 0
			if sz > 1 {
				local = rng.Intn(sz)
			}
			keys = append(keys, comm+local*numComm)
		}
		templates[ti] = keys
	}
	// Template popularity: Zipf with a per-profile flattening offset.
	tmplV := float64(numTemplates) * p.PopularityOffset
	if tmplV < 2 {
		tmplV = 2
	}
	tmplZipf := rand.NewZipf(rng, p.ZipfS, tmplV, uint64(numTemplates-1))

	t := &Trace{
		NumItems: p.Items,
		Queries:  make([][]Key, 0, n),
	}
	meanExtra := p.MeanQueryLen - 1
	for i := 0; i < n; i++ {
		if i == shiftAt {
			rand.New(rand.NewSource(^seed)).Shuffle(len(templates), func(a, b int) {
				templates[a], templates[b] = templates[b], templates[a]
			})
		}
		qlen := 1 + poisson(rng, meanExtra)
		q := make([]Key, 0, qlen)
		tmpl := templates[tmplZipf.Uint64()]
		for j := 0; j < qlen; j++ {
			var rank int
			if rng.Float64() < p.CommunityAffinity {
				rank = tmpl[rng.Intn(len(tmpl))]
			} else {
				rank = int(globalZipf.Uint64())
			}
			q = append(q, Key(idOf[rank]))
		}
		t.Queries = append(t.Queries, q)
	}
	return t, community, nil
}

// poisson draws from a Poisson distribution with the given mean using
// Knuth's multiplication method. Means used here are bounded by the
// longest profile query length (~80), within float64 range.
func poisson(rng *rand.Rand, mean float64) int {
	if mean <= 0 {
		return 0
	}
	limit := math.Exp(-mean)
	k := 0
	prod := rng.Float64()
	for prod > limit {
		k++
		prod *= rng.Float64()
	}
	return k
}
