package workload

import (
	"bytes"
	"math"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"
)

func testProfile() Profile {
	return Profile{
		Name:              "test",
		Items:             2_000,
		Queries:           3_000,
		MeanQueryLen:      8,
		Communities:       50,
		CommunityAffinity: 0.8,
		ZipfS:             1.2,
		Seed:              1,
	}
}

func TestGenerateValidity(t *testing.T) {
	tr, err := Generate(testProfile())
	if err != nil {
		t.Fatalf("Generate: %v", err)
	}
	if tr.NumItems != 2_000 {
		t.Errorf("NumItems = %d, want 2000", tr.NumItems)
	}
	if tr.NumQueries() != 3_000 {
		t.Errorf("NumQueries = %d, want 3000", tr.NumQueries())
	}
	for i, q := range tr.Queries {
		if len(q) == 0 {
			t.Fatalf("query %d empty", i)
		}
		for _, k := range q {
			if int(k) >= tr.NumItems {
				t.Fatalf("query %d: key %d out of range", i, k)
			}
		}
	}
}

func TestGenerateDeterministic(t *testing.T) {
	p := testProfile()
	a, err := GenerateSeeded(p, 42)
	if err != nil {
		t.Fatal(err)
	}
	b, err := GenerateSeeded(p, 42)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Error("same seed produced different traces")
	}
	c, err := GenerateSeeded(p, 43)
	if err != nil {
		t.Fatal(err)
	}
	if reflect.DeepEqual(a.Queries, c.Queries) {
		t.Error("different seeds produced identical traces")
	}
}

func TestGenerateMeanQueryLen(t *testing.T) {
	p := testProfile()
	p.Queries = 20_000
	tr, err := Generate(p)
	if err != nil {
		t.Fatal(err)
	}
	got := tr.MeanQueryLen()
	if math.Abs(got-p.MeanQueryLen) > 0.5 {
		t.Errorf("MeanQueryLen = %v, want ~%v", got, p.MeanQueryLen)
	}
}

// TestGenerateSkew verifies Zipf popularity: the hottest 5%% of items must
// absorb well over half of all accesses for the skews used by the profiles.
func TestGenerateSkew(t *testing.T) {
	tr, err := Generate(testProfile())
	if err != nil {
		t.Fatal(err)
	}
	freq := tr.Frequencies()
	total := 0
	for _, f := range freq {
		total += f
	}
	// Count accesses to the top 5% hottest items.
	type kf struct{ k, f int }
	top := make([]kf, len(freq))
	for k, f := range freq {
		top[k] = kf{k, f}
	}
	// selection of top 5% by frequency via partial sort
	nTop := len(freq) / 20
	for i := 0; i < nTop; i++ {
		maxJ := i
		for j := i + 1; j < len(top); j++ {
			if top[j].f > top[maxJ].f {
				maxJ = j
			}
		}
		top[i], top[maxJ] = top[maxJ], top[i]
	}
	hot := 0
	for i := 0; i < nTop; i++ {
		hot += top[i].f
	}
	// The template model keeps a hot head without letting it dominate
	// (see generate's doc comment); 5% of items drawing ≳40% of accesses
	// is still ~8× the uniform share.
	if frac := float64(hot) / float64(total); frac < 0.35 {
		t.Errorf("top 5%% of items got %.1f%% of accesses, want > 35%%", frac*100)
	}
}

// TestGenerateCommunityStructure verifies that co-occurrence is
// concentrated: keys in the same query share a community far more often
// than uniform sampling would produce.
func TestGenerateCommunityStructure(t *testing.T) {
	p := testProfile()
	tr, community, err := generate(p, p.Seed, -1, p.Queries)
	if err != nil {
		t.Fatal(err)
	}
	samePairs, totalPairs := 0, 0
	for _, q := range tr.Queries {
		for i := 0; i < len(q); i++ {
			for j := i + 1; j < len(q); j++ {
				totalPairs++
				if community[q[i]] == community[q[j]] {
					samePairs++
				}
			}
		}
	}
	if totalPairs == 0 {
		t.Fatal("no key pairs generated")
	}
	frac := float64(samePairs) / float64(totalPairs)
	// Uniform baseline would be ~1/numComm = 2%. Affinity 0.8 should yield
	// a same-community fraction far above that.
	if frac < 0.3 {
		t.Errorf("same-community pair fraction = %.3f, want > 0.3", frac)
	}
}

// TestGenerateIDsNotHotnessOrdered guards against popularity leaking into
// id order: if hot items clustered at low ids, the vanilla sequential
// placement would co-locate them and the baseline comparison would be
// meaningless (real dataset ids are not sorted by popularity).
func TestGenerateIDsNotHotnessOrdered(t *testing.T) {
	p := testProfile()
	p.Queries = 20_000
	tr, err := Generate(p)
	if err != nil {
		t.Fatal(err)
	}
	freq := tr.Frequencies()
	half := len(freq) / 2
	var lo, hi int
	for k, f := range freq {
		if k < half {
			lo += f
		} else {
			hi += f
		}
	}
	ratio := float64(lo) / float64(lo+hi)
	if ratio < 0.35 || ratio > 0.65 {
		t.Errorf("low-id half received %.1f%% of accesses; ids correlate with hotness", ratio*100)
	}
}

func TestProfileValidate(t *testing.T) {
	cases := []func(*Profile){
		func(p *Profile) { p.Items = 0 },
		func(p *Profile) { p.Queries = -1 },
		func(p *Profile) { p.MeanQueryLen = 0.5 },
		func(p *Profile) { p.Communities = 0 },
		func(p *Profile) { p.CommunityAffinity = 1.5 },
		func(p *Profile) { p.ZipfS = 1.0 },
	}
	for i, mutate := range cases {
		p := testProfile()
		mutate(&p)
		if err := p.Validate(); err == nil {
			t.Errorf("case %d: Validate accepted invalid profile", i)
		}
	}
	if err := testProfile().Validate(); err != nil {
		t.Errorf("valid profile rejected: %v", err)
	}
}

func TestBuiltinProfilesValid(t *testing.T) {
	for _, p := range Profiles() {
		if err := p.Validate(); err != nil {
			t.Errorf("profile %q invalid: %v", p.Name, err)
		}
		if p.PaperItems <= 0 || p.PaperQueries <= 0 || p.PaperQueryLen <= 0 {
			t.Errorf("profile %q missing paper numbers", p.Name)
		}
	}
	if _, ok := ProfileByName("Criteo"); !ok {
		t.Error("ProfileByName(Criteo) not found")
	}
	if _, ok := ProfileByName("nope"); ok {
		t.Error("ProfileByName(nope) unexpectedly found")
	}
}

func TestScaled(t *testing.T) {
	p := Criteo.Scaled(0.01)
	if p.Items != 1_600 || p.Queries != 1_600 || p.Communities != 115 {
		t.Errorf("Scaled = %d items %d queries %d communities", p.Items, p.Queries, p.Communities)
	}
	tiny := Criteo.Scaled(0.0000001)
	if tiny.Items < 1 || tiny.Queries < 1 || tiny.Communities < 1 {
		t.Errorf("Scaled floor violated: %+v", tiny)
	}
}

func TestSplit(t *testing.T) {
	tr := &Trace{NumItems: 10, Queries: [][]Key{{1}, {2}, {3}, {4}}}
	h, e := tr.Split(0.5)
	if h.NumQueries() != 2 || e.NumQueries() != 2 {
		t.Errorf("Split(0.5): %d/%d, want 2/2", h.NumQueries(), e.NumQueries())
	}
	h, e = tr.Split(-1)
	if h.NumQueries() != 0 || e.NumQueries() != 4 {
		t.Errorf("Split(-1): %d/%d", h.NumQueries(), e.NumQueries())
	}
	h, e = tr.Split(2)
	if h.NumQueries() != 4 || e.NumQueries() != 0 {
		t.Errorf("Split(2): %d/%d", h.NumQueries(), e.NumQueries())
	}
	if h.NumItems != 10 || e.NumItems != 10 {
		t.Error("Split lost NumItems")
	}
}

func TestEncodeDecodeRoundTrip(t *testing.T) {
	tr, err := Generate(testProfile().Scaled(0.1))
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := tr.Encode(&buf); err != nil {
		t.Fatalf("Encode: %v", err)
	}
	got, err := Decode(&buf)
	if err != nil {
		t.Fatalf("Decode: %v", err)
	}
	if !reflect.DeepEqual(tr, got) {
		t.Error("round trip mismatch")
	}
}

func TestDecodeErrors(t *testing.T) {
	// Bad magic.
	if _, err := Decode(bytes.NewReader([]byte("BOGUS\n\x00\x00"))); err == nil {
		t.Error("Decode accepted bad magic")
	}
	// Truncated stream.
	tr := &Trace{NumItems: 5, Queries: [][]Key{{1, 2, 3}}}
	var buf bytes.Buffer
	if err := tr.Encode(&buf); err != nil {
		t.Fatal(err)
	}
	full := buf.Bytes()
	for cut := 1; cut < len(full); cut++ {
		if _, err := Decode(bytes.NewReader(full[:cut])); err == nil {
			t.Errorf("Decode accepted truncation at %d bytes", cut)
		}
	}
	// Key out of range.
	bad := &Trace{NumItems: 2, Queries: [][]Key{{5}}}
	buf.Reset()
	if err := bad.Encode(&buf); err != nil {
		t.Fatal(err)
	}
	if _, err := Decode(&buf); err == nil {
		t.Error("Decode accepted out-of-range key")
	}
}

func TestFrequencies(t *testing.T) {
	tr := &Trace{NumItems: 4, Queries: [][]Key{{0, 1, 1}, {3}}}
	got := tr.Frequencies()
	want := []int{1, 2, 0, 1}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("Frequencies = %v, want %v", got, want)
	}
}

func TestPoissonMean(t *testing.T) {
	p := testProfile()
	p.MeanQueryLen = 54 // iFashion-scale mean, exercises long-loop path
	p.Queries = 5_000
	tr, err := Generate(p)
	if err != nil {
		t.Fatal(err)
	}
	got := tr.MeanQueryLen()
	if math.Abs(got-54) > 2 {
		t.Errorf("MeanQueryLen = %v, want ~54", got)
	}
}

// Property: arbitrary random traces survive the binary codec unchanged.
func TestEncodeDecodeProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(100)
		tr := &Trace{NumItems: n}
		for q := 0; q < rng.Intn(40); q++ {
			l := rng.Intn(10)
			query := make([]Key, l)
			for j := range query {
				query[j] = Key(rng.Intn(n))
			}
			tr.Queries = append(tr.Queries, query)
		}
		var buf bytes.Buffer
		if err := tr.Encode(&buf); err != nil {
			return false
		}
		got, err := Decode(&buf)
		if err != nil {
			return false
		}
		if got.NumItems != tr.NumItems || len(got.Queries) != len(tr.Queries) {
			return false
		}
		for i := range tr.Queries {
			if len(got.Queries[i]) != len(tr.Queries[i]) {
				return false
			}
			for j := range tr.Queries[i] {
				if got.Queries[i][j] != tr.Queries[i][j] {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}
