package metrics

import (
	"fmt"
	"math"
	"math/rand"
	"sync"
	"testing"
	"time"
	"unsafe"
)

// within reports whether got is within frac of want.
func within(got, want int64, frac float64) bool {
	return math.Abs(float64(got-want)) <= frac*float64(want)
}

// checkAgainstSummarize records samples and holds the Recorder to its
// contract: count, mean and max exact, every quantile within 4 % of the
// exact one Summarize picks.
func checkAgainstSummarize(t *testing.T, name string, samples []int64) {
	t.Helper()
	var r Recorder
	for _, v := range samples {
		r.Record(v)
	}
	got, want := r.Snapshot().Summary(), Summarize(samples)
	if got.Count != want.Count || got.MeanNS != want.MeanNS || got.MaxNS != want.MaxNS {
		t.Errorf("%s: count/mean/max = %d/%v/%d, want exactly %d/%v/%d",
			name, got.Count, got.MeanNS, got.MaxNS, want.Count, want.MeanNS, want.MaxNS)
	}
	for _, q := range []struct {
		name      string
		got, want int64
	}{{"p50", got.P50NS, want.P50NS}, {"p90", got.P90NS, want.P90NS}, {"p99", got.P99NS, want.P99NS}} {
		if !within(q.got, q.want, 0.04) {
			t.Errorf("%s: %s = %d, exact %d: off by more than 4%%", name, q.name, q.got, q.want)
		}
	}
}

func TestRecorderSummary(t *testing.T) {
	samples := make([]int64, 100)
	for i := range samples {
		samples[i] = int64(i+1) * 1000
	}
	checkAgainstSummarize(t, "1..100 µs", samples)
	var r Recorder
	for _, v := range samples {
		r.Record(v)
	}
	if r.Snapshot().Summary().String() == "" {
		t.Error("String empty")
	}
	r.Reset()
	if s := r.Snapshot(); s.Count != 0 || s.MaxNS != 0 || s.SumNS != 0 {
		t.Errorf("after Reset: %+v", s.Summary())
	}
}

// TestSummarize pins the harnesses' exact nearest-rank percentiles.
func TestSummarize(t *testing.T) {
	samples := make([]int64, 100)
	for i := range samples {
		samples[i] = int64(100-i) * 1000 // descending: Summarize sorts
	}
	want := LatencySummary{Count: 100, MeanNS: 50_500, P50NS: 50_000, P90NS: 90_000, P99NS: 99_000, MaxNS: 100_000}
	if got := Summarize(samples); got != want {
		t.Errorf("Summarize = %+v, want %+v", got, want)
	}
	if got := Summarize(nil); got != (LatencySummary{}) {
		t.Errorf("Summarize(nil) = %+v", got)
	}
	if got := Summarize([]int64{42}); got.P50NS != 42 || got.P99NS != 42 || got.MaxNS != 42 {
		t.Errorf("single sample = %+v", got)
	}
}

// TestRecorderQuantileBound: the 4 % bound holds over the whole range the
// ×2 groups span, on a flat, a heavy-tailed and a degenerate distribution.
func TestRecorderQuantileBound(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	const lo, hi = 1000, 1000 << 24
	uniform := make([]int64, 20000)
	for i := range uniform {
		uniform[i] = lo + rng.Int63n(hi-lo)
	}
	checkAgainstSummarize(t, "uniform", uniform)
	for _, median := range []float64{3e3, 150e3, 40e6} {
		logNormal := make([]int64, 20000)
		for i := range logNormal {
			v := int64(median * math.Exp(rng.NormFloat64()))
			logNormal[i] = min(max(v, lo), hi-1)
		}
		checkAgainstSummarize(t, fmt.Sprintf("log-normal around %g ns", median), logNormal)
	}
	for _, v := range []int64{lo, 1999, 2000, 123_456, 1 << 30, hi - 1} {
		checkAgainstSummarize(t, fmt.Sprintf("all %d", v), []int64{v, v, v, v, v})
	}
}

// TestRecorderEdges: below 1 µs a quantile is within one 62.5 ns
// sub-bucket of the exact one, with 0 and negative samples in the first;
// from 16.8 s up every sample shares the overflow bucket and a quantile
// landing there reports the exact maximum.
func TestRecorderEdges(t *testing.T) {
	var r Recorder
	small := []int64{-5, 0, 1, 61, 63, 400, 437, 438, 999}
	for _, v := range small {
		r.Record(v)
	}
	s := r.Snapshot()
	if s.buckets[0] != 4 || s.buckets[1] != 1 || s.buckets[histSub-1] != 1 {
		t.Errorf("sub-microsecond buckets: first %d (want 4: -5, 0, 1, 61), second %d (want 1), last %d (want 1)",
			s.buckets[0], s.buckets[1], s.buckets[histSub-1])
	}
	if s.SumNS != 0+0+1+61+63+400+437+438+999 || s.MaxNS != 999 {
		t.Errorf("sum/max = %d/%d: a negative sample counts as 0", s.SumNS, s.MaxNS)
	}
	for _, q := range []float64{0.2, 0.5, 0.7, 0.99} {
		got := s.Quantile(q)
		want := max(percentile(append([]int64(nil), small...), q), 0)
		if math.Abs(float64(got-want)) > 1000.0/histSub {
			t.Errorf("q%v = %d, exact %d: more than one sub-bucket apart", q, got, want)
		}
	}

	r.Reset()
	const edge = 1000 << 24 // 16.8 s
	for _, v := range []int64{edge - 1, edge, 3 * edge, math.MaxInt64 / 4} {
		r.Record(v)
	}
	s = r.Snapshot()
	if s.buckets[histBuckets-1] != 3 || s.buckets[histBuckets-2] != 1 {
		t.Errorf("overflow bucket holds %d (want 3), the last finite one %d (want 1)",
			s.buckets[histBuckets-1], s.buckets[histBuckets-2])
	}
	if s.MaxNS != math.MaxInt64/4 || s.Quantile(0.99) != s.MaxNS || s.Quantile(0.5) != s.MaxNS {
		t.Errorf("max %d, p50 %d, p99 %d: a rank in the overflow bucket reports the exact max", s.MaxNS, s.Quantile(0.5), s.Quantile(0.99))
	}
	if !within(s.Quantile(0.25), edge-1, 0.04) {
		t.Errorf("p25 = %d, want within 4%% of %d", s.Quantile(0.25), edge-1)
	}
}

// TestBucketGeometry: every bucket's bounds contain exactly the samples
// bucketOf sends there, and the groups are the ×2 steps from 1 µs.
func TestBucketGeometry(t *testing.T) {
	prevHi := 0.0
	for i := 0; i < histBuckets-1; i++ {
		lo, hi := bucketBounds(i)
		if lo != prevHi || hi <= lo {
			t.Fatalf("bucket %d = [%v, %v), previous ended at %v", i, lo, hi, prevHi)
		}
		prevHi = hi
		first, last := int64(math.Ceil(lo)), int64(math.Ceil(hi))-1
		if bucketOf(first) != i || bucketOf(last) != i {
			t.Fatalf("bucket %d = [%v, %v): bucketOf(%d) = %d, bucketOf(%d) = %d",
				i, lo, hi, first, bucketOf(first), last, bucketOf(last))
		}
		if i%histSub == 0 && i > 0 && lo != float64(int64(1000)<<(i/histSub-1)) {
			t.Fatalf("group %d starts at %v", i/histSub, lo)
		}
	}
	if prevHi != 1000<<24 || bucketOf(1000<<24) != histBuckets-1 {
		t.Fatalf("finite buckets end at %v; 16.8 s lands in bucket %d of %d", prevHi, bucketOf(1000<<24), histBuckets)
	}
}

// TestLatencyHistAdd: merging two snapshots equals recording both streams
// into one Recorder.
func TestLatencyHistAdd(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	var a, b, both Recorder
	for i := 0; i < 5000; i++ {
		v := int64(math.Exp(rng.Float64() * 24)) // 1 ns … 26 s
		if i%3 == 0 {
			a.Record(v)
		} else {
			b.Record(v)
		}
		both.Record(v)
	}
	merged := a.Snapshot()
	merged.Add(b.Snapshot())
	if merged != both.Snapshot() {
		t.Errorf("merge(a, b) = %+v, want %+v", merged.Summary(), both.Snapshot().Summary())
	}
}

// TestLatencyHistHistogram: the exported shape is the 24 bounds the
// read-latency histogram has always had, sub-buckets summed per group.
func TestLatencyHistHistogram(t *testing.T) {
	var r Recorder
	for _, v := range []int64{0, 999, 1000, 1999, 2000, 5_000_000, 1000 << 23, 1000 << 24, 1 << 62} {
		r.Record(v)
	}
	h := r.Snapshot().Histogram()
	if len(h.Upper) != 24 || len(h.Counts) != 25 || h.Upper[0] != 1000 || h.Upper[23] != 1000<<23 {
		t.Fatalf("bounds: %d upper (first %v, last %v), %d counts", len(h.Upper), h.Upper[0], h.Upper[len(h.Upper)-1], len(h.Counts))
	}
	// 5 ms is in [4.096, 8.192) ms: upper bound 1 µs << 13.
	want := map[int]int64{0: 2, 1: 2, 2: 1, 13: 1, 24: 3}
	for i, c := range h.Counts {
		if c != want[i] {
			t.Errorf("bucket %d holds %d, want %d", i, c, want[i])
		}
	}
	if h.Sum != float64(r.Snapshot().SumNS) {
		t.Errorf("sum = %v, want %d", h.Sum, r.Snapshot().SumNS)
	}
}

func TestRecorderEmpty(t *testing.T) {
	var r Recorder
	s := r.Snapshot().Summary()
	if s.Count != 0 || s.MeanNS != 0 || s.P99NS != 0 {
		t.Errorf("empty summary = %+v", s)
	}
}

func TestRecorderSingleSample(t *testing.T) {
	var r Recorder
	r.Record(42_000)
	s := r.Snapshot().Summary()
	if !within(s.P50NS, 42_000, 0.04) || s.P50NS != s.P99NS || s.MaxNS != 42_000 || s.MeanNS != 42_000 {
		t.Errorf("single-sample summary = %+v", s)
	}
}

// TestRecorderConcurrent: 8 goroutines × 1 M samples, none lost.
func TestRecorderConcurrent(t *testing.T) {
	perG := int64(1_000_000)
	if testing.Short() {
		perG = 50_000
	}
	var r Recorder
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := int64(0); i < perG; i++ {
				r.Record(i)
			}
		}()
	}
	wg.Wait()
	s := r.Snapshot()
	if s.Count != 8*perG || s.SumNS != 8*perG*(perG-1)/2 || s.MaxNS != perG-1 {
		t.Errorf("count/sum/max = %d/%d/%d, want %d/%d/%d", s.Count, s.SumNS, s.MaxNS, 8*perG, 8*perG*(perG-1)/2, perG-1)
	}
}

// TestRecorderBounded: "bounded" means a Recorder is one fixed-size value
// and recording into it allocates nothing.
func TestRecorderBounded(t *testing.T) {
	if size := unsafe.Sizeof(Recorder{}); size > 16<<10 {
		t.Errorf("Recorder is %d bytes, want under 16 KiB", size)
	}
	var r Recorder
	v := int64(1)
	if n := testing.AllocsPerRun(1000, func() { r.Record(v); v = v*3%(1<<36) + 1 }); n != 0 {
		t.Errorf("Record allocates %v times per call", n)
	}
}

// TestIntHistAddZeroAllocs: the per-page-read histogram allocates nothing,
// in range or in the overflow bucket.
func TestIntHistAddZeroAllocs(t *testing.T) {
	h := NewIntHist(8)
	v := 0
	if n := testing.AllocsPerRun(1000, func() { h.Add(v); v = (v + 1) % 12 }); n != 0 {
		t.Errorf("Add allocates %v times per call", n)
	}
}

func TestIntHistConcurrent(t *testing.T) {
	h := NewIntHist(4)
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 10_000; i++ {
				h.Add(i % 6)
			}
		}()
	}
	wg.Wait()
	snap := h.Snapshot()
	// 10 000 = 1666·6 + 4: values 0…3 once more than 4 and 5 (the overflow).
	if h.Count() != 80_000 || h.Bucket(2) != 8*1667 || snap.Counts[5] != 8*1666 || snap.Sum != h.Mean()*80_000 {
		t.Errorf("count %d, bucket 2 %d, overflow %d, sum %v", h.Count(), h.Bucket(2), snap.Counts[5], snap.Sum)
	}
}

func TestIntHist(t *testing.T) {
	h := NewIntHist(5)
	for v := 0; v <= 5; v++ {
		for i := 0; i <= v; i++ {
			h.Add(v) // value v recorded v+1 times
		}
	}
	if h.Count() != 21 {
		t.Errorf("Count = %d, want 21", h.Count())
	}
	if got := h.Bucket(3); got != 4 {
		t.Errorf("Bucket(3) = %d, want 4", got)
	}
	wantMean := float64(0*1+1*2+2*3+3*4+4*5+5*6) / 21
	if math.Abs(h.Mean()-wantMean) > 1e-9 {
		t.Errorf("Mean = %v, want %v", h.Mean(), wantMean)
	}
	cdf := h.CDF()
	if len(cdf) != 6 {
		t.Fatalf("CDF len = %d", len(cdf))
	}
	if cdf[5] != 1.0 {
		t.Errorf("CDF[5] = %v, want 1", cdf[5])
	}
	for i := 1; i < len(cdf); i++ {
		if cdf[i] < cdf[i-1] {
			t.Error("CDF not monotone")
		}
	}
	h.Reset()
	if h.Count() != 0 || h.Mean() != 0 {
		t.Error("Reset failed")
	}
}

func TestIntHistOverflow(t *testing.T) {
	h := NewIntHist(3)
	h.Add(10)
	h.Add(1)
	if h.Count() != 2 {
		t.Errorf("Count = %d", h.Count())
	}
	cdf := h.CDF()
	if cdf[3] != 0.5 {
		t.Errorf("CDF[3] = %v, want 0.5 (overflow uncounted)", cdf[3])
	}
	if h.Mean() != 5.5 {
		t.Errorf("Mean = %v, want 5.5 (overflow contributes)", h.Mean())
	}
	if h.Bucket(10) != 0 {
		t.Error("Bucket(10) should be 0")
	}
}

func TestIntHistEmptyCDF(t *testing.T) {
	h := NewIntHist(2)
	cdf := h.CDF()
	for _, v := range cdf {
		if v != 0 {
			t.Errorf("empty CDF = %v", cdf)
		}
	}
}

func TestRates(t *testing.T) {
	if got := BytesPerSecond(4096, int64(time.Millisecond)); got != 4096_000 {
		t.Errorf("BytesPerSecond = %v, want 4096000", got)
	}
	if got := PerSecond(500, int64(time.Second)); got != 500 {
		t.Errorf("PerSecond = %v, want 500", got)
	}
	if BytesPerSecond(1, 0) != 0 || PerSecond(1, -5) != 0 {
		t.Error("non-positive elapsed should yield 0")
	}
	if got := Utilization(1, 4); got != 0.25 {
		t.Errorf("Utilization = %v, want 0.25", got)
	}
	if Utilization(1, 0) != 0 {
		t.Error("Utilization with zero capacity should be 0")
	}
}
