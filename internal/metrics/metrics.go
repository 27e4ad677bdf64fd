// Package metrics provides the measurement primitives: event counters and a
// rolling failure-rate window, the fixed-size latency histogram a server
// records into (Recorder) and the exact summary the bounded evaluation
// runs use (Summarize), integer histograms (for Fig 9's
// valid-embeddings-per-read CDF), effective-bandwidth arithmetic, and the
// renderer of /metrics: a walk over snapshot structs whose fields are
// tagged with their Prometheus names (prom.go).
package metrics

import (
	"fmt"
	"math/bits"
	"slices"
	"sync"
	"sync/atomic"
	"time"
)

// Counter is a monotonically increasing event counter, safe for concurrent
// use. The zero value is ready.
type Counter struct{ v atomic.Int64 }

// Add increments the counter by n.
func (c *Counter) Add(n int64) { c.v.Add(n) }

// Inc increments the counter by one.
func (c *Counter) Inc() { c.v.Add(1) }

// Load returns the current count.
func (c *Counter) Load() int64 { return c.v.Load() }

// Reset zeroes the counter.
func (c *Counter) Reset() { c.v.Store(0) }

// RateWindow tracks a failure rate over a rolling window of the last n
// observation batches — e.g. (failed reads, total reads) per served query —
// so a burst of old errors ages out instead of poisoning a long-lived
// process's health forever. It is safe for concurrent use.
type RateWindow struct {
	mu      sync.Mutex
	fail    []int64
	total   []int64
	idx     int
	filled  int
	sumFail int64
	sumTot  int64
}

// NewRateWindow returns a window over the last n observations (n clamped
// to at least 1).
func NewRateWindow(n int) *RateWindow {
	if n < 1 {
		n = 1
	}
	return &RateWindow{fail: make([]int64, n), total: make([]int64, n)}
}

// Observe records one batch of total events, fail of which failed.
func (w *RateWindow) Observe(fail, total int64) {
	w.mu.Lock()
	w.sumFail += fail - w.fail[w.idx]
	w.sumTot += total - w.total[w.idx]
	w.fail[w.idx] = fail
	w.total[w.idx] = total
	w.idx = (w.idx + 1) % len(w.fail)
	if w.filled < len(w.fail) {
		w.filled++
	}
	w.mu.Unlock()
}

// Rate returns the failure fraction over the window and the number of
// events it covers. An empty window reports (0, 0).
func (w *RateWindow) Rate() (rate float64, events int64) {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.sumTot <= 0 {
		return 0, 0
	}
	return float64(w.sumFail) / float64(w.sumTot), w.sumTot
}

// Reset clears the window.
func (w *RateWindow) Reset() {
	w.mu.Lock()
	for i := range w.fail {
		w.fail[i], w.total[i] = 0, 0
	}
	w.idx, w.filled, w.sumFail, w.sumTot = 0, 0, 0, 0
	w.mu.Unlock()
}

// Recorder geometry: ×2 groups from 1 µs to 16.8 s — the bounds the
// read-latency histogram has always exported — with one group below for
// sub-microsecond samples and one bucket above for everything longer, each
// group split into histSub linear sub-buckets. A sub-bucket is 1/16 of its
// group's lower bound wide, so the midpoint a quantile reports is within
// 1/32 ≈ 3.1 % of any sample in it.
const (
	histSub     = 16
	histGroups  = 25 // [0, 1 µs), then [1 µs<<(g-1), 1 µs<<g) for g = 1…24
	histBuckets = histGroups*histSub + 1
)

// Recorder is a latency histogram (nanoseconds) of fixed size: recording
// takes no lock and allocates nothing, however many samples it absorbs.
// Count, mean and max are exact; quantiles are exact to the sub-bucket
// (within 4 % between 1 µs and 16.8 s). Negative samples count as 0. The
// zero value is ready, and it is safe for concurrent use.
type Recorder struct {
	buckets [histBuckets]atomic.Int64
	sum     atomic.Int64
	max     atomic.Int64
}

// bucketOf returns the bucket of a non-negative sample.
func bucketOf(ns int64) int {
	us := uint64(ns) / 1000
	if us == 0 {
		return int(ns) * histSub / 1000
	}
	g := bits.Len64(us)
	if g >= histGroups {
		return histBuckets - 1
	}
	lo := int64(1000) << (g - 1)
	return g*histSub + int((ns-lo)*histSub/lo)
}

// bucketBounds returns the [lo, hi) of bucket i, overflow excluded, in
// nanoseconds.
func bucketBounds(i int) (lo, hi float64) {
	g, sub := i/histSub, float64(i%histSub)
	base, width := 0.0, 1000.0/histSub
	if g > 0 {
		base = float64(int64(1000) << (g - 1))
		width = base / histSub
	}
	return base + sub*width, base + (sub+1)*width
}

// Record adds one sample.
func (r *Recorder) Record(ns int64) {
	ns = max(ns, 0)
	r.buckets[bucketOf(ns)].Add(1)
	r.sum.Add(ns)
	for m := r.max.Load(); ns > m && !r.max.CompareAndSwap(m, ns); m = r.max.Load() {
	}
}

// Snapshot copies the histogram as it stands.
func (r *Recorder) Snapshot() LatencyHist {
	h := LatencyHist{SumNS: r.sum.Load(), MaxNS: r.max.Load()}
	for i := range r.buckets {
		h.buckets[i] = r.buckets[i].Load()
		h.Count += h.buckets[i]
	}
	return h
}

// Reset discards all samples.
func (r *Recorder) Reset() {
	for i := range r.buckets {
		r.buckets[i].Store(0)
	}
	r.sum.Store(0)
	r.max.Store(0)
}

// LatencyHist is a Recorder's state as plain values. Two of them merge by
// addition, which is how a latency distribution outlives the engine that
// recorded it.
type LatencyHist struct {
	Count   int64
	SumNS   int64
	MaxNS   int64
	buckets [histBuckets]int64
}

// Add merges o into h: the result is what one Recorder would hold had it
// seen both sample streams.
func (h *LatencyHist) Add(o LatencyHist) {
	h.Count += o.Count
	h.SumNS += o.SumNS
	h.MaxNS = max(h.MaxNS, o.MaxNS)
	for i, c := range o.buckets {
		h.buckets[i] += c
	}
}

// Quantile returns the nearest-rank q-quantile (the rank Summarize picks)
// as the midpoint of the sub-bucket holding it, never above the exact
// maximum; a rank in the overflow bucket reports the maximum.
func (h LatencyHist) Quantile(q float64) int64 {
	rank := min(max(int64(q*float64(h.Count)), 1), h.Count)
	var cum int64
	for i, c := range h.buckets {
		if cum += c; cum >= rank && c > 0 {
			if i == histBuckets-1 {
				break
			}
			lo, hi := bucketBounds(i)
			return min(int64((lo+hi)/2), h.MaxNS)
		}
	}
	return h.MaxNS
}

// Summary reports the distribution the way Summarize does, with bucketed
// percentiles.
func (h LatencyHist) Summary() LatencySummary {
	s := LatencySummary{Count: int(h.Count), MaxNS: h.MaxNS}
	if h.Count == 0 {
		return s
	}
	s.MeanNS = float64(h.SumNS) / float64(h.Count)
	s.P50NS, s.P90NS, s.P99NS = h.Quantile(0.50), h.Quantile(0.90), h.Quantile(0.99)
	return s
}

// Histogram sums the sub-buckets of each group: 24 upper bounds from 1 µs
// to 8.4 s in ×2 steps, in nanoseconds, and everything above under +Inf.
func (h LatencyHist) Histogram() Histogram {
	out := Histogram{
		Upper:  make([]float64, histGroups-1),
		Counts: make([]int64, histGroups),
		Sum:    float64(h.SumNS),
	}
	for g := range out.Upper {
		out.Upper[g] = float64(int64(1000) << g)
	}
	for i, c := range h.buckets {
		out.Counts[min(i/histSub, histGroups-1)] += c
	}
	return out
}

// Histogram is a histogram snapshot in the shape Prometheus exposes one:
// Counts[i] samples were ≤ Upper[i] and above the bound before it; the last
// count, one past Upper, is the +Inf bucket.
type Histogram struct {
	Upper  []float64
	Counts []int64
	Sum    float64
}

// LatencySummary reports distribution statistics over latency samples.
type LatencySummary struct {
	Count  int     `json:"count"`
	MeanNS float64 `json:"mean_ns"`
	P50NS  int64   `json:"p50_ns"`
	P90NS  int64   `json:"p90_ns"`
	P99NS  int64   `json:"p99_ns" prom:"p99_ns,gauge"`
	MaxNS  int64   `json:"max_ns"`
}

// String renders the summary compactly in microseconds.
func (s LatencySummary) String() string {
	return fmt.Sprintf("n=%d mean=%.1fµs p50=%.1fµs p90=%.1fµs p99=%.1fµs max=%.1fµs",
		s.Count, s.MeanNS/1e3, float64(s.P50NS)/1e3, float64(s.P90NS)/1e3,
		float64(s.P99NS)/1e3, float64(s.MaxNS)/1e3)
}

// Summarize reports exact statistics over samples, sorting them in place.
// The experiment harnesses use it: their runs are bounded and their tables
// need exact, reproducible percentiles.
func Summarize(samples []int64) LatencySummary {
	var s LatencySummary
	s.Count = len(samples)
	if s.Count == 0 {
		return s
	}
	slices.Sort(samples)
	var sum int64
	for _, v := range samples {
		sum += v
	}
	s.MeanNS = float64(sum) / float64(s.Count)
	s.P50NS = percentile(samples, 0.50)
	s.P90NS = percentile(samples, 0.90)
	s.P99NS = percentile(samples, 0.99)
	s.MaxNS = samples[len(samples)-1]
	return s
}

// percentile returns the nearest-rank percentile of sorted samples.
func percentile(sorted []int64, q float64) int64 {
	idx := min(max(int(q*float64(len(sorted)))-1, 0), len(sorted)-1)
	return sorted[idx]
}

// IntHist is a histogram over small non-negative integers, e.g. the number
// of valid embeddings obtained per page read (bounded by page capacity).
// Adding takes no lock; it is safe for concurrent use.
type IntHist struct {
	counts   []atomic.Int64
	overflow atomic.Int64 // values outside [0, len(counts)-1]
	sum      atomic.Int64
}

// NewIntHist returns a histogram for values in [0, max]; larger values are
// clamped into an overflow bucket but still contribute to Mean.
func NewIntHist(max int) *IntHist {
	if max < 0 {
		max = 0
	}
	return &IntHist{counts: make([]atomic.Int64, max+1)}
}

// Add records one value.
func (h *IntHist) Add(v int) {
	if v >= 0 && v < len(h.counts) {
		h.counts[v].Add(1)
	} else {
		h.overflow.Add(1)
	}
	h.sum.Add(int64(v))
}

// Snapshot copies the histogram: one bucket per value, overflow under +Inf.
func (h *IntHist) Snapshot() Histogram {
	out := Histogram{
		Upper:  make([]float64, len(h.counts)),
		Counts: make([]int64, len(h.counts)+1),
		Sum:    float64(h.sum.Load()),
	}
	for v := range h.counts {
		out.Upper[v] = float64(v)
		out.Counts[v] = h.counts[v].Load()
	}
	out.Counts[len(h.counts)] = h.overflow.Load()
	return out
}

// Count returns the number of recorded values.
func (h *IntHist) Count() int64 {
	n := h.overflow.Load()
	for i := range h.counts {
		n += h.counts[i].Load()
	}
	return n
}

// Mean returns the mean recorded value, or 0 if empty.
func (h *IntHist) Mean() float64 {
	n := h.Count()
	if n == 0 {
		return 0
	}
	return float64(h.sum.Load()) / float64(n)
}

// Bucket returns the count of value v (0 for out-of-range v).
func (h *IntHist) Bucket(v int) int64 {
	if v < 0 || v >= len(h.counts) {
		return 0
	}
	return h.counts[v].Load()
}

// CDF returns, for each value v in [0, max], the fraction of recorded
// values ≤ v. Overflow values only register at the final bucket implicitly
// (the CDF then tops out below 1).
func (h *IntHist) CDF() []float64 {
	out := make([]float64, len(h.counts))
	total := h.Count()
	if total == 0 {
		return out
	}
	var cum int64
	for v := range h.counts {
		cum += h.counts[v].Load()
		out[v] = float64(cum) / float64(total)
	}
	return out
}

// Reset clears the histogram.
func (h *IntHist) Reset() {
	for i := range h.counts {
		h.counts[i].Store(0)
	}
	h.overflow.Store(0)
	h.sum.Store(0)
}

// BytesPerSecond converts (bytes, elapsed virtual ns) to a rate. Returns 0
// for non-positive elapsed time.
func BytesPerSecond(bytes int64, elapsedNS int64) float64 {
	if elapsedNS <= 0 {
		return 0
	}
	return float64(bytes) / (float64(elapsedNS) / float64(time.Second))
}

// PerSecond converts (count, elapsed virtual ns) to a rate, e.g. queries
// per second. Returns 0 for non-positive elapsed time.
func PerSecond(count int64, elapsedNS int64) float64 {
	if elapsedNS <= 0 {
		return 0
	}
	return float64(count) / (float64(elapsedNS) / float64(time.Second))
}

// Utilization returns achieved/capacity clamped to [0, 1] for sane inputs;
// capacity ≤ 0 yields 0.
func Utilization(achieved, capacity float64) float64 {
	if capacity <= 0 {
		return 0
	}
	return achieved / capacity
}
