package main

import (
	"math"
	"slices"
	"sort"
	"time"
)

// percentile returns the q-quantile (0 ≤ q ≤ 1) of an ascending slice by
// the nearest-rank rule, 0 for an empty slice.
func percentile(sorted []time.Duration, q float64) time.Duration {
	if len(sorted) == 0 {
		return 0
	}
	i := int(math.Ceil(q*float64(len(sorted)))) - 1
	return sorted[min(max(i, 0), len(sorted)-1)]
}

// median returns the middle value (mean of the two middle values for an
// even count), 0 for an empty slice. vals is not modified.
func median(vals []float64) float64 {
	if len(vals) == 0 {
		return 0
	}
	s := append([]float64(nil), vals...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quartiles returns the first and third quartile the way Python's
// statistics.quantiles(vals, n=4) does (exclusive method), so spreads
// computed here match the ones the driver computes. It needs two values;
// with fewer both quartiles are the median.
func quartiles(vals []float64) (q1, q3 float64) {
	if len(vals) < 2 {
		m := median(vals)
		return m, m
	}
	s := append([]float64(nil), vals...)
	sort.Float64s(s)
	cut := func(i int) float64 {
		m := len(s) + 1
		j := min(max(i*m/4, 1), len(s)-1)
		delta := i*m - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return cut(1), cut(3)
}

// metric is one named measurement. A timing metric is computed once per
// measurement window and reported as the median over windows, so that one
// host stall of 100–200 ms lands in one window and cannot move the value;
// Windows keeps the per-window values and MinSamples the smallest number
// of samples any window held.
type metric struct {
	Value      float64   `json:"value"`
	Unit       string    `json:"unit"`
	Windows    []float64 `json:"windows,omitempty"`
	MinSamples int       `json:"min_samples,omitempty"`
}

// windowed returns the metric of per-window (or per-repeat) values.
func windowed(perWindow []float64, minSamples int) metric {
	return metric{Value: median(perWindow), Windows: perWindow, MinSamples: minSamples}
}

// spread returns the distance between the window quartiles as a share of
// the median, 0 when there are not enough windows to say.
func (m metric) spread() float64 {
	if len(m.Windows) < 2 || m.Value == 0 {
		return 0
	}
	q1, q3 := quartiles(m.Windows)
	return math.Abs(q3-q1) / math.Abs(m.Value)
}

// windowStats splits one phase's samples into equal windows by their
// offset from the phase start and computes, per window, the completed
// count and the latency percentiles.
type windowStats struct {
	count    []float64 // completions per window
	p50, p99 []float64 // milliseconds
	minCount int
}

func byWindow(samples []sample, window time.Duration, n int) windowStats {
	lat := make([][]time.Duration, n)
	for _, s := range samples {
		w := int(s.at / window)
		if w >= n {
			w = n - 1 // the request in flight when the phase ended
		}
		lat[w] = append(lat[w], s.lat)
	}
	ws := windowStats{minCount: math.MaxInt}
	for _, l := range lat {
		slices.Sort(l)
		ws.count = append(ws.count, float64(len(l)))
		ws.p50 = append(ws.p50, ms(percentile(l, 0.50)))
		ws.p99 = append(ws.p99, ms(percentile(l, 0.99)))
		ws.minCount = min(ws.minCount, len(l))
	}
	return ws
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }
