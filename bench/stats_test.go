package main

import (
	"math"
	"testing"
	"time"
)

func TestPercentileNearestRank(t *testing.T) {
	var s []time.Duration
	for i := 1; i <= 100; i++ {
		s = append(s, time.Duration(i))
	}
	for _, c := range []struct {
		q    float64
		want time.Duration
	}{{0, 1}, {0.5, 50}, {0.99, 99}, {0.999, 100}, {1, 100}} {
		if got := percentile(s, c.q); got != c.want {
			t.Errorf("percentile(1..100, %v) = %d, want %d", c.q, got, c.want)
		}
	}
	if got := percentile(nil, 0.5); got != 0 {
		t.Errorf("percentile of nothing = %d, want 0", got)
	}
}

func TestMedianAndQuartilesMatchPython(t *testing.T) {
	// statistics.median / statistics.quantiles(v, n=4) of the same lists.
	for _, c := range []struct {
		v           []float64
		med, q1, q3 float64
	}{
		{[]float64{3, 1, 2}, 2, 1, 3},
		{[]float64{4, 1, 3, 2}, 2.5, 1.25, 3.75},
		{[]float64{10, 12, 11, 30, 9, 10.5, 11.5, 10, 12, 13}, 11.25, 10, 12.25},
		{[]float64{7}, 7, 7, 7},
	} {
		if got := median(c.v); got != c.med {
			t.Errorf("median(%v) = %v, want %v", c.v, got, c.med)
		}
		q1, q3 := quartiles(c.v)
		if math.Abs(q1-c.q1) > 1e-9 || math.Abs(q3-c.q3) > 1e-9 {
			t.Errorf("quartiles(%v) = %v, %v, want %v, %v", c.v, q1, q3, c.q1, c.q3)
		}
	}
}

// One window with a stall must not move a metric reported as the median
// over windows.
func TestWindowMedianIgnoresOneStall(t *testing.T) {
	const window = time.Second
	var samples []sample
	for w := 0; w < 5; w++ {
		for i := 0; i < 200; i++ {
			lat := time.Millisecond
			if w == 2 && i >= 150 {
				lat = 150 * time.Millisecond // a host stall inside window 2
			}
			samples = append(samples, sample{at: time.Duration(w)*window + time.Duration(i)*time.Millisecond, lat: lat})
		}
	}
	// The request in flight when the phase ended belongs to the last window.
	samples = append(samples, sample{at: 5*window + time.Millisecond, lat: time.Millisecond})
	ws := byWindow(samples, window, 5)
	if ws.minCount != 200 || ws.count[4] != 201 {
		t.Fatalf("window counts %v, min %d", ws.count, ws.minCount)
	}
	if ws.p99[2] != 150 {
		t.Errorf("stalled window p99 = %v ms, want 150", ws.p99[2])
	}
	if got := median(ws.p99); got != 1 {
		t.Errorf("median-of-windows p99 = %v ms, want 1", got)
	}
}

// fakeClock advances only when slept on.
type fakeClock struct {
	now    time.Time
	sleeps []time.Duration
}

func (c *fakeClock) Now() time.Time { return c.now }
func (c *fakeClock) Sleep(d time.Duration) {
	c.sleeps = append(c.sleeps, d)
	c.now = c.now.Add(d)
}

func TestPacerSchedulesFromStartNotFromSend(t *testing.T) {
	clk := &fakeClock{now: time.Unix(1000, 0)}
	start := clk.now
	p := newPacer(clk, 100, 50*time.Millisecond) // one request every 10 ms, five in all
	if got := p.scheduled(); got != 5 {
		t.Fatalf("scheduled = %d, want 5", got)
	}
	// Request 0 is due at once; request 1 after a 10 ms sleep.
	for i := int64(0); i < 2; i++ {
		idx, due, ok := p.take()
		if !ok || idx != i || !due.Equal(start.Add(time.Duration(i)*10*time.Millisecond)) {
			t.Fatalf("take %d = (%d, %v, %v)", i, idx, due.Sub(start), ok)
		}
	}
	if len(clk.sleeps) != 1 || clk.sleeps[0] != 10*time.Millisecond {
		t.Fatalf("sleeps = %v, want one of 10ms", clk.sleeps)
	}
	// The server stalls for 25 ms: requests 2 and 3 are already late, are
	// handed out without sleeping, and keep their original due times, so
	// their latency counts the stall.
	clk.now = clk.now.Add(25 * time.Millisecond)
	for i := int64(2); i < 4; i++ {
		idx, due, ok := p.take()
		if !ok || idx != i || !due.Equal(start.Add(time.Duration(i)*10*time.Millisecond)) {
			t.Fatalf("late take %d = (%d, %v, %v)", i, idx, due.Sub(start), ok)
		}
		if lag := clk.now.Sub(due); lag <= 0 {
			t.Errorf("request %d not late (lag %v)", i, lag)
		}
	}
	if len(clk.sleeps) != 1 {
		t.Errorf("late requests slept: %v", clk.sleeps)
	}
	// Request 4 is due at 40 ms, 5 ms away.
	if _, _, ok := p.take(); !ok || clk.sleeps[len(clk.sleeps)-1] != 5*time.Millisecond {
		t.Fatalf("request 4: ok=%v sleeps=%v", ok, clk.sleeps)
	}
	// Nothing is due before the end any more.
	if _, _, ok := p.take(); ok {
		t.Error("take handed out a request due at the phase end")
	}
}

func TestPacerStopsAtPhaseEndLeavingBacklog(t *testing.T) {
	clk := &fakeClock{now: time.Unix(1000, 0)}
	p := newPacer(clk, 100, 50*time.Millisecond)
	p.take()
	clk.now = clk.now.Add(time.Second) // the phase ended while request 0 was out
	if i, _, ok := p.take(); ok {
		t.Errorf("request %d handed out after the phase ended", i)
	}
}
