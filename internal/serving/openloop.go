package serving

import (
	"container/heap"
	"fmt"

	"maxembed/internal/metrics"
)

// OpenLoopResult reports an open-loop (fixed offered load) run. Unlike the
// closed-loop Run, latency here includes queueing delay: a query that
// arrives while every worker is busy waits, so driving the system past its
// capacity knee blows up tail latency — the standard serving-curve view.
type OpenLoopResult struct {
	// OfferedQPS is the arrival rate driven; AchievedQPS what completed.
	OfferedQPS, AchievedQPS float64
	// Latency is arrival-to-completion (queueing + service).
	Latency metrics.LatencySummary
	// PagesRead counts SSD reads.
	PagesRead int64
	// MeanMaxShardDepth is the mean per-query max-shard read depth over
	// the run (see RunResult.MeanMaxShardDepth).
	MeanMaxShardDepth float64
	// Saturated reports whether the backlog grew monotonically (offered
	// load above capacity).
	Saturated bool
}

// workerHeap orders workers by the virtual time they become free.
type workerHeap []*Worker

func (h workerHeap) Len() int           { return len(h) }
func (h workerHeap) Less(i, j int) bool { return h[i].now < h[j].now }
func (h workerHeap) Swap(i, j int)      { h[i], h[j] = h[j], h[i] }
func (h *workerHeap) Push(x any)        { *h = append(*h, x.(*Worker)) }
func (h *workerHeap) Pop() any          { old := *h; n := len(old); x := old[n-1]; *h = old[:n-1]; return x }

// RunOpenLoop drives the queries at a fixed arrival rate (evenly spaced,
// offeredQPS arrivals per virtual second) into a pool of workers. Each
// query is dispatched to the earliest-free worker and starts at
// max(arrival, worker free); recorded latency spans from arrival.
func RunOpenLoop(e *Engine, queries [][]Key, workers int, offeredQPS float64) (OpenLoopResult, error) {
	var res OpenLoopResult
	if offeredQPS <= 0 {
		return res, fmt.Errorf("serving: offeredQPS must be positive, got %v", offeredQPS)
	}
	if workers < 1 {
		workers = 1
	}
	e.be.Reset()
	e.Latency.Reset()
	e.ValidPerRead.Reset()
	e.SpreadDepth.Reset()
	if e.cache != nil {
		e.cache.ResetStats()
	}

	h := make(workerHeap, workers)
	for i := range h {
		h[i] = e.NewWorker()
	}
	heap.Init(&h)

	interArrival := 1e9 / offeredQPS
	lats := make([]int64, 0, len(queries))
	var lastBacklog, backlogGrowth int64
	for i, q := range queries {
		arrival := int64(float64(i) * interArrival)
		w := heap.Pop(&h).(*Worker)
		if w.now < arrival {
			w.now = arrival // worker idles until the query arrives
		}
		backlog := w.now - arrival // queueing delay
		if backlog > lastBacklog {
			backlogGrowth++
		}
		lastBacklog = backlog
		r, err := w.Lookup(q)
		if err != nil {
			return res, fmt.Errorf("serving: open-loop query %d: %w", i, err)
		}
		lats = append(lats, r.Stats.EndNS-arrival)
		res.PagesRead += int64(r.Stats.PagesRead)
		heap.Push(&h, w)
	}
	var makespan int64
	for _, w := range h {
		if w.now > makespan {
			makespan = w.now
		}
	}
	res.OfferedQPS = offeredQPS
	res.AchievedQPS = metrics.PerSecond(int64(len(queries)), makespan)
	res.MeanMaxShardDepth = e.SpreadDepth.Mean()
	res.Latency = metrics.Summarize(lats)
	// Saturation heuristic: the queueing delay grew on most dispatches.
	res.Saturated = backlogGrowth > int64(len(queries))*3/4
	return res, nil
}
