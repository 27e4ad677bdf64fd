package server

import (
	"net/http"
	"sync/atomic"
	"time"

	"maxembed/internal/metrics"
	"maxembed/internal/serving"
)

// Cross-request micro-batching: concurrent /v1/lookup requests are gathered
// into small batches and served as one coalesced serving.LookupBatch pass,
// so page reads are shared across queries (§8.2's cross-query duplication
// effect) — the dynamic-batching shape inference servers use. A request
// that arrives alone bypasses batching with zero added wait, so light
// traffic keeps its isolated-serving p50; under load the gather window
// fills and each SSD read serves keys of several queries at once.

// Coalescing defaults; override with WithCoalescing / WithCoalesceQueue.
const (
	defaultMaxBatch      = 8
	defaultMaxWait       = 250 * time.Microsecond
	defaultCoalesceQueue = 1024
)

// lookupOutcome is a finished lookup: a leased response snapshot (keys
// copied, zero-copy buffer views retained, value vectors in the lease's
// arena) or an engine error. The handler encodes from the lease and
// releases it.
type lookupOutcome struct {
	lease  *respLease
	status int
	err    error
}

// coalescer gathers concurrent lookups into micro-batches served on one
// dedicated worker goroutine. Its worker is bound to one engine
// generation; an engine swap makes it re-bind before the next batch.
type coalescer struct {
	h        *Handler
	queue    chan *lookupJob
	quit     chan struct{}
	exited   chan struct{}
	closing  atomic.Bool
	inflight atomic.Int64 // requests submitted and not yet answered
	maxBatch int
	maxWait  time.Duration

	// Owned by the run goroutine.
	w       *serving.Worker
	gen     uint64          // engine generation w was created from
	queries [][]serving.Key // serve's per-batch key lists
	timer   *time.Timer     // gather's window; stopped and drained between uses

	// Observability: batch-size histogram over every dispatch (bypasses
	// count as size 1), wall-clock gather wait per dispatch, and counters.
	batchSizes *metrics.IntHist
	waits      metrics.Recorder
	batches    metrics.Counter // dispatches, bypasses included
	bypasses   metrics.Counter // single-request zero-wait dispatches
	coalesced  metrics.Counter // requests served in batches of ≥ 2
	shed       metrics.Counter // requests rejected because the queue was full
	rebinds    metrics.Counter // worker re-bindings after engine swaps
}

func newCoalescer(h *Handler, maxBatch int, maxWait time.Duration, queueLen int) *coalescer {
	if queueLen < 1 {
		queueLen = defaultCoalesceQueue
	}
	c := &coalescer{
		h:          h,
		queue:      make(chan *lookupJob, queueLen),
		quit:       make(chan struct{}),
		exited:     make(chan struct{}),
		maxBatch:   maxBatch,
		maxWait:    maxWait,
		batchSizes: metrics.NewIntHist(maxBatch),
	}
	return c
}

// submit enqueues a job, reporting false when the queue is full
// (backpressure: the handler sheds the request instead of queueing
// unboundedly). Jobs are never enqueued once shutdown has begun.
func (c *coalescer) submit(job *lookupJob) bool {
	if c.closing.Load() {
		return false
	}
	select {
	case c.queue <- job:
		return true
	default:
		c.shed.Inc()
		return false
	}
}

// run is the coalescer goroutine: it owns one serving worker and loops
// gather → serve until closed, then drains whatever is still queued.
func (c *coalescer) run() {
	defer close(c.exited)
	eng, gen := c.h.handle.Load()
	c.w, c.gen = eng.NewWorker(), gen
	batch := make([]*lookupJob, 0, c.maxBatch)
	for {
		select {
		case job := <-c.queue:
			batch = c.gather(batch[:0], job)
			c.serve(batch)
		case <-c.quit:
			for {
				select {
				case job := <-c.queue:
					batch = c.gather(batch[:0], job)
					c.serve(batch)
				default:
					return
				}
			}
		}
	}
}

// rebind re-creates the worker when an engine swap has retired the one it
// was using, carrying the virtual clock forward so the new engine's
// latency accounting stays on the same timeline.
func (c *coalescer) rebind() {
	eng, gen := c.h.handle.Load()
	if gen == c.gen {
		return
	}
	now := c.w.Now()
	c.w = eng.NewWorker()
	c.w.SetNow(now)
	c.gen = gen
	c.rebinds.Inc()
}

// gather forms one micro-batch starting from first: whatever is already
// queued is taken immediately (up to maxBatch); if that leaves the batch
// at a single request with no other request in flight it is dispatched
// with zero added wait (the light-traffic bypass), otherwise the gather
// window stays open up to maxWait for the batch to fill. The in-flight
// gate matters because service is fast relative to arrival: concurrent
// requests rarely queue up behind each other, so "queue momentarily
// empty" must not be read as "traffic is light".
func (c *coalescer) gather(batch []*lookupJob, first *lookupJob) []*lookupJob {
	start := c.h.now()
	batch = append(batch, first)
	for len(batch) < c.maxBatch {
		select {
		case job := <-c.queue:
			batch = append(batch, job)
			continue
		default:
		}
		break
	}
	if len(batch) == 1 && c.inflight.Load() <= 1 {
		c.bypasses.Inc()
		c.waits.Record(0)
		return batch
	}
	if len(batch) < c.maxBatch && c.maxWait > 0 {
		if c.timer == nil {
			c.timer = time.NewTimer(c.maxWait)
		} else {
			c.timer.Reset(c.maxWait)
		}
		for len(batch) < c.maxBatch {
			select {
			case job := <-c.queue:
				batch = append(batch, job)
			case <-c.timer.C:
				c.waits.Record(c.h.now().Sub(start).Nanoseconds())
				return batch
			}
		}
		// Stop-and-drain: the timer may have fired between the last
		// receive and Stop, leaving a value in timer.C that the next
		// gather's Reset would otherwise inherit as an instant expiry.
		if !c.timer.Stop() {
			select {
			case <-c.timer.C:
			default:
			}
		}
	}
	c.waits.Record(c.h.now().Sub(start).Nanoseconds())
	return batch
}

// serve runs one coalesced pass over the batch and scatters responses back
// to the waiting handlers. Leases are taken here — buffer views retained,
// value vectors copied — because the worker's scratch is reused by the
// next batch the moment this returns; the waiting handler goroutines then
// encode their responses concurrently from the leases.
func (c *coalescer) serve(batch []*lookupJob) {
	h := c.h
	c.rebind()
	c.batches.Inc()
	c.batchSizes.Add(len(batch))
	if len(batch) >= 2 {
		c.coalesced.Add(int64(len(batch)))
	}

	c.queries = c.queries[:0]
	for _, job := range batch {
		c.queries = append(c.queries, job.keys)
	}
	br, err := c.w.LookupBatch(c.queries)
	if err != nil {
		for _, job := range batch {
			job.done <- lookupOutcome{err: err}
		}
		return
	}
	st := br.Stats.Combined
	h.window.Observe(int64(st.ReadFaults), int64(st.PagesRead+st.Retries))
	for i, job := range batch {
		lease := newLease(br.PerQuery[i])
		status := http.StatusOK
		if lease.degraded {
			status = http.StatusPartialContent
		}
		job.done <- lookupOutcome{lease: lease, status: status}
	}
}

// close stops the coalescer and waits for it to drain and exit.
func (c *coalescer) close() {
	if c.closing.Swap(true) {
		<-c.exited
		return
	}
	close(c.quit)
	<-c.exited
}

// CoalescerStats is the coalescer's slice of /v1/stats; Enabled false (and
// zero counters) when the server serves every request in isolation.
type CoalescerStats struct {
	Enabled       bool    `json:"enabled"`
	MaxBatch      int     `json:"max_batch"`
	MaxWaitNS     int64   `json:"max_wait_ns"`
	Batches       int64   `json:"batches" prom:"batches_total,counter"`
	Bypasses      int64   `json:"bypasses" prom:"bypass_total,counter"`
	Coalesced     int64   `json:"coalesced_requests" prom:"requests_total,counter"`
	Shed          int64   `json:"shed" prom:"shed_total,counter"`
	Rebinds       int64   `json:"rebinds"`
	MeanBatchSize float64 `json:"mean_batch_size" prom:"batch_size_mean,gauge"`
	WaitP50NS     int64   `json:"wait_p50_ns"`
	WaitP99NS     int64   `json:"wait_p99_ns" prom:"wait_p99_ns,gauge"`
	// BatchSizes is the distribution over every dispatch, bypasses included.
	BatchSizes *metrics.Histogram `json:"-" prom:"batch_size,histogram"`
}

// stats snapshots the coalescer's counters.
func (c *coalescer) stats() CoalescerStats {
	ws := c.waits.Snapshot()
	sizes := c.batchSizes.Snapshot()
	return CoalescerStats{
		Enabled:       true,
		MaxBatch:      c.maxBatch,
		MaxWaitNS:     c.maxWait.Nanoseconds(),
		Batches:       c.batches.Load(),
		Bypasses:      c.bypasses.Load(),
		Coalesced:     c.coalesced.Load(),
		Shed:          c.shed.Load(),
		Rebinds:       c.rebinds.Load(),
		MeanBatchSize: c.batchSizes.Mean(),
		WaitP50NS:     ws.Quantile(0.50),
		WaitP99NS:     ws.Quantile(0.99),
		BatchSizes:    &sizes,
	}
}
