package server

import (
	"errors"
	"sync/atomic"

	"maxembed/internal/metrics"
	"maxembed/internal/serving"
)

// Cross-request micro-batching: concurrent /v1/lookup requests are gathered
// into small batches and served as one coalesced serving.LookupBatch pass,
// so page reads are shared across queries (§8.2's cross-query duplication
// effect) — the dynamic-batching shape inference servers use. Nothing waits
// for a batch to fill: a batch is whatever queued up while the previous one
// was on the SSD, so batches grow exactly when the device is the
// bottleneck and a request that arrives alone is served alone, at once.
// See DESIGN.md §10.

// Coalescing defaults; override with WithCoalescing / WithCoalesceQueue.
const (
	defaultMaxBatch      = 8
	defaultCoalesceQueue = 1024
)

// What coalescer.do answers without having served the request.
var (
	errCoalesceQueueFull = errors.New("coalesce queue full")
	errCoalescerClosed   = errors.New("coalescer closed")
)

// lookupOutcome is a finished lookup: a leased response snapshot (keys
// copied, zero-copy buffer views retained, value vectors in the lease's
// arena) or an engine error. The handler encodes from the lease and
// releases it.
type lookupOutcome struct {
	lease *respLease
	err   error
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
	maxBatch int

	// Owned by the run goroutine.
	w       *serving.Worker
	gen     uint64          // engine generation w was created from
	queries [][]serving.Key // serve's per-batch key lists

	// Observability: batch-size histogram over every dispatch (bypasses
	// count as size 1), wall-clock gather time per dispatch, and counters.
	batchSizes *metrics.IntHist
	waits      metrics.Recorder
	batches    metrics.Counter // dispatches, bypasses included
	bypasses   metrics.Counter // single-request dispatches
	coalesced  metrics.Counter // requests served in batches of ≥ 2
	shed       metrics.Counter // requests rejected because the queue was full
	rebinds    metrics.Counter // worker re-bindings after engine swaps
}

func newCoalescer(h *Handler, maxBatch, queueLen int) *coalescer {
	if queueLen < 1 {
		queueLen = defaultCoalesceQueue
	}
	c := &coalescer{
		h:          h,
		queue:      make(chan *lookupJob, queueLen),
		quit:       make(chan struct{}),
		exited:     make(chan struct{}),
		maxBatch:   maxBatch,
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

// do serves job through the coalescer and waits for its lease. It answers
// errCoalesceQueueFull for a request shed by a full queue and
// errCoalescerClosed when the coalescer has shut down and the caller
// should serve the request in isolation instead.
func (c *coalescer) do(job *lookupJob) (*respLease, error) {
	if !c.submit(job) {
		if c.closing.Load() {
			return nil, errCoalescerClosed
		}
		return nil, errCoalesceQueueFull
	}
	select {
	case out := <-job.done:
		return out.lease, out.err
	case <-c.exited:
		// The coalescer exited after accepting the job; it drains its
		// queue before exiting, so the outcome — if any — is already
		// buffered.
		select {
		case out := <-job.done:
			return out.lease, out.err
		default:
			return nil, errCoalescerClosed
		}
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
// queued, up to maxBatch, and nothing else — there is no window to wait out.
// Requests queue while serve is on the device, so the busier the SSD the
// larger the next batch; a request that finds the coalescer idle is a batch
// of one (a bypass).
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
	if len(batch) == 1 {
		c.bypasses.Inc()
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
		job.done <- lookupOutcome{lease: newLease(br.PerQuery[i])}
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
