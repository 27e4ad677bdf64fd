package ssd

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"maxembed/internal/metrics"
	"maxembed/internal/store"
)

// FileBackend is a real-I/O Backend: page reads are served from serialized
// per-shard store files (O_DIRECT when the filesystem allows, buffered
// otherwise) through io_uring where the kernel interface is available —
// one ring per queue pair spanning every shard file, submitted to and
// reaped by the worker that owns the queue pair — and by a bounded
// per-shard goroutine pread(2) pool everywhere else, into reference-counted
// completion buffers recycled through freelists sized to the queue depth.
// It mirrors MultiQueue's queue-pair semantics exactly,
// so Run/RunOpenLoop, /v1/stats, and the fault/health machinery drive real
// NVMe (or plain files) unchanged; latencies are measured, not simulated,
// and folded into the same per-shard Device accounting shells the
// simulator populates.
//
// Striping matches Array and store.Sharded: global page p lives in file
// p mod n at local index p div n.
//
// The shard files are the only copy of the table, so the backend is also
// the engine's page source (Dim, PageSize, ReadPage): what the engine reads
// outside a lookup's batch — pinned keys, cache warming, the last-resort
// read-through of a key's home page — is a synchronous read of the owning
// shard file, slot checksums and all.
//
// Virtual-time contract: each FileQueue anchors the worker's virtual clock
// to the wall clock at the first submit of a batch, so issue/completion
// stamps and Drain's returned time advance by measured elapsed time. The
// injected Clock keeps the package clockcheck-clean and lets tests pin
// time.
type FileBackend struct {
	files  []*store.FileStore
	shards []*Device // accounting shells: stats, fault counters, health taps
	prof   Profile
	health *HealthTracker
	hists  []metrics.Recorder
	free   []chan *PageBuf

	rings  *ringPool    // nil: every read goes through the pread pool
	enters atomic.Int64 // io_uring_enter calls since the last Reset
	// The pread pool: started with the backend when there are no rings,
	// otherwise by the first batch that cannot get one.
	preadOnce    sync.Once
	pread        []*preadExec
	preadWorkers int
	depth        int // per-shard queue depth: ring entries, pool channel capacity

	now      func() time.Time
	epoch    time.Time
	frontier atomic.Int64

	numPages  int
	closed    atomic.Bool
	closeOnce sync.Once
}

// ErrClosed is the outcome of every read asked of a FileBackend after
// Close: a queue pair's Submit completes with it at once, through the
// normal completion path, and ReadPage returns it.
var ErrClosed = errors.New("ssd: file backend closed")

// FileBackendConfig parameterizes NewFileBackend; the zero value works.
type FileBackendConfig struct {
	// Profile is the headline per-shard profile reported through Stats and
	// used for queue depth and freelist sizing. Zero value: P5800X geometry
	// at the files' page size. Latencies under this backend are measured,
	// so the profile's ReadLatency only labels reports.
	Profile Profile
	// PoolWorkers is the number of pread goroutines per shard in the
	// fallback executor (default 8, capped at the queue depth).
	PoolWorkers int
	// ForcePread skips the io_uring probe — for A/B measurement and for
	// sandboxes where the probe itself is unwelcome.
	ForcePread bool
	// Clock injects the wall-clock source (nil: time.Now).
	Clock func() time.Time
}

// NewFileBackend assembles a backend over per-shard store files. The
// backend takes ownership of the files; Close releases them.
func NewFileBackend(files []*store.FileStore, cfg FileBackendConfig) (*FileBackend, error) {
	if len(files) == 0 {
		return nil, fmt.Errorf("ssd: file backend needs at least 1 shard file")
	}
	base := cfg.Profile
	if base == (Profile{}) {
		base = P5800X
	}
	base.PageSize = files[0].PageSize()
	if err := base.Validate(); err != nil {
		return nil, err
	}
	numPages := 0
	for i, f := range files {
		if f.PageSize() != base.PageSize {
			return nil, fmt.Errorf("ssd: shard %d page size %d differs from shard 0's %d",
				i, f.PageSize(), base.PageSize)
		}
		if f.Dim() != files[0].Dim() {
			return nil, fmt.Errorf("ssd: shard %d dim %d differs from shard 0's %d",
				i, f.Dim(), files[0].Dim())
		}
		numPages += f.NumPages()
	}
	// The files must form one contiguous stripe: shard i of n holds
	// ceil((numPages-i)/n) local pages, exactly like store.BuildSharded.
	n := len(files)
	for i, f := range files {
		if want := (numPages - i + n - 1) / n; f.NumPages() != want {
			return nil, fmt.Errorf("ssd: shard %d holds %d pages, want %d of a %d-page stripe",
				i, f.NumPages(), want, numPages)
		}
	}
	nw := cfg.Clock
	if nw == nil {
		nw = time.Now
	}
	workers := cfg.PoolWorkers
	if workers <= 0 {
		workers = 8
	}
	if workers > base.QueueDepth {
		workers = base.QueueDepth
	}

	b := &FileBackend{
		files:        files,
		shards:       make([]*Device, n),
		hists:        make([]metrics.Recorder, n),
		free:         make([]chan *PageBuf, n),
		now:          nw,
		numPages:     numPages,
		preadWorkers: workers,
		depth:        base.QueueDepth,
	}
	b.epoch = nw()
	for i := range files {
		d, err := NewDevice(base)
		if err != nil {
			return nil, err
		}
		b.shards[i] = d
		b.free[i] = make(chan *PageBuf, base.QueueDepth)
	}
	if !cfg.ForcePread {
		b.rings = newRingPool(b)
	}
	if b.rings == nil {
		b.preadPool()
	}
	agg := base
	for i := 1; i < n; i++ {
		agg.Bandwidth += base.Bandwidth
		agg.Channels += base.Channels
		agg.QueueDepth += base.QueueDepth
		agg.WriteBandwidth += base.writeBandwidth()
	}
	mode := "buffered"
	if files[0].Direct() {
		mode = "direct"
	}
	agg.Name = fmt.Sprintf("file-%dx%s-%s-%s", n, base.Name, b.ExecutorKind(), mode)
	b.prof = agg
	b.health = newHealthTracker(n, HealthConfig{})
	for i, d := range b.shards {
		i := i
		d.setReadObserver(func(faulted bool) { b.health.observe(i, faulted) })
	}
	return b, nil
}

// wallNS returns the wall clock as nanoseconds since the backend's epoch.
func (b *FileBackend) wallNS() int64 { return b.now().Sub(b.epoch).Nanoseconds() }

// advanceFrontier CAS-maxes the backend frontier to t.
func (b *FileBackend) advanceFrontier(t int64) {
	for {
		cur := b.frontier.Load()
		if t <= cur || b.frontier.CompareAndSwap(cur, t) {
			return
		}
	}
}

// getBuf pulls a completion buffer from the shard's freelist, minting a
// fresh one when the list is dry (start-up, or a burst beyond the depth).
func (b *FileBackend) getBuf(shard int) *PageBuf {
	select {
	case buf := <-b.free[shard]:
		return buf
	default:
		return &PageBuf{data: b.files[shard].NewReadBuf(), home: b.free[shard]}
	}
}

// preadPool returns the per-shard pread executors, starting them on first
// use.
func (b *FileBackend) preadPool() []*preadExec {
	b.preadOnce.Do(b.startPread)
	return b.pread
}

func (b *FileBackend) startPread() {
	b.pread = make([]*preadExec, len(b.files))
	for i := range b.pread {
		b.pread[i] = newPreadExec(b, i, b.preadWorkers, b.depth)
	}
}

// ExecutorKind reports the read executor in use: "io_uring" or "pread".
func (b *FileBackend) ExecutorKind() string {
	if b.rings != nil {
		return "io_uring"
	}
	return "pread"
}

// RingEnters returns the io_uring_enter calls issued since the last
// Reset, and false on the pread executor. Against Stats().Reads it shows
// whether submissions batch: one enter per Drain, not one per read.
func (b *FileBackend) RingEnters() (int64, bool) {
	return b.enters.Load(), b.rings != nil
}

// Direct reports whether the shard files bypass the OS page cache.
func (b *FileBackend) Direct() bool { return b.files[0].Direct() }

// NumPages returns the global page count across shard files.
func (b *FileBackend) NumPages() int { return b.numPages }

// Dim returns the embedding dimension of the shard files' slots.
func (b *FileBackend) Dim() int { return b.files[0].Dim() }

// PageSize returns the page image size in bytes.
func (b *FileBackend) PageSize() int { return b.files[0].PageSize() }

// ReadPage reads global page p from its shard file into dst (at least
// PageSize bytes), synchronously, outside any queue pair. It is a device
// read like any other: the shard's statistics, latency histogram and
// health window see it.
func (b *FileBackend) ReadPage(p PageID, dst []byte) error {
	if b.closed.Load() {
		return ErrClosed
	}
	// Checked here so that only reads the device is asked for are counted.
	if int(p) >= b.numPages {
		return fmt.Errorf("ssd: page %d out of range (%d pages)", p, b.numPages)
	}
	if len(dst) < b.PageSize() {
		return fmt.Errorf("ssd: buffer of %d bytes, need %d", len(dst), b.PageSize())
	}
	shard, local := b.ShardOf(p)
	start := b.wallNS()
	err := b.files[shard].ReadPage(local, dst)
	busy := b.wallNS() - start
	b.shards[shard].recordExternalRead(busy, err, false)
	b.hists[shard].Record(busy)
	return err
}

// Close tears down every ring, stops the pread pool, and releases the
// shard files. The backend must be idle: no queue pair may have undrained
// submissions. Reads asked of it afterwards fail with ErrClosed.
func (b *FileBackend) Close() error {
	var err error
	b.closeOnce.Do(func() {
		b.closed.Store(true)
		if b.rings != nil {
			b.rings.close()
		}
		b.preadOnce.Do(func() {}) // the pool has started by now or never will
		for _, e := range b.pread {
			e.close()
		}
		for _, f := range b.files {
			if cerr := f.Close(); cerr != nil && err == nil {
				err = cerr
			}
		}
	})
	return err
}

// Profile implements Backend.
func (b *FileBackend) Profile() Profile { return b.prof }

// NumShards implements Backend.
func (b *FileBackend) NumShards() int { return len(b.files) }

// ShardOf implements Backend with Array's striping.
func (b *FileBackend) ShardOf(page PageID) (int, PageID) {
	n := PageID(len(b.files))
	return int(page % n), page / n
}

// GlobalOf implements Backend.
func (b *FileBackend) GlobalOf(shard int, local PageID) PageID {
	return local*PageID(len(b.files)) + PageID(shard)
}

// Shard implements Backend: the shard's accounting shell, carrying the
// measured statistics and health tap (not a simulation clock).
func (b *FileBackend) Shard(i int) *Device { return b.shards[i] }

// Frontier implements Backend: the latest virtual completion time any
// queue pair has drained.
func (b *FileBackend) Frontier() int64 { return b.frontier.Load() }

// Stats implements Backend: measured activity summed across shards.
func (b *FileBackend) Stats() Stats { return sumStats(b.shards) }

// ShardStats returns each shard's measured statistics.
func (b *FileBackend) ShardStats() []Stats {
	out := make([]Stats, len(b.shards))
	for i, d := range b.shards {
		out[i] = d.Stats()
	}
	return out
}

// Reset implements Backend: statistics, latency histograms, and the
// virtual frontier restart from zero.
func (b *FileBackend) Reset() {
	for _, d := range b.shards {
		d.Reset()
	}
	for i := range b.hists {
		b.hists[i].Reset()
	}
	b.enters.Store(0)
	b.frontier.Store(0)
}

// NewQueuePair implements QueuePairProvider.
func (b *FileBackend) NewQueuePair() QueuePair {
	q := &FileQueue{
		fb:       b,
		inflight: make([]int, len(b.files)),
		high:     make([]int, len(b.files)),
	}
	q.inbox.cond.L = &q.inbox.mu
	return q
}

// ShardReadLatency returns shard's measured (wall-clock) read-latency
// histogram; /metrics exports it.
func (b *FileBackend) ShardReadLatency(shard int) metrics.LatencyHist {
	return b.hists[shard].Snapshot()
}

// ConfigureHealth replaces the health tracker (see Array.ConfigureHealth).
func (b *FileBackend) ConfigureHealth(cfg HealthConfig) {
	b.health = newHealthTracker(len(b.shards), cfg)
	for i, d := range b.shards {
		i := i
		d.setReadObserver(func(faulted bool) { b.health.observe(i, faulted) })
	}
}

// ShardState implements HealthReporter.
func (b *FileBackend) ShardState(i int) ShardState {
	return ShardState(b.health.shards[i].state.Load())
}

// ShardHealth implements HealthReporter.
func (b *FileBackend) ShardHealth(i int) ShardHealthInfo { return b.health.Info(i) }

// ShardHealths returns every shard's health snapshot.
func (b *FileBackend) ShardHealths() []ShardHealthInfo {
	out := make([]ShardHealthInfo, len(b.shards))
	for i := range out {
		out[i] = b.health.Info(i)
	}
	return out
}

// LiveShards returns how many shards are currently serving reads.
func (b *FileBackend) LiveShards() int {
	n := 0
	for i := range b.shards {
		if b.ShardState(i).Live() {
			n++
		}
	}
	return n
}

// FailShard declares shard i failed (operator/chaos hook).
func (b *FileBackend) FailShard(i int) { b.health.setState(i, ShardFailed) }

// MarkHealthy returns shard i to service with a cleared fault window.
func (b *FileBackend) MarkHealthy(i int) {
	b.health.shards[i].resetWindow()
	b.health.setState(i, ShardHealthy)
}

// NoteLatent adds latent-error counts to shard i (see Array.NoteLatent).
func (b *FileBackend) NoteLatent(i int, n int64) { b.health.shards[i].latent.Add(n) }

// OnFail registers the shard-failure hook (see Array.OnFail).
func (b *FileBackend) OnFail(fn func(shard int)) { b.health.OnFail(fn) }

// fileReq is one read on its way to a ring or a shard's pread executor.
type fileReq struct {
	global     PageID
	local      PageID
	buf        *PageBuf
	out        *compInbox // pread path only
	submitWall int64
	submitVirt int64
}

// fileComp is one completed read on its way back to the submitting queue.
type fileComp struct {
	global       PageID
	buf          *PageBuf
	err          error
	submitVirt   int64
	completeWall int64
}

// compInbox is a queue pair's completion mailbox on the pread path. The
// pool goroutines push; the owning worker's Drain blocks until every
// outstanding submission has arrived. Capacity is retained across
// batches, so steady-state push/take allocate nothing.
type compInbox struct {
	mu    sync.Mutex
	cond  sync.Cond
	comps []fileComp
}

func (in *compInbox) push(c fileComp) {
	in.mu.Lock()
	in.comps = append(in.comps, c)
	in.mu.Unlock()
	in.cond.Signal()
}

// take blocks until n completions are present, appends them to dst
// (reusing its capacity), and empties the inbox.
func (in *compInbox) take(n int, dst []fileComp) []fileComp {
	in.mu.Lock()
	for len(in.comps) < n {
		in.cond.Wait()
	}
	dst = append(dst, in.comps...)
	in.comps = in.comps[:0]
	in.mu.Unlock()
	return dst
}

// preadExec is the portable executor: a bounded pool of goroutines each
// looping pread(2) (ReadAt) calls against the shard file. The request
// channel's capacity is the submission ring: submit blocks while it is
// full (the real-I/O analogue of Queue's virtual queue-full wait).
type preadExec struct {
	fb    *FileBackend
	shard int
	reqC  chan fileReq
	wg    sync.WaitGroup
}

func newPreadExec(fb *FileBackend, shard, workers, depth int) *preadExec {
	e := &preadExec{fb: fb, shard: shard, reqC: make(chan fileReq, depth)}
	for i := 0; i < workers; i++ {
		e.wg.Add(1)
		go e.run()
	}
	return e
}

func (e *preadExec) run() {
	defer e.wg.Done()
	fb := e.fb
	fs := fb.files[e.shard]
	shell := fb.shards[e.shard]
	hist := &fb.hists[e.shard]
	for req := range e.reqC {
		start := fb.wallNS()
		img, err := fs.ReadPageWindow(req.local, req.buf.data)
		end := fb.wallNS()
		req.buf.img = img
		shell.recordExternalRead(end-start, err, false)
		hist.Record(end - req.submitWall)
		req.out.push(fileComp{
			global:       req.global,
			buf:          req.buf,
			err:          err,
			submitVirt:   req.submitVirt,
			completeWall: end,
		})
	}
}

func (e *preadExec) submit(r fileReq) { e.reqC <- r }
func (e *preadExec) close() {
	close(e.reqC)
	e.wg.Wait()
}

// FileQueue is a queue pair over a FileBackend. On the io_uring path it
// borrows one of the backend's rings for the span of a batch — first
// Submit to Drain — stamps SQEs into it and reaps it itself; on the pread
// path it feeds the shard pools and collects from a private inbox. Like
// MultiQueue it is single-owner; unlike MultiQueue its times are measured.
// The worker's virtual clock is anchored to the wall clock at the first
// submit after a drain, so a batch's issue/completion stamps advance by
// real elapsed time.
type FileQueue struct {
	fb       *FileBackend
	ring     *uringRing // on loan from fb.rings while a batch is open
	inbox    compInbox
	pending  int
	inflight []int // per-shard submitted-not-drained
	high     []int
	merged   []Completion
	scratch  []fileComp // completions reaped or taken, awaiting Drain

	anchorWall int64
	anchorVirt int64
}

// virtOf maps a wall timestamp onto the worker's virtual clock.
func (q *FileQueue) virtOf(wall int64) int64 {
	return q.anchorVirt + (wall - q.anchorWall)
}

// NumShards implements QueuePair.
func (q *FileQueue) NumShards() int { return len(q.inflight) }

// Submit implements QueuePair: it acquires a completion buffer from the
// shard's freelist and stamps the read into the batch's ring — no syscall
// — or enqueues it on the shard's pread pool. A full ring is flushed and
// partly reaped, a full pool channel blocks: real backpressure in place of
// the simulator's virtual queue-full wait. On a closed backend the read
// completes here, with ErrClosed and no buffer.
func (q *FileQueue) Submit(page PageID, nowNS int64) int64 {
	shard, local := q.fb.ShardOf(page)
	submitWall := q.fb.wallNS()
	closed := q.fb.closed.Load()
	if q.pending == 0 {
		q.anchorWall = submitWall
		q.anchorVirt = nowNS
		if q.fb.rings != nil && !closed {
			q.ring = q.fb.rings.get()
		}
	}
	issue := q.virtOf(submitWall)
	if issue < nowNS {
		issue = nowNS
	}
	req := fileReq{
		global:     page,
		local:      local,
		out:        &q.inbox,
		submitWall: submitWall,
		submitVirt: issue,
	}
	if closed {
		q.complete(shard, req, submitWall, ErrClosed)
	} else {
		req.buf = q.fb.getBuf(shard)
		req.buf.rc.Store(1)
		req.buf.img = nil
		if q.ring == nil || !q.ringSubmit(shard, req) {
			q.fb.preadPool()[shard].submit(req)
		}
	}
	q.pending++
	q.inflight[shard]++
	if q.inflight[shard] > q.high[shard] {
		q.high[shard] = q.inflight[shard]
	}
	return issue
}

// complete records the outcome of a read that finished on the submitting
// goroutine — reaped from the ring, or failed before it reached an
// executor — and queues its completion for the Drain in progress (or to
// come).
func (q *FileQueue) complete(shard int, req fileReq, end int64, err error) {
	q.fb.shards[shard].recordExternalRead(end-req.submitWall, err, false)
	q.fb.hists[shard].Record(end - req.submitWall)
	q.scratch = append(q.scratch, fileComp{
		global:       req.global,
		buf:          req.buf,
		err:          err,
		submitVirt:   req.submitVirt,
		completeWall: end,
	})
}

// ShardOutstanding implements QueuePair: submitted-not-drained commands on
// the shard. Real completions arrive asynchronously, so this is the upper
// bound the load-balancing signals want (work this queue has in the
// shard's ring).
func (q *FileQueue) ShardOutstanding(shard int, _ int64) int { return q.inflight[shard] }

// Outstanding implements QueuePair.
func (q *FileQueue) Outstanding(_ int64) int { return q.pending }

// HighWater implements QueuePair.
func (q *FileQueue) HighWater(shard int) int { return q.high[shard] }

// Drain implements QueuePair: it blocks until every submitted read has
// completed — on the io_uring path in one io_uring_enter that submits the
// batch and waits for all of it, after which the ring goes back to the
// backend — then hands back completions carrying their page buffers,
// exactly one reference each, owned by the caller, ordered by
// (completion time, page). Failed reads release their buffer here and
// surface with a nil Buf. The slice is reused by the next Drain.
func (q *FileQueue) Drain(nowNS int64) (doneNS int64, comps []Completion) {
	doneNS = nowNS
	q.merged = q.merged[:0]
	if q.pending == 0 {
		return doneNS, q.merged
	}
	if q.ring != nil {
		q.ringDrain()
	}
	if n := q.pending - len(q.scratch); n > 0 {
		q.scratch = q.inbox.take(n, q.scratch)
	}
	for i := range q.scratch {
		fc := &q.scratch[i]
		c := Completion{
			Page:       fc.global,
			SubmitNS:   fc.submitVirt,
			CompleteNS: q.virtOf(fc.completeWall),
			Err:        fc.err,
			Buf:        fc.buf,
		}
		if c.CompleteNS <= c.SubmitNS {
			// Clock granularity can collapse a fast read to zero width;
			// keep completion strictly after submission for monotone stats.
			c.CompleteNS = c.SubmitNS + 1
		}
		if c.Err != nil && c.Buf != nil {
			c.Buf.Release()
			c.Buf = nil
		}
		if c.CompleteNS > doneNS {
			doneNS = c.CompleteNS
		}
		q.merged = append(q.merged, c)
		fc.buf = nil
	}
	q.scratch = q.scratch[:0]
	q.pending = 0
	for i := range q.inflight {
		q.inflight[i] = 0
	}
	// Insertion sort instead of sort.Slice: completion batches are small
	// and the hot path must not allocate (sort.Slice's closure does).
	m := q.merged
	for i := 1; i < len(m); i++ {
		c := m[i]
		j := i - 1
		for j >= 0 && (m[j].CompleteNS > c.CompleteNS ||
			(m[j].CompleteNS == c.CompleteNS && m[j].Page > c.Page)) {
			m[j+1] = m[j]
			j--
		}
		m[j+1] = c
	}
	q.fb.advanceFrontier(doneNS)
	return doneNS, q.merged
}
