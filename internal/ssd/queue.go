package ssd

import (
	"cmp"
	"slices"
)

// Completion records the outcome of one asynchronous page read.
type Completion struct {
	// Page is the page that was read.
	Page PageID
	// SubmitNS is the virtual time the command was issued to the device.
	SubmitNS int64
	// CompleteNS is the virtual time the read finished.
	CompleteNS int64
	// Err is non-nil if the read failed (fault injection): ErrReadFailed
	// or ErrTimeout, wrapped with the page and read sequence number.
	Err error
	// Corrupt marks a read that completed successfully but delivered a
	// corrupted payload (fault injection). Detection is the reader's job.
	Corrupt bool
	// Buf holds the page image a real-I/O backend read, nil on simulated
	// backends (whose payload path is the engine's PageSource). The
	// consumer owns the single reference the backend hands over and must
	// Release it (or Retain for longer-lived views) — see PageBuf.
	Buf *PageBuf
}

// Queue is an asynchronous submission/completion queue pair bound to a
// device, mirroring SPDK's qpair model: commands are submitted without
// blocking and completions are reaped later, which is what enables the
// online phase to pipeline page selection with SSD access (§6.2).
//
// A Queue is not safe for concurrent use; each worker owns one, as SPDK
// prescribes. The underlying Device is shared and thread-safe.
//
// The queue tracks in-flight commands in a min-heap on completion time, so
// Outstanding and Submit cost O(log depth) instead of scanning every
// completion since the last Drain — long-running workers that drain rarely
// would otherwise degrade quadratically. Both assume the virtual clock
// passed in never moves backwards (as worker clocks are monotone).
type Queue struct {
	dev     *Device
	depth   int
	pending []Completion // all completions since the last Drain
	drained []Completion // the previous Drain's result, recycled by the next
	// inflight holds the completion times of commands not yet observed
	// complete, as a binary min-heap.
	inflight []int64
}

// NewQueue returns a queue bound to dev with the profile's queue depth.
func NewQueue(dev *Device) *Queue {
	return &Queue{dev: dev, depth: dev.Profile().QueueDepth}
}

// heapPush adds a completion time to the in-flight heap.
func (q *Queue) heapPush(t int64) {
	q.inflight = append(q.inflight, t)
	i := len(q.inflight) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if q.inflight[parent] <= q.inflight[i] {
			break
		}
		q.inflight[parent], q.inflight[i] = q.inflight[i], q.inflight[parent]
		i = parent
	}
}

// heapPop removes and returns the earliest in-flight completion time.
func (q *Queue) heapPop() int64 {
	top := q.inflight[0]
	last := len(q.inflight) - 1
	q.inflight[0] = q.inflight[last]
	q.inflight = q.inflight[:last]
	i := 0
	for {
		l, r := 2*i+1, 2*i+2
		smallest := i
		if l < len(q.inflight) && q.inflight[l] < q.inflight[smallest] {
			smallest = l
		}
		if r < len(q.inflight) && q.inflight[r] < q.inflight[smallest] {
			smallest = r
		}
		if smallest == i {
			return top
		}
		q.inflight[i], q.inflight[smallest] = q.inflight[smallest], q.inflight[i]
		i = smallest
	}
}

// reap pops every in-flight entry that has completed by nowNS.
func (q *Queue) reap(nowNS int64) {
	for len(q.inflight) > 0 && q.inflight[0] <= nowNS {
		q.heapPop()
	}
}

// Outstanding returns the number of commands still in flight at nowNS.
func (q *Queue) Outstanding(nowNS int64) int {
	q.reap(nowNS)
	return len(q.inflight)
}

// InFlight returns the number of commands not yet observed complete as of
// the last Submit/Outstanding/reap — without advancing the reap point.
func (q *Queue) InFlight() int { return len(q.inflight) }

// Submit issues an asynchronous read of page at virtual time nowNS and
// returns the issue time, which exceeds nowNS only when the queue was full
// and the caller had to (virtually) wait for the earliest outstanding
// completion to free a slot.
func (q *Queue) Submit(page PageID, nowNS int64) int64 {
	issue := nowNS
	q.reap(issue)
	for len(q.inflight) >= q.depth {
		issue = q.heapPop()
		q.reap(issue)
	}
	done, fault := q.dev.ReadDetailed(page, issue)
	q.heapPush(done)
	q.pending = append(q.pending, Completion{
		Page:       page,
		SubmitNS:   issue,
		CompleteNS: done,
		Err:        fault.Err,
		Corrupt:    fault.Corrupt,
	})
	return issue
}

// Drain waits (virtually) for every command submitted since the last Drain
// to complete and returns the resulting virtual time — at least nowNS —
// along with all completions ordered by completion time (one device's bus
// serializes transfers, so the times are distinct). The queue is empty
// afterwards; the slice is reused by the Drain after next.
func (q *Queue) Drain(nowNS int64) (doneNS int64, comps []Completion) {
	doneNS = nowNS
	for _, c := range q.pending {
		if c.CompleteNS > doneNS {
			doneNS = c.CompleteNS
		}
	}
	comps = q.pending
	q.pending, q.drained = q.drained[:0], comps
	q.inflight = q.inflight[:0]
	slices.SortFunc(comps, func(a, b Completion) int { return cmp.Compare(a.CompleteNS, b.CompleteNS) })
	return doneNS, comps
}
