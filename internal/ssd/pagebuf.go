package ssd

import "sync/atomic"

// PageBuf is a reference-counted completion buffer of a real-I/O backend:
// the buffer one page read lands in — one page, aligned when the file is
// O_DIRECT; the enclosing aligned window for a page size that is not a
// multiple of the alignment — plus the page-image view within it. Buffers
// circulate through a per-shard freelist sized to the queue depth, so the
// steady-state read path allocates nothing.
//
// Ownership protocol (DESIGN.md §17): the backend fills the buffer and
// hands exactly one reference to the drainer via Completion.Buf. Whoever
// holds a reference may Retain before sharing the view (one Retain per
// additional holder) and must Release exactly once per reference; the
// buffer returns to its freelist when the count reaches zero, at which
// point every view into it (Bytes, serving SlotRefs) is dead. Release of
// the last reference with the freelist full drops the buffer to the GC —
// correct, just not free — so bursts beyond the depth degrade gracefully
// instead of deadlocking.
type PageBuf struct {
	data []byte // what the read fills (store.FileStore.NewReadBuf)
	img  []byte // page view within data, set by a successful read
	rc   atomic.Int32
	home chan *PageBuf
}

// Bytes returns the page image of the completed read. It aliases the
// recycled buffer: invalid once the holder's reference is released.
func (b *PageBuf) Bytes() []byte { return b.img }

// Retain adds a reference for an additional holder of the buffer's view.
func (b *PageBuf) Retain() { b.rc.Add(1) }

// Release drops one reference; the last release recycles the buffer.
func (b *PageBuf) Release() {
	switch n := b.rc.Add(-1); {
	case n == 0:
		b.img = nil
		select {
		case b.home <- b:
		default: // freelist full: let the GC take it
		}
	case n < 0:
		panic("ssd: PageBuf released more times than retained")
	}
}

// QueuePair is the submit/drain surface a serving worker drives — the
// SPDK-style queue-pair semantics MultiQueue defines, satisfied both by
// the simulator's MultiQueue and by a real-I/O backend's queue pairs. A
// QueuePair is not safe for concurrent use; each worker owns one.
type QueuePair interface {
	// Submit issues an asynchronous read of the global page at virtual
	// time nowNS and returns the issue time (past nowNS only when the
	// owning shard's queue was full).
	Submit(page PageID, nowNS int64) int64
	// Drain waits for every command submitted since the last Drain and
	// returns the resulting virtual time (≥ nowNS) plus all completions
	// ordered by (completion time, page). The slice is reused by the next
	// Drain.
	Drain(nowNS int64) (doneNS int64, comps []Completion)
	// Outstanding returns the commands in flight across all shards.
	Outstanding(nowNS int64) int
	// ShardOutstanding returns the commands in flight on one shard.
	ShardOutstanding(shard int, nowNS int64) int
	// HighWater returns the shard's outstanding-commands high-water mark.
	HighWater(shard int) int
	// NumShards returns the number of per-shard queues.
	NumShards() int
}

// QueuePairProvider is implemented by backends that mint their own queue
// pairs (real-I/O backends whose submission rings are not per-Device
// simulations). Workers ask the backend first and fall back to a
// MultiQueue over its shards.
type QueuePairProvider interface {
	NewQueuePair() QueuePair
}

// NewQueuePairFor returns the queue pair a worker should drive against
// be: the backend's own if it provides one, a simulated MultiQueue
// otherwise.
func NewQueuePairFor(be Backend) QueuePair {
	if qp, ok := be.(QueuePairProvider); ok {
		return qp.NewQueuePair()
	}
	return NewMultiQueue(be)
}
