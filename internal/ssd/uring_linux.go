//go:build linux

package ssd

import (
	"fmt"
	"sync"
	"sync/atomic"
	"syscall"
	"unsafe"
)

// io_uring read path: one submission/completion ring per queue pair,
// spanning every shard file (an SQE names its own fd), driven through raw
// syscalls (io_uring_setup/io_uring_enter are numbered identically on
// every 64-bit Linux arch, having landed after the syscall-table
// unification). There is no driver goroutine: the worker that owns the
// queue pair stamps SQEs in Submit without a syscall, and its Drain issues
// one io_uring_enter that submits the batch and waits for all of it, then
// reaps the CQEs itself — the SPDK queue-pair discipline of §6.2. Rings
// belong to the backend and are lent to a queue pair for the span of one
// batch (see ringPool), so ring memory is only ever touched by the one
// goroutine holding the loan. Sandboxed kernels (seccomp) commonly deny
// io_uring_setup; the probe fails soft and the backend uses the pread pool.
const (
	sysIOURingSetup = 425
	sysIOURingEnter = 426

	ioringOffSQRing = 0
	ioringOffCQRing = 0x8000000
	ioringOffSQEs   = 0x10000000

	ioringEnterGetevents = 1
	ioringFeatSingleMmap = 1

	ioringOpReadv = 1

	ioringMaxEntries = 32768

	// maxRings bounds the rings a backend holds: each is a descriptor plus
	// pinned kernel memory, and a burst of isolated requests must not
	// spend the process's descriptor budget on rings.
	maxRings = 128
)

type ioSqringOffsets struct {
	head, tail, ringMask, ringEntries, flags, dropped, array, resv1 uint32
	userAddr                                                        uint64
}

type ioCqringOffsets struct {
	head, tail, ringMask, ringEntries, overflow, cqes, flags, resv1 uint32
	userAddr                                                        uint64
}

type ioUringParams struct {
	sqEntries, cqEntries, flags, sqThreadCPU, sqThreadIdle, features, wqFd uint32
	resv                                                                   [3]uint32
	sqOff                                                                  ioSqringOffsets
	cqOff                                                                  ioCqringOffsets
}

// ioUringSqe is the 64-byte submission queue entry (fields past userData
// are padding for the ops this executor issues).
type ioUringSqe struct {
	opcode   uint8
	flags    uint8
	ioprio   uint16
	fd       int32
	off      uint64
	addr     uint64
	len      uint32
	opFlags  uint32
	userData uint64
	pad      [3]uint64
}

// ioUringCqe is the 16-byte completion queue entry.
type ioUringCqe struct {
	userData uint64
	res      int32
	flags    uint32
}

// uringRing is one io_uring instance. Only the queue pair it is lent to
// touches it.
type uringRing struct {
	fd int

	sqRing, cqRing, sqeMem []byte // mappings (cqRing nil when it aliases sqRing)

	sqTail, sqMask         *uint32
	cqHead, cqTail, cqMask *uint32
	sqes                   []ioUringSqe
	cqes                   []ioUringCqe

	slots     []uringSlot
	iovecs    []syscall.Iovec
	freeSlots []uint32
	queued    int // SQEs stamped since the last enter consumed them
	inflight  int // reads stamped and not yet reaped
}

// uringSlot tracks one stamped read; buf is nil while the slot is free.
type uringSlot struct {
	req     fileReq
	shard   int
	pageOff int
}

// newURing sets up and maps a ring of at least depth entries, or returns
// nil when the kernel refuses (old kernel, seccomp, descriptor or memlock
// limits).
func newURing(depth int) *uringRing {
	if depth > ioringMaxEntries {
		depth = ioringMaxEntries
	}
	var params ioUringParams
	r1, _, errno := syscall.Syscall(sysIOURingSetup, uintptr(depth), uintptr(unsafe.Pointer(&params)), 0)
	if errno != 0 {
		return nil
	}
	r := &uringRing{fd: int(r1)}
	if err := r.mapRings(&params); err != nil {
		r.teardown()
		return nil
	}
	n := params.sqEntries
	r.slots = make([]uringSlot, n)
	r.iovecs = make([]syscall.Iovec, n)
	r.freeSlots = make([]uint32, n)
	for i := range r.freeSlots {
		r.freeSlots[i] = uint32(i)
	}
	return r
}

// mapRings mmaps the submission/completion rings and the SQE array, and
// points every SQ index slot at the SQE of the same number, once.
func (r *uringRing) mapRings(p *ioUringParams) error {
	sqSize := int(p.sqOff.array) + int(p.sqEntries)*4
	cqSize := int(p.cqOff.cqes) + int(p.cqEntries)*int(unsafe.Sizeof(ioUringCqe{}))
	single := p.features&ioringFeatSingleMmap != 0
	if single && cqSize > sqSize {
		sqSize = cqSize
	}
	sq, err := syscall.Mmap(r.fd, ioringOffSQRing, sqSize,
		syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_SHARED)
	if err != nil {
		return err
	}
	r.sqRing = sq
	cq := sq
	if !single {
		cq, err = syscall.Mmap(r.fd, ioringOffCQRing, cqSize,
			syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_SHARED)
		if err != nil {
			return err
		}
		r.cqRing = cq
	}
	sqes, err := syscall.Mmap(r.fd, ioringOffSQEs, int(p.sqEntries)*int(unsafe.Sizeof(ioUringSqe{})),
		syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_SHARED)
	if err != nil {
		return err
	}
	r.sqeMem = sqes

	r.sqTail = (*uint32)(unsafe.Pointer(&sq[p.sqOff.tail]))
	r.sqMask = (*uint32)(unsafe.Pointer(&sq[p.sqOff.ringMask]))
	r.sqes = unsafe.Slice((*ioUringSqe)(unsafe.Pointer(&sqes[0])), p.sqEntries)
	sqArray := unsafe.Slice((*uint32)(unsafe.Pointer(&sq[p.sqOff.array])), p.sqEntries)
	for i := range sqArray {
		sqArray[i] = uint32(i)
	}

	r.cqHead = (*uint32)(unsafe.Pointer(&cq[p.cqOff.head]))
	r.cqTail = (*uint32)(unsafe.Pointer(&cq[p.cqOff.tail]))
	r.cqMask = (*uint32)(unsafe.Pointer(&cq[p.cqOff.ringMask]))
	r.cqes = unsafe.Slice((*ioUringCqe)(unsafe.Pointer(&cq[p.cqOff.cqes])), p.cqEntries)
	return nil
}

// teardown unmaps the rings and closes the ring fd; closing it is what
// makes the kernel drop its references to the ring's in-flight requests.
func (r *uringRing) teardown() {
	for _, m := range [][]byte{r.sqeMem, r.cqRing, r.sqRing} {
		if m != nil {
			syscall.Munmap(m)
		}
	}
	r.sqeMem, r.cqRing, r.sqRing = nil, nil, nil
	r.sqes, r.cqes = nil, nil
	syscall.Close(r.fd)
}

// ringPool is the backend's set of rings. Serving workers have no Close —
// the GC and engine swaps drop them — so a queue pair may not own a
// descriptor: it borrows a ring at the first Submit of a batch and returns
// it when Drain comes back, and the backend's Close tears the rings down.
type ringPool struct {
	depth int
	fds   []int32 // shard file descriptors, by shard

	mu     sync.Mutex
	idle   []*uringRing  // not on loan; a stack, so a warm ring goes out first
	minted int           // rings in existence, idle or on loan
	dead   [][]uringSlot // slots of retired rings; see retire
}

// newRingPool probes io_uring by minting the first ring; nil means the
// kernel interface is unavailable and the caller uses the pread pool.
func newRingPool(b *FileBackend) *ringPool {
	p := &ringPool{depth: b.depth}
	for _, f := range b.files {
		p.fds = append(p.fds, int32(f.File().Fd()))
	}
	r := p.get()
	if r == nil {
		return nil
	}
	p.put(r)
	return p
}

// get lends an idle ring or mints one. It returns nil when maxRings are
// out on loan or the kernel refuses another; that batch reads through the
// pread pool.
func (p *ringPool) get() *uringRing {
	p.mu.Lock()
	defer p.mu.Unlock()
	if n := len(p.idle); n > 0 {
		r := p.idle[n-1]
		p.idle = p.idle[:n-1]
		return r
	}
	if p.minted == maxRings {
		return nil
	}
	r := newURing(p.depth)
	if r != nil {
		p.minted++
	}
	return r
}

func (p *ringPool) put(r *uringRing) {
	p.mu.Lock()
	p.idle = append(p.idle, r)
	p.mu.Unlock()
}

// retire tears down a ring on loan whose io_uring_enter failed hard. The
// kernel may still be writing into the buffers of its in-flight reads
// (closing the fd starts their cancellation, it does not wait for it), so
// they are neither recycled nor left to the GC: the pool keeps the slots
// that reference them.
func (p *ringPool) retire(r *uringRing) {
	r.teardown()
	p.mu.Lock()
	p.minted--
	p.dead = append(p.dead, r.slots)
	p.mu.Unlock()
}

// close tears down every ring; the backend is idle, so none is on loan.
func (p *ringPool) close() {
	p.mu.Lock()
	defer p.mu.Unlock()
	for _, r := range p.idle {
		r.teardown()
	}
	p.minted -= len(p.idle)
	p.idle = nil
}

// enter is one io_uring_enter: it hands the kernel every stamped SQE and
// waits for minComplete completions. EINTR (nothing was consumed) retries
// the same call; any other errno is returned for the caller to retire the
// ring.
func (r *uringRing) enter(b *FileBackend, minComplete int) syscall.Errno {
	for {
		b.enters.Add(1)
		n, _, errno := syscall.Syscall6(sysIOURingEnter, uintptr(r.fd),
			uintptr(r.queued), uintptr(minComplete), ioringEnterGetevents, 0, 0)
		if errno == syscall.EINTR {
			continue
		}
		if errno == 0 {
			r.queued -= int(n)
		}
		return errno
	}
}

// ringSubmit stamps one read into the borrowed ring — no syscall unless
// the ring is full, in which case what is stamped is pushed to the kernel
// and at least one completion reaped into the queue's scratch to make
// room. A page outside the shard completes at once with the error. It
// reports false when the ring had to be retired and the read was not
// stamped; the caller routes it (and the rest of the batch) to the pread
// pool.
func (q *FileQueue) ringSubmit(shard int, req fileReq) bool {
	r := q.ring
	off, span, pageOff, err := q.fb.files[shard].PageSpan(req.local)
	if err != nil {
		q.complete(shard, req, q.fb.wallNS(), err)
		return true
	}
	for len(r.freeSlots) == 0 {
		if errno := r.enter(q.fb, 1); errno != 0 {
			q.ringFail(errno)
			return false
		}
		q.reap()
	}
	si := r.freeSlots[len(r.freeSlots)-1]
	r.freeSlots = r.freeSlots[:len(r.freeSlots)-1]
	r.slots[si] = uringSlot{req: req, shard: shard, pageOff: pageOff}
	r.iovecs[si] = syscall.Iovec{Base: &req.buf.data[0], Len: uint64(span)}

	tail := *r.sqTail // only this side writes the SQ tail
	r.sqes[tail&*r.sqMask] = ioUringSqe{
		opcode:   ioringOpReadv,
		fd:       q.fb.rings.fds[shard],
		off:      uint64(off),
		addr:     uint64(uintptr(unsafe.Pointer(&r.iovecs[si]))),
		len:      1,
		userData: uint64(si),
	}
	atomic.StoreUint32(r.sqTail, tail+1)
	r.queued++
	r.inflight++
	return true
}

// ringDrain submits the batch and waits for all of it — one
// io_uring_enter unless a signal or a partial submission cuts it short —
// reaps into the queue's scratch, and returns the ring to the pool.
func (q *FileQueue) ringDrain() {
	r := q.ring
	for r.inflight > 0 {
		if errno := r.enter(q.fb, r.inflight); errno != 0 {
			q.ringFail(errno)
			return
		}
		q.reap()
	}
	q.ring = nil
	q.fb.rings.put(r)
}

// reap consumes every CQE present, finishing each read with one shared
// wall-clock stamp: a read's measured latency is submit→reap, the time
// the lookup actually waited for it.
func (q *FileQueue) reap() {
	r := q.ring
	head := *r.cqHead // only this side writes the CQ head
	tail := atomic.LoadUint32(r.cqTail)
	if head == tail {
		return
	}
	end := q.fb.wallNS()
	for ; head != tail; head++ {
		cqe := r.cqes[head&*r.cqMask]
		si := uint32(cqe.userData)
		s := r.slots[si]
		r.slots[si] = uringSlot{}
		r.freeSlots = append(r.freeSlots, si)
		r.inflight--
		var err error
		got := 0
		if cqe.res < 0 {
			err = fmt.Errorf("ssd: io_uring read: %w", syscall.Errno(-cqe.res))
		} else {
			got = int(cqe.res)
		}
		fs := q.fb.files[s.shard]
		if err = fs.CheckSpanRead(s.req.local, s.pageOff, got, err); err == nil {
			s.req.buf.img = s.req.buf.data[s.pageOff : s.pageOff+fs.PageSize()]
		}
		q.complete(s.shard, s.req, end, err)
	}
	atomic.StoreUint32(r.cqHead, head)
}

// ringFail handles a hard io_uring_enter error: completions that already
// arrived are reaped normally, every other in-flight read of the ring
// fails with the errno and gives up its buffer (see ringPool.retire), and
// the ring is retired. The queue pair borrows a fresh ring on its next
// batch.
func (q *FileQueue) ringFail(errno syscall.Errno) {
	q.reap()
	r := q.ring
	end := q.fb.wallNS()
	err := fmt.Errorf("ssd: io_uring enter: %w", errno)
	for i := range r.slots {
		if s := r.slots[i]; s.req.buf != nil {
			s.req.buf = nil
			q.complete(s.shard, s.req, end, err)
		}
	}
	q.ring = nil
	q.fb.rings.retire(r)
}
