//go:build linux

package ssd

import (
	"errors"
	"os"
	"runtime"
	"strings"
	"syscall"
	"testing"
)

func countFDs(t *testing.T) int {
	t.Helper()
	ents, err := os.ReadDir("/proc/self/fd")
	if err != nil {
		t.Skipf("cannot list descriptors: %v", err)
	}
	return len(ents)
}

// TestFileBackendRingLifetime: rings belong to the backend, not to queue
// pairs. Sixty-four queue pairs with a batch open at once mint sixty-four
// rings and start no goroutine; dropping the queue pairs leaks nothing,
// and Close returns every descriptor.
func TestFileBackendRingLifetime(t *testing.T) {
	paths, _, _ := writeShardFiles(t, 4)
	fdsBefore := countFDs(t)
	goroutinesBefore := runtime.NumGoroutine()
	fb := ringBackendOrSkip(t, paths, FileBackendConfig{})
	// More, not different: under -race a goroutine of the test runtime may
	// exit between the two counts.
	if n := runtime.NumGoroutine(); n > goroutinesBefore {
		t.Errorf("io_uring backend over 4 shards started %d goroutines", n-goroutinesBefore)
	}
	func() {
		qps := make([]QueuePair, 64)
		for i := range qps {
			qps[i] = fb.NewQueuePair()
			qps[i].Submit(PageID(i%fb.NumPages()), 0)
		}
		if n := fb.rings.minted; n != len(qps) {
			t.Errorf("%d rings minted for %d open batches", n, len(qps))
		}
		for i, qp := range qps {
			_, comps := qp.Drain(0)
			if len(comps) != 1 || comps[0].Err != nil {
				t.Fatalf("queue pair %d: %+v", i, comps)
			}
			comps[0].Buf.Release()
		}
	}()
	runtime.GC()
	if n := len(fb.rings.idle); n != 64 {
		t.Errorf("%d rings idle after every Drain, want 64", n)
	}
	if err := fb.Close(); err != nil {
		t.Fatal(err)
	}
	if n := countFDs(t); n != fdsBefore {
		t.Errorf("%d descriptors open after Close, %d before the shard files were opened", n, fdsBefore)
	}
	if err := fb.Close(); err != nil {
		t.Errorf("second Close: %v", err)
	}
	if n := countFDs(t); n != fdsBefore {
		t.Errorf("second Close changed the descriptor count to %d", n)
	}
	// A batch on the closed backend fails at once and mints no ring.
	late := fb.NewQueuePair()
	late.Submit(0, 0)
	if _, comps := late.Drain(0); len(comps) != 1 || !errors.Is(comps[0].Err, ErrClosed) {
		t.Errorf("batch after Close: %+v", comps)
	}
	if n := countFDs(t); n != fdsBefore || fb.rings.minted != 0 {
		t.Errorf("batch after Close: %d descriptors open, %d rings in existence", n, fb.rings.minted)
	}
}

// TestFileBackendRingRetire: when io_uring_enter itself fails, every read
// in flight on that ring fails, the ring is retired, and the buffers the
// kernel may still own are not recycled; the queue pair's next batch runs
// on a fresh ring.
func TestFileBackendRingRetire(t *testing.T) {
	paths, _, _ := writeShardFiles(t, 2)
	fb := ringBackendOrSkip(t, paths, FileBackendConfig{})
	q := fb.NewQueuePair().(*FileQueue)
	for p := PageID(0); p < 3; p++ {
		q.Submit(p, 0)
	}
	// Point the ring's descriptor at /dev/null: the next enter fails with
	// EOPNOTSUPP, as it would on a ring the kernel has torn down.
	null, err := os.Open(os.DevNull)
	if err != nil {
		t.Fatal(err)
	}
	defer null.Close()
	doomed := q.ring
	if err := syscall.Dup3(int(null.Fd()), doomed.fd, 0); err != nil {
		t.Fatal(err)
	}
	_, comps := q.Drain(0)
	if len(comps) != 3 {
		t.Fatalf("drained %d completions, submitted 3", len(comps))
	}
	for _, c := range comps {
		if c.Err == nil || !strings.Contains(c.Err.Error(), "io_uring enter") || c.Buf != nil {
			t.Errorf("page %d: err %v, buf %v", c.Page, c.Err, c.Buf)
		}
	}
	if n := len(fb.free[0]) + len(fb.free[1]); n != 0 {
		t.Errorf("%d buffers of a retired ring went back to the freelists", n)
	}
	if fb.rings.minted != 0 || len(fb.rings.dead) != 1 || doomed.sqRing != nil {
		t.Errorf("ring not retired: %d in existence, %d dead", fb.rings.minted, len(fb.rings.dead))
	}
	if st := fb.Stats(); st.Errors != 3 {
		t.Errorf("%d read errors recorded, want 3", st.Errors)
	}

	q.Submit(0, 0)
	_, comps = q.Drain(0)
	if len(comps) != 1 || comps[0].Err != nil {
		t.Fatalf("batch after the retire: %+v", comps)
	}
	comps[0].Buf.Release()
	if fb.rings.minted != 1 {
		t.Errorf("%d rings after the next batch, want a fresh one", fb.rings.minted)
	}
}
