package ssd

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"unsafe"

	"maxembed/internal/embedding"
	"maxembed/internal/layout"
	"maxembed/internal/store"
)

// writeShardFiles writes a sharded store to disk, one file per shard.
func writeShardFiles(t *testing.T, shards int) ([]string, *store.Sharded, *layout.Layout) {
	t.Helper()
	syn, err := embedding.NewSynthesizer(16, 3)
	if err != nil {
		t.Fatal(err)
	}
	lay := layout.Vanilla(200, embedding.PageCapacity(4096, 16))
	sh, err := store.BuildSharded(lay, syn, 4096, shards)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	paths := make([]string, shards)
	for i := range paths {
		paths[i] = filepath.Join(dir, fmt.Sprintf("shard.bin.%d", i))
		f, err := os.Create(paths[i])
		if err != nil {
			t.Fatal(err)
		}
		if _, err := sh.Shard(i).WriteTo(f); err != nil {
			t.Fatal(err)
		}
		if err := f.Close(); err != nil {
			t.Fatal(err)
		}
	}
	return paths, sh, lay
}

func openShardFiles(t *testing.T, paths []string) []*store.FileStore {
	t.Helper()
	files := make([]*store.FileStore, len(paths))
	for i, path := range paths {
		fs, _, err := store.OpenFileAuto(path)
		if err != nil {
			t.Fatal(err)
		}
		files[i] = fs
	}
	return files
}

// openBackend assembles a backend over the shard files; several backends
// may share one set of paths.
func openBackend(t *testing.T, paths []string, cfg FileBackendConfig) *FileBackend {
	t.Helper()
	fb, err := NewFileBackend(openShardFiles(t, paths), cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { fb.Close() })
	return fb
}

// buildBackendFiles writes a sharded store to disk and opens it per shard.
func buildBackendFiles(t *testing.T, shards int) ([]*store.FileStore, *store.Sharded, *layout.Layout) {
	t.Helper()
	paths, sh, lay := writeShardFiles(t, shards)
	return openShardFiles(t, paths), sh, lay
}

func newTestFileBackend(t *testing.T, shards int, cfg FileBackendConfig) (*FileBackend, *store.Sharded, *layout.Layout) {
	t.Helper()
	paths, sh, lay := writeShardFiles(t, shards)
	return openBackend(t, paths, cfg), sh, lay
}

func readAllPages(t *testing.T, fb *FileBackend, sh *store.Sharded) {
	t.Helper()
	qp := fb.NewQueuePair()
	numPages := fb.NumPages()
	img := make([]byte, sh.PageSize())
	const batch = 16
	for base := 0; base < numPages; base += batch {
		now := fb.Frontier()
		n := 0
		for p := base; p < numPages && p < base+batch; p++ {
			issue := qp.Submit(PageID(p), now)
			if issue < now {
				t.Fatalf("page %d issued at %d, before now %d", p, issue, now)
			}
			n++
		}
		done, comps := qp.Drain(now)
		if done < now {
			t.Fatalf("drain returned %d, before now %d", done, now)
		}
		if len(comps) != n {
			t.Fatalf("drained %d completions, submitted %d", len(comps), n)
		}
		last := int64(-1)
		for _, c := range comps {
			if c.Err != nil {
				t.Fatalf("page %d: %v", c.Page, c.Err)
			}
			if c.Buf == nil {
				t.Fatalf("page %d: nil completion buffer", c.Page)
			}
			if c.CompleteNS < last {
				t.Fatal("completions not ordered by completion time")
			}
			last = c.CompleteNS
			if c.CompleteNS <= c.SubmitNS {
				t.Fatalf("page %d: completion %d not after submit %d", c.Page, c.CompleteNS, c.SubmitNS)
			}
			if fb.Direct() {
				// One device block per page: the read was issued at an
				// aligned offset, page-sized, into a page-sized aligned buffer.
				shard, local := fb.ShardOf(c.Page)
				off, span, pageOff, err := fb.files[shard].PageSpan(local)
				align := store.DirectIOAlign()
				if err != nil || off%int64(align) != 0 || span != fb.PageSize() || pageOff != 0 {
					t.Fatalf("page %d: read geometry (%d, %d, %d), err %v", c.Page, off, span, pageOff, err)
				}
				if d := c.Buf.data; len(d) != span || uintptr(unsafe.Pointer(&d[0]))%uintptr(align) != 0 {
					t.Fatalf("page %d: %d-byte completion buffer at %p", c.Page, len(d), &d[0])
				}
			}
			if err := sh.ReadPage(c.Page, img); err != nil {
				t.Fatal(err)
			}
			got := c.Buf.Bytes()
			if len(got) != len(img) {
				t.Fatalf("page %d: %d bytes, want %d", c.Page, len(got), len(img))
			}
			for i := range img {
				if got[i] != img[i] {
					t.Fatalf("page %d byte %d differs from in-memory store", c.Page, i)
				}
			}
			c.Buf.Release()
		}
	}
}

func TestFileBackendServesPages(t *testing.T) {
	for _, shards := range []int{1, 3} {
		fb, sh, _ := newTestFileBackend(t, shards, FileBackendConfig{ForcePread: true})
		readAllPages(t, fb, sh)
		st := fb.Stats()
		if st.Reads != int64(fb.NumPages()) {
			t.Errorf("shards=%d: %d reads recorded, want %d", shards, st.Reads, fb.NumPages())
		}
		if st.Errors != 0 {
			t.Errorf("shards=%d: %d errors", shards, st.Errors)
		}
		if fb.Frontier() == 0 {
			t.Errorf("shards=%d: frontier did not advance", shards)
		}
		if fb.LiveShards() != shards {
			t.Errorf("shards=%d: %d live shards", shards, fb.LiveShards())
		}
		lat := fb.ShardReadLatency(0)
		if lat.Count == 0 || lat.SumNS < 0 {
			t.Errorf("shards=%d: empty latency histogram", shards)
		}
	}
}

// readBatches reads pages through one fresh queue pair, batch pages per
// Drain, and returns a copy of every page image in submission order plus
// the queue pair. Every completion buffer is released, and must then be
// unreferenced.
func readBatches(t *testing.T, fb *FileBackend, pages []PageID, batch int) ([][]byte, QueuePair) {
	t.Helper()
	qp := fb.NewQueuePair()
	imgs := make([][]byte, 0, len(pages))
	for base := 0; base < len(pages); base += batch {
		chunk := pages[base:min(base+batch, len(pages))]
		now := fb.Frontier()
		for _, p := range chunk {
			qp.Submit(p, now)
		}
		_, comps := qp.Drain(now)
		if len(comps) != len(chunk) {
			t.Fatalf("drained %d completions, submitted %d", len(comps), len(chunk))
		}
		byPage := map[PageID][]Completion{}
		for _, c := range comps {
			if c.Err != nil || c.Buf == nil {
				t.Fatalf("page %d: err %v, buf %v", c.Page, c.Err, c.Buf)
			}
			byPage[c.Page] = append(byPage[c.Page], c)
		}
		for _, p := range chunk {
			c := byPage[p][0]
			byPage[p] = byPage[p][1:]
			imgs = append(imgs, append([]byte(nil), c.Buf.Bytes()...))
			c.Buf.Release()
			if rc := c.Buf.rc.Load(); rc != 0 {
				t.Fatalf("page %d: buffer holds %d references after release", p, rc)
			}
		}
	}
	return imgs, qp
}

// ringBackendOrSkip opens an io_uring backend over paths, skipping the
// test where the kernel interface is unavailable.
func ringBackendOrSkip(t *testing.T, paths []string, cfg FileBackendConfig) *FileBackend {
	t.Helper()
	fb := openBackend(t, paths, cfg)
	if fb.ExecutorKind() != "io_uring" {
		t.Skipf("io_uring unavailable here (executor %s)", fb.ExecutorKind())
	}
	return fb
}

// TestFileBackendURingMatchesPread: one ring drives four shard fds and
// returns what the pread pool returns — page images, per-shard read
// counts, per-shard queue high-water marks.
func TestFileBackendURingMatchesPread(t *testing.T) {
	paths, sh, _ := writeShardFiles(t, 4)
	ring := ringBackendOrSkip(t, paths, FileBackendConfig{})
	pread := openBackend(t, paths, FileBackendConfig{ForcePread: true})
	readAllPages(t, ring, sh)
	ring.Reset()

	var pages []PageID
	for round := 0; round < 3; round++ {
		for p := 0; p < ring.NumPages(); p++ {
			pages = append(pages, PageID(p))
		}
	}
	ringImgs, ringQP := readBatches(t, ring, pages, 11)
	preadImgs, preadQP := readBatches(t, pread, pages, 11)
	for i := range pages {
		if !bytes.Equal(ringImgs[i], preadImgs[i]) {
			t.Fatalf("page %d: io_uring image differs from pread image", pages[i])
		}
	}
	for s := 0; s < 4; s++ {
		if r, p := ring.Shard(s).Stats().Reads, pread.Shard(s).Stats().Reads; r != p || r == 0 {
			t.Errorf("shard %d: %d io_uring reads, %d pread reads", s, r, p)
		}
		if r, p := ringQP.HighWater(s), preadQP.HighWater(s); r != p {
			t.Errorf("shard %d: high water %d on io_uring, %d on pread", s, r, p)
		}
	}
	if st := ring.Stats(); st.Errors != 0 || st.Reads != int64(len(pages)) {
		t.Errorf("io_uring stats: %+v", st)
	}
	// 11 pages a batch through one enter each: the counter must show it.
	enters, ok := ring.RingEnters()
	if batches := int64((len(pages) + 10) / 11); !ok || enters < batches || enters > 2*batches {
		t.Errorf("%d io_uring_enter calls for %d batches", enters, batches)
	}
	if _, ok := pread.RingEnters(); ok {
		t.Error("pread executor reports ring enters")
	}
}

// TestFileBackendRingFull: a batch four times the ring's size goes through
// one queue pair — Submit flushes and reaps to make room — and every page
// comes back as the pread path returns it, every buffer released.
func TestFileBackendRingFull(t *testing.T) {
	prof := P5800X
	prof.QueueDepth = 8
	paths, _, _ := writeShardFiles(t, 2)
	ring := ringBackendOrSkip(t, paths, FileBackendConfig{Profile: prof})
	pread := openBackend(t, paths, FileBackendConfig{Profile: prof, ForcePread: true})
	pages := make([]PageID, 4*prof.QueueDepth) // a power of two: the ring has exactly that many entries
	for i := range pages {
		pages[i] = PageID((i * 7) % ring.NumPages())
	}
	ringImgs, _ := readBatches(t, ring, pages, len(pages))
	preadImgs, _ := readBatches(t, pread, pages, len(pages))
	for i := range pages {
		if !bytes.Equal(ringImgs[i], preadImgs[i]) {
			t.Fatalf("read %d (page %d): io_uring image differs from pread image", i, pages[i])
		}
	}
	if st := ring.Stats(); st.Errors != 0 || st.Reads != int64(len(pages)) {
		t.Errorf("stats after a ring-full batch: %+v", st)
	}
}

// TestFileBackendConcurrentQueuePairs: eight workers, each on its own
// queue pair, borrow and return rings over four shards; every completion
// is accounted once in the stats and in the latency histograms.
func TestFileBackendConcurrentQueuePairs(t *testing.T) {
	for _, forcePread := range []bool{false, true} {
		fb, _, _ := newTestFileBackend(t, 4, FileBackendConfig{ForcePread: forcePread})
		const workers, batches, perBatch = 8, 200, 6
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				qp := fb.NewQueuePair()
				for b := 0; b < batches; b++ {
					now := fb.Frontier()
					for i := 0; i < perBatch; i++ {
						qp.Submit(PageID((w+b*perBatch+i)%fb.NumPages()), now)
					}
					_, comps := qp.Drain(now)
					if len(comps) != perBatch {
						t.Errorf("worker %d batch %d: %d completions", w, b, len(comps))
						return
					}
					for _, c := range comps {
						if c.Err != nil {
							t.Errorf("worker %d page %d: %v", w, c.Page, c.Err)
							return
						}
						c.Buf.Release()
					}
				}
			}(w)
		}
		wg.Wait()
		const total = workers * batches * perBatch
		var observed int64
		for s := 0; s < fb.NumShards(); s++ {
			observed += fb.ShardReadLatency(s).Count
		}
		if st := fb.Stats(); st.Reads != total || st.Errors != 0 || observed != total {
			t.Errorf("%s: %d reads, %d errors, %d latency observations, want %d/0/%d",
				fb.ExecutorKind(), st.Reads, st.Errors, observed, total, total)
		}
	}
}

// freeBufs empties and refills a shard's buffer freelist, failing on a
// buffer that was recycled twice.
func freeBufs(t *testing.T, fb *FileBackend, shard int) int {
	t.Helper()
	seen := map[*PageBuf]bool{}
	for len(fb.free[shard]) > 0 {
		b := <-fb.free[shard]
		if seen[b] {
			t.Fatalf("shard %d: buffer recycled twice", shard)
		}
		seen[b] = true
	}
	for b := range seen {
		fb.free[shard] <- b
	}
	return len(seen)
}

// TestFileBackendReadErrors: a page past the end of the table and a shard
// file truncated after open both surface as failed completions without a
// buffer; the buffer goes back to the freelist exactly once and the queue
// pair keeps serving.
func TestFileBackendReadErrors(t *testing.T) {
	for _, forcePread := range []bool{false, true} {
		paths, _, _ := writeShardFiles(t, 2)
		fb := openBackend(t, paths, FileBackendConfig{ForcePread: forcePread})
		qp := fb.NewQueuePair()
		batch := func(page PageID) Completion {
			t.Helper()
			now := fb.Frontier()
			qp.Submit(page, now)
			_, comps := qp.Drain(now)
			if len(comps) != 1 || comps[0].Page != page {
				t.Fatalf("%s: page %d drained as %+v", fb.ExecutorKind(), page, comps)
			}
			if comps[0].Buf != nil {
				comps[0].Buf.Release()
			}
			return comps[0]
		}
		mustFail := func(page PageID, what string) {
			t.Helper()
			shard, _ := fb.ShardOf(page)
			if c := batch(page); c.Err == nil || c.Buf != nil {
				t.Fatalf("%s: %s: err %v, buf %v", fb.ExecutorKind(), what, c.Err, c.Buf)
			}
			if n := freeBufs(t, fb, shard); n != 1 {
				t.Fatalf("%s: %s: %d buffers on shard %d's freelist, want 1", fb.ExecutorKind(), what, n, shard)
			}
		}
		mustFail(PageID(fb.NumPages()), "page past the end") // shard 0 or 1
		if err := os.Truncate(paths[1], 100); err != nil {
			t.Fatal(err)
		}
		mustFail(1, "truncated shard file")
		if c := batch(0); c.Err != nil {
			t.Fatalf("%s: batch after the failures: %v", fb.ExecutorKind(), c.Err)
		}
		if st := fb.Stats(); st.Errors != 2 || st.Reads != 3 {
			t.Errorf("%s: stats %+v, want 3 reads with 2 errors", fb.ExecutorKind(), st)
		}
	}
}

// TestFileBackendReadPage: the backend is a page source over the only copy
// of the table. A synchronous ReadPage returns the shard file's bytes for
// every global page, and is accounted as the device read it is: one read of
// one page's bytes, on the owning shard.
func TestFileBackendReadPage(t *testing.T) {
	for _, shards := range []int{1, 3} {
		fb, sh, _ := newTestFileBackend(t, shards, FileBackendConfig{})
		if fb.Dim() != sh.Dim() || fb.PageSize() != sh.PageSize() {
			t.Fatalf("shards=%d: dim %d page size %d, want %d and %d", shards, fb.Dim(), fb.PageSize(), sh.Dim(), sh.PageSize())
		}
		got, want := make([]byte, fb.PageSize()), make([]byte, sh.PageSize())
		for p := PageID(0); int(p) < fb.NumPages(); p++ {
			if err := fb.ReadPage(p, got); err != nil {
				t.Fatalf("shards=%d page %d: %v", shards, p, err)
			}
			if err := sh.ReadPage(p, want); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, want) {
				t.Fatalf("shards=%d page %d: bytes differ from the built store", shards, p)
			}
		}
		if err := fb.ReadPage(PageID(fb.NumPages()), got); err == nil {
			t.Errorf("shards=%d: page past the end read", shards)
		}
		if err := fb.ReadPage(0, got[:10]); err == nil {
			t.Errorf("shards=%d: short buffer accepted", shards)
		}
		st := fb.Stats()
		if pages := int64(fb.NumPages()); st.Reads != pages || st.Errors != 0 || st.BytesRead != pages*int64(fb.PageSize()) {
			t.Errorf("shards=%d: stats %+v after %d page reads", shards, st, pages)
		}
		for s, ss := range fb.ShardStats() {
			if ss.Reads == 0 || fb.ShardReadLatency(s).Count != ss.Reads {
				t.Errorf("shards=%d: shard %d recorded %d reads, %d latencies", shards, s, ss.Reads, fb.ShardReadLatency(s).Count)
			}
		}
	}
}

// TestFileBackendClosed: a read asked of a closed backend — through a queue
// pair that served before the Close, through a fresh one, or synchronously
// — fails at once with ErrClosed and no buffer instead of blocking in Drain
// or sending on the pread pool's closed channel, and counts as a read
// error. Run under -race with a short -timeout.
func TestFileBackendClosed(t *testing.T) {
	for _, forcePread := range []bool{false, true} {
		fb, _, _ := newTestFileBackend(t, 2, FileBackendConfig{ForcePread: forcePread})
		kind := fb.ExecutorKind()
		old := fb.NewQueuePair()
		old.Submit(0, 0)
		_, comps := old.Drain(0)
		if len(comps) != 1 || comps[0].Err != nil {
			t.Fatalf("%s: batch before Close: %+v", kind, comps)
		}
		comps[0].Buf.Release()
		if err := fb.Close(); err != nil {
			t.Fatal(err)
		}
		fb.Reset()
		for name, qp := range map[string]QueuePair{"used": old, "fresh": fb.NewQueuePair()} {
			for round := 0; round < 2; round++ {
				for p := PageID(0); p < 5; p++ {
					qp.Submit(p, 0)
				}
				if n := qp.Outstanding(0); n != 5 {
					t.Errorf("%s, %s queue pair: %d outstanding, want 5", kind, name, n)
				}
				_, comps := qp.Drain(0)
				if len(comps) != 5 {
					t.Fatalf("%s, %s queue pair: drained %d completions, submitted 5", kind, name, len(comps))
				}
				for _, c := range comps {
					if !errors.Is(c.Err, ErrClosed) || c.Buf != nil {
						t.Errorf("%s, %s queue pair, page %d: err %v, buf %v", kind, name, c.Page, c.Err, c.Buf)
					}
				}
			}
		}
		if err := fb.ReadPage(0, make([]byte, fb.PageSize())); !errors.Is(err, ErrClosed) {
			t.Errorf("%s: ReadPage after Close: %v", kind, err)
		}
		if st := fb.Stats(); st.Reads != 20 || st.Errors != 20 {
			t.Errorf("%s: stats %+v, want 20 reads, all errors", kind, st)
		}
	}
}

func TestFileBackendStriping(t *testing.T) {
	fb, _, _ := newTestFileBackend(t, 3, FileBackendConfig{ForcePread: true})
	for p := PageID(0); int(p) < fb.NumPages(); p++ {
		shard, local := fb.ShardOf(p)
		if got := fb.GlobalOf(shard, local); got != p {
			t.Fatalf("GlobalOf(ShardOf(%d)) = %d", p, got)
		}
		if shard != int(p)%3 || local != p/3 {
			t.Fatalf("page %d routed to shard %d local %d", p, shard, local)
		}
	}
}

func TestFileBackendBufferRecycling(t *testing.T) {
	fb, _, _ := newTestFileBackend(t, 1, FileBackendConfig{ForcePread: true})
	qp := fb.NewQueuePair()
	seen := map[*PageBuf]bool{}
	// Many more batches than the queue depth's worth of buffers: the
	// working set must stay bounded by recycling.
	for round := 0; round < 50; round++ {
		now := fb.Frontier()
		for p := 0; p < 4; p++ {
			qp.Submit(PageID(p), now)
		}
		_, comps := qp.Drain(now)
		for _, c := range comps {
			seen[c.Buf] = true
			c.Buf.Release()
		}
	}
	if len(seen) > 8 {
		t.Errorf("%d distinct buffers for a working set of 4", len(seen))
	}
}

func TestFileBackendRetainKeepsBufferAlive(t *testing.T) {
	fb, sh, _ := newTestFileBackend(t, 1, FileBackendConfig{ForcePread: true})
	qp := fb.NewQueuePair()
	now := fb.Frontier()
	qp.Submit(0, now)
	_, comps := qp.Drain(now)
	buf := comps[0].Buf
	buf.Retain()
	buf.Release() // drainer's reference
	want, _ := sh.Shard(0).Page(0)
	got := buf.Bytes()
	if got == nil {
		t.Fatal("retained buffer lost its image")
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("byte %d differs under outstanding retain", i)
		}
	}
	buf.Release()
	if buf.Bytes() != nil {
		t.Error("fully released buffer still holds an image")
	}
}

func TestFileBackendReset(t *testing.T) {
	fb, sh, _ := newTestFileBackend(t, 2, FileBackendConfig{ForcePread: true})
	readAllPages(t, fb, sh)
	fb.Reset()
	if st := fb.Stats(); st.Reads != 0 {
		t.Errorf("stats survived reset: %+v", st)
	}
	if fb.Frontier() != 0 {
		t.Error("frontier survived reset")
	}
	if lat := fb.ShardReadLatency(0); lat.Count != 0 {
		t.Error("latency histogram survived reset")
	}
	// The backend must still serve after a reset.
	readAllPages(t, fb, sh)
}

func TestFileBackendConfigErrors(t *testing.T) {
	if _, err := NewFileBackend(nil, FileBackendConfig{}); err == nil {
		t.Error("empty file set accepted")
	}
	files, _, _ := buildBackendFiles(t, 3)
	// Shard 0 must hold the largest local page count; swapping the first
	// and last shard of an uneven stripe breaks the shape.
	if files[0].NumPages() > files[2].NumPages() {
		swapped := []*store.FileStore{files[2], files[1], files[0]}
		if _, err := NewFileBackend(swapped, FileBackendConfig{ForcePread: true}); err == nil {
			t.Error("misordered stripe accepted")
		}
	}
	fb, err := NewFileBackend(files, FileBackendConfig{ForcePread: true})
	if err != nil {
		t.Fatal(err)
	}
	fb.Close()
}
