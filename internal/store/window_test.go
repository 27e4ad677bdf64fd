package store

import (
	"bytes"
	"errors"
	"io"
	"os"
	"path/filepath"
	"testing"

	"maxembed/internal/embedding"
	"maxembed/internal/layout"
)

// writeStoreWith serializes a store with a chosen geometry — odd page
// sizes exercise the alignment-window math, which only ever sees
// sector-multiple pages in the default configuration.
func writeStoreWith(t *testing.T, pageSize, dim, numKeys int) (string, *Store, *layout.Layout) {
	t.Helper()
	syn, err := embedding.NewSynthesizer(dim, 3)
	if err != nil {
		t.Fatal(err)
	}
	lay := layout.Vanilla(numKeys, embedding.PageCapacity(pageSize, dim))
	s, err := Build(lay, syn, pageSize)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "store.bin")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.WriteTo(f); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	return path, s, lay
}

// TestPageSpanGeometry pins the MXST3 read geometry. A 4096-byte page is one
// device block: its span is the page itself at 4096 + p×4096, direct or
// buffered, and a read buffer is one page. A page size that is not a
// multiple of the alignment still goes through the enclosing aligned window
// under O_DIRECT, and every page read through either geometry equals the
// in-memory image.
func TestPageSpanGeometry(t *testing.T) {
	for _, g := range []struct{ pageSize, dim, keys int }{{4096, 16, 100}, {1032, 4, 50}} {
		path, mem, _ := writeStoreWith(t, g.pageSize, g.dim, g.keys)
		fs, _, err := OpenFileAuto(path)
		if err != nil {
			t.Fatal(err)
		}
		defer fs.Close()
		windowed := fs.Direct() && g.pageSize%directIOAlign != 0
		if want := g.pageSize; !windowed && fs.ReadBufSize() != want {
			t.Fatalf("page size %d: ReadBufSize = %d, want %d", g.pageSize, fs.ReadBufSize(), want)
		}
		buf := fs.NewReadBuf()
		for p := 0; p < fs.NumPages(); p++ {
			off, span, pageOff, err := fs.PageSpan(layout.PageID(p))
			if err != nil {
				t.Fatal(err)
			}
			home := int64(headerSize + p*g.pageSize)
			if !windowed {
				if off != home || span != g.pageSize || pageOff != 0 {
					t.Fatalf("page size %d page %d: span (%d, %d, %d), want (%d, %d, 0)",
						g.pageSize, p, off, span, pageOff, home, g.pageSize)
				}
			} else {
				if off%directIOAlign != 0 || span%directIOAlign != 0 || span > fs.ReadBufSize() {
					t.Fatalf("page %d: unaligned or oversized span %d@%d", p, span, off)
				}
				if off+int64(pageOff) != home || pageOff+g.pageSize > span {
					t.Fatalf("page %d: span %d@%d+%d does not cover the page at %d", p, span, off, pageOff, home)
				}
			}
			img, err := fs.ReadPageWindow(layout.PageID(p), buf)
			if err != nil {
				t.Fatalf("page size %d page %d: %v", g.pageSize, p, err)
			}
			if want, _ := mem.Page(layout.PageID(p)); !bytes.Equal(img, want) {
				t.Fatalf("page size %d page %d: bytes differ from the in-memory image", g.pageSize, p)
			}
		}
		if _, _, _, err := fs.PageSpan(layout.PageID(fs.NumPages())); err == nil {
			t.Error("out-of-range page accepted")
		}
	}
}

// TestReadPageWindowMatches checks the zero-copy window read against the
// in-memory store, on a page size that is NOT a multiple of any sector
// size — the geometry the aligned-window math must absorb.
func TestReadPageWindowMatches(t *testing.T) {
	path, mem, _ := writeStoreWith(t, 1032, 4, 50)
	fs, direct, err := OpenFileAuto(path)
	if err != nil {
		t.Fatal(err)
	}
	defer fs.Close()
	if direct != fs.Direct() {
		t.Fatal("OpenFileAuto direct flag disagrees with the store")
	}
	buf := fs.NewReadBuf()
	for p := 0; p < fs.NumPages(); p++ {
		img, err := fs.ReadPageWindow(layout.PageID(p), buf)
		if err != nil {
			t.Fatalf("page %d: %v", p, err)
		}
		want, _ := mem.Page(layout.PageID(p))
		if len(img) != len(want) {
			t.Fatalf("page %d: %d bytes, want %d", p, len(img), len(want))
		}
		for i := range want {
			if img[i] != want[i] {
				t.Fatalf("page %d byte %d differs", p, i)
			}
		}
	}
	if _, err := fs.ReadPageWindow(0, buf[:1]); err == nil {
		t.Error("undersized window buffer accepted")
	}
}

// TestReadPageWindowShortAtEOF truncates the file under an open store and
// checks that a short read on the last page surfaces as an unexpected-EOF
// error rather than a silently partial page.
func TestReadPageWindowShortAtEOF(t *testing.T) {
	path, _, _ := writeStoreWith(t, 1032, 4, 50)
	fs, err := OpenFile(path)
	if err != nil {
		t.Fatal(err)
	}
	defer fs.Close()
	st, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(path, st.Size()-7); err != nil {
		t.Fatal(err)
	}
	last := layout.PageID(fs.NumPages() - 1)
	buf := fs.NewReadBuf()
	if _, err := fs.ReadPageWindow(last, buf); !errors.Is(err, io.ErrUnexpectedEOF) && !errors.Is(err, io.EOF) {
		t.Fatalf("short last page: err = %v, want EOF-class", err)
	}
	if err := fs.ReadPage(last, make([]byte, fs.PageSize())); err == nil {
		t.Error("ReadPage of short last page succeeded")
	}
	// Earlier pages are intact and must still read.
	if _, err := fs.ReadPageWindow(0, buf); err != nil {
		t.Fatalf("intact page after truncation: %v", err)
	}
}

func TestCheckSpanRead(t *testing.T) {
	path, _, _ := writeStoreWith(t, 1032, 4, 50)
	fs, err := OpenFile(path)
	if err != nil {
		t.Fatal(err)
	}
	defer fs.Close()
	// Fully covered page with a trailing-EOF short read is fine.
	if err := fs.CheckSpanRead(0, 8, 8+fs.PageSize(), io.EOF); err != nil {
		t.Errorf("covered page rejected: %v", err)
	}
	// One byte short of coverage is not, even without an I/O error.
	if err := fs.CheckSpanRead(0, 8, 8+fs.PageSize()-1, nil); !errors.Is(err, io.ErrUnexpectedEOF) {
		t.Errorf("uncovered page: err = %v, want ErrUnexpectedEOF", err)
	}
	// A real error is preserved.
	if err := fs.CheckSpanRead(0, 0, 0, io.ErrClosedPipe); !errors.Is(err, io.ErrClosedPipe) {
		t.Errorf("underlying error lost: %v", err)
	}
}

func TestReadPageRefMatchesReadPage(t *testing.T) {
	path, mem, _ := writeStoreWith(t, 4096, 16, 100)
	fs, _, err := OpenFileAuto(path)
	if err != nil {
		t.Fatal(err)
	}
	defer fs.Close()
	for p := 0; p < fs.NumPages(); p++ {
		ref, err := fs.ReadPageRef(layout.PageID(p))
		if err != nil {
			t.Fatal(err)
		}
		want, _ := mem.Page(layout.PageID(p))
		img := ref.Bytes()
		if len(img) != len(want) {
			t.Fatalf("page %d: %d bytes, want %d", p, len(img), len(want))
		}
		for i := range want {
			if img[i] != want[i] {
				t.Fatalf("page %d byte %d differs", p, i)
			}
		}
		ref.Release()
		if ref.Bytes() != nil {
			t.Fatal("released ref still holds bytes")
		}
	}
	if _, err := fs.ReadPageRef(layout.PageID(fs.NumPages())); err == nil {
		t.Error("out-of-range page accepted")
	}
}

// TestReadPageRefDoesNotAllocate pins the double-buffering fix: the
// pooled-ref read path must be allocation-free at steady state (the old
// direct path Get/Put a pooled window AND copied into a per-call buffer).
func TestReadPageRefDoesNotAllocate(t *testing.T) {
	path, _, _ := writeStoreWith(t, 4096, 16, 100)
	fs, _, err := OpenFileAuto(path)
	if err != nil {
		t.Fatal(err)
	}
	defer fs.Close()
	n := layout.PageID(fs.NumPages())
	var p layout.PageID
	read := func() {
		ref, err := fs.ReadPageRef(p % n)
		if err != nil {
			t.Fatal(err)
		}
		if len(ref.Bytes()) != fs.PageSize() {
			t.Fatal("short page")
		}
		ref.Release()
		p++
	}
	for i := 0; i < 64; i++ {
		read() // warm the buffer and ref pools
	}
	if allocs := testing.AllocsPerRun(200, read); allocs > 0 {
		t.Errorf("ReadPageRef allocates %.1f objects/op, want 0", allocs)
	}
}

func BenchmarkFileStoreReadPageRef(b *testing.B) {
	path, _, _ := benchStoreFile(b)
	fs, _, err := OpenFileAuto(path)
	if err != nil {
		b.Fatal(err)
	}
	defer fs.Close()
	n := layout.PageID(fs.NumPages())
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ref, err := fs.ReadPageRef(layout.PageID(i) % n)
		if err != nil {
			b.Fatal(err)
		}
		ref.Release()
	}
}

func BenchmarkFileStoreReadPage(b *testing.B) {
	path, _, _ := benchStoreFile(b)
	fs, _, err := OpenFileAuto(path)
	if err != nil {
		b.Fatal(err)
	}
	defer fs.Close()
	n := layout.PageID(fs.NumPages())
	dst := make([]byte, fs.PageSize())
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := fs.ReadPage(layout.PageID(i)%n, dst); err != nil {
			b.Fatal(err)
		}
	}
}

func benchStoreFile(b *testing.B) (string, *Store, *layout.Layout) {
	b.Helper()
	syn, err := embedding.NewSynthesizer(64, 3)
	if err != nil {
		b.Fatal(err)
	}
	lay := layout.Vanilla(2000, embedding.PageCapacity(4096, 64))
	s, err := Build(lay, syn, 4096)
	if err != nil {
		b.Fatal(err)
	}
	path := filepath.Join(b.TempDir(), "store.bin")
	f, err := os.Create(path)
	if err != nil {
		b.Fatal(err)
	}
	if _, err := s.WriteTo(f); err != nil {
		b.Fatal(err)
	}
	if err := f.Close(); err != nil {
		b.Fatal(err)
	}
	return path, s, lay
}
