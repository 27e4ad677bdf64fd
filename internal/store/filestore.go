package store

import (
	"fmt"
	"io"
	"os"
	"sync"

	"maxembed/internal/layout"
)

// FileStore serves page images from a file written by WriteShard or
// Store.WriteTo, reading pages on demand instead of holding the table in
// memory — the deployment shape the paper assumes, where the embedding
// table lives on the SSD and only the indexes are DRAM-resident. FileStore
// is safe for concurrent use.
//
// OpenFile uses buffered reads; on Linux, OpenFileDirect bypasses the OS
// page cache with O_DIRECT. The header owns the file's first block, so when
// the page size is a multiple of the direct-I/O alignment — every
// configuration the server runs — a page is exactly one aligned read.
type FileStore struct {
	f        *os.File
	pageSize int
	dim      int
	numPages int
	direct   bool // O_DIRECT descriptor; reads must be aligned
	bufs     sync.Pool
	refs     sync.Pool // *PageRef shells for ReadPageRef
}

// OpenFile opens a serialized store for on-demand page reads.
func OpenFile(path string) (*FileStore, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	hdr := make([]byte, headerSize)
	if _, err := io.ReadFull(f, hdr); err != nil {
		f.Close()
		return nil, fmt.Errorf("%w: header: %v", ErrBadStore, err)
	}
	s := &FileStore{f: f}
	if s.pageSize, s.dim, s.numPages, err = parseHeader(hdr); err != nil {
		f.Close()
		return nil, err
	}
	st, err := f.Stat()
	if err != nil {
		f.Close()
		return nil, err
	}
	if want := s.pageOffset(layout.PageID(s.numPages)); st.Size() < want {
		f.Close()
		return nil, fmt.Errorf("%w: file holds %d bytes, need %d", ErrBadStore, st.Size(), want)
	}
	s.bufs.New = func() any {
		b := make([]byte, s.pageSize)
		return &b
	}
	return s, nil
}

// Close releases the underlying file.
func (s *FileStore) Close() error { return s.f.Close() }

// PageSize returns the page size in bytes.
func (s *FileStore) PageSize() int { return s.pageSize }

// Dim returns the embedding dimension.
func (s *FileStore) Dim() int { return s.dim }

// NumPages returns the number of pages.
func (s *FileStore) NumPages() int { return s.numPages }

// Direct reports whether reads bypass the OS page cache (O_DIRECT).
func (s *FileStore) Direct() bool { return s.direct }

// File returns the underlying descriptor. External read executors (the
// ssd file backend's io_uring ring) issue their own reads against it using
// PageSpan geometry; they must not change the descriptor's offset or close
// it.
func (s *FileStore) File() *os.File { return s.f }

// pageOffset is the file offset of page p's first byte.
func (s *FileStore) pageOffset(p layout.PageID) int64 {
	return headerSize + int64(p)*int64(s.pageSize)
}

// windowed reports whether a page read must cover an aligned window wider
// than the page: only under O_DIRECT, and only for a page size that is not
// a multiple of the alignment.
func (s *FileStore) windowed() bool {
	return s.direct && s.pageSize%directIOAlign != 0
}

// ReadBufSize returns the buffer size ReadPageWindow requires: exactly one
// page, or the aligned window enclosing one when reads are windowed.
func (s *FileStore) ReadBufSize() int {
	if s.windowed() {
		return s.pageSize + 2*directIOAlign
	}
	return s.pageSize
}

// NewReadBuf allocates a buffer suitable for ReadPageWindow: aligned for
// the direct path, plain otherwise.
func (s *FileStore) NewReadBuf() []byte {
	if s.direct {
		return alignedBuf(s.ReadBufSize())
	}
	return make([]byte, s.ReadBufSize())
}

// PageSpan returns the file-read geometry of page p: the offset and span
// of the read to issue, and the page's offset within the returned bytes.
// That is the page itself — (headerSize + p×pageSize, pageSize, 0), one
// device block per 4 KiB page — unless reads are windowed, when it is the
// aligned window enclosing the page. External executors (io_uring) use this
// to build submission entries without going through ReadPageWindow.
func (s *FileStore) PageSpan(p layout.PageID) (off int64, span, pageOff int, err error) {
	if int(p) >= s.numPages {
		return 0, 0, 0, fmt.Errorf("store: page %d out of range (%d pages)", p, s.numPages)
	}
	want := s.pageOffset(p)
	if !s.windowed() {
		return want, s.pageSize, 0, nil
	}
	start := want &^ (directIOAlign - 1) // round down to alignment
	span = int(want-start) + s.pageSize
	// Round the span up to a whole number of blocks.
	span = (span + directIOAlign - 1) &^ (directIOAlign - 1)
	return start, span, int(want - start), nil
}

// CheckSpanRead validates the byte count an external executor's read of
// PageSpan(p) geometry returned: a read ending at EOF may be short, but
// the page itself must be fully covered.
func (s *FileStore) CheckSpanRead(p layout.PageID, pageOff, n int, err error) error {
	if covered := n - pageOff; covered < s.pageSize {
		if err == nil {
			err = io.ErrUnexpectedEOF
		}
		return fmt.Errorf("store: read of page %d: %w", p, err)
	}
	return nil
}

// ReadPageWindow reads page p into buf — a caller-owned buffer of at least
// ReadBufSize bytes (aligned when Direct; see NewReadBuf) — and returns
// the page's bytes within it. No pooling, no copies: this is the zero-copy
// primitive the asynchronous file backend's completion buffers are filled
// through; the returned slice aliases buf and stays valid until the caller
// reuses it.
func (s *FileStore) ReadPageWindow(p layout.PageID, buf []byte) ([]byte, error) {
	off, span, pageOff, err := s.PageSpan(p)
	if err != nil {
		return nil, err
	}
	if len(buf) < span {
		return nil, fmt.Errorf("store: window buffer of %d bytes, need %d", len(buf), span)
	}
	n, err := s.f.ReadAt(buf[:span], off)
	if cerr := s.CheckSpanRead(p, pageOff, n, err); cerr != nil {
		return nil, cerr
	}
	return buf[pageOff : pageOff+s.pageSize], nil
}

// ReadPage reads page p into dst (which must be at least PageSize bytes).
//
// dst is an arbitrary caller buffer, so under O_DIRECT the read lands in a
// pooled aligned buffer and the page is copied out — one copy, forced by
// the API shape. Callers that can consume the page in place should use
// ReadPageRef (pooled, copy-free) instead.
func (s *FileStore) ReadPage(p layout.PageID, dst []byte) error {
	if len(dst) < s.pageSize {
		return fmt.Errorf("store: buffer of %d bytes, need %d", len(dst), s.pageSize)
	}
	if !s.direct {
		_, err := s.ReadPageWindow(p, dst)
		return err
	}
	ref, err := s.ReadPageRef(p)
	if err != nil {
		return err
	}
	copy(dst, ref.Bytes())
	ref.Release()
	return nil
}

// PageRef is a pooled, zero-copy view of one page image read by
// ReadPageRef. Bytes stays valid until Release, which returns the buffer
// (and the ref itself) to the store's pools. A PageRef must be released
// exactly once and not used after.
type PageRef struct {
	img []byte
	buf *[]byte
	s   *FileStore
}

// Bytes returns the page image. The slice aliases a pooled buffer; it is
// invalid after Release.
func (r *PageRef) Bytes() []byte { return r.img }

// Release returns the ref's buffer to the store's pool.
func (r *PageRef) Release() {
	s, buf := r.s, r.buf
	r.img, r.buf, r.s = nil, nil, nil
	if s != nil && buf != nil {
		s.bufs.Put(buf)
		s.refs.Put(r)
	}
}

// ReadPageRef reads page p into a pooled buffer and returns a view of its
// image without copying it out. Steady-state calls allocate nothing; the
// caller must Release the ref when done with Bytes.
func (s *FileStore) ReadPageRef(p layout.PageID) (*PageRef, error) {
	bufp := s.bufs.Get().(*[]byte)
	img, err := s.ReadPageWindow(p, *bufp)
	if err != nil {
		s.bufs.Put(bufp)
		return nil, err
	}
	ref, _ := s.refs.Get().(*PageRef)
	if ref == nil {
		ref = new(PageRef)
	}
	ref.img, ref.buf, ref.s = img, bufp, s
	return ref, nil
}

// Extract reads page p, scans its first nSlots slots for key k, verifies
// the slot checksum, and appends the decoded vector to dst (see
// Store.Extract).
func (s *FileStore) Extract(p layout.PageID, k layout.Key, nSlots int, dst []float32) ([]float32, bool, error) {
	ref, err := s.ReadPageRef(p)
	if err != nil {
		return dst, false, err
	}
	defer ref.Release()
	return ExtractFromImage(ref.Bytes(), s.dim, k, nSlots, dst)
}
