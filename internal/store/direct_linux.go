//go:build linux

package store

import (
	"errors"
	"fmt"
	"io"
	"os"
	"syscall"
)

// OpenFileDirect opens a serialized store for page reads that bypass the
// OS page cache (O_DIRECT) — the access mode the paper's SPDK deployment
// implies, where the DRAM cache is managed explicitly (CacheLib) and
// double-caching in the kernel would waste memory and distort measurements.
//
// O_DIRECT demands sector-aligned offsets, sizes, and buffer addresses.
// The header owns the file's first block, so pages whose size is a multiple
// of the alignment are read as they are; any other page size is read
// through the aligned window enclosing the page (FileStore.PageSpan).
//
// Filesystems without O_DIRECT support (notably tmpfs) make Open or the
// first read fail with EINVAL; callers should fall back to OpenFile.
func OpenFileDirect(path string) (*FileStore, error) {
	// Read the header through a normal descriptor first.
	plain, err := OpenFile(path)
	if err != nil {
		return nil, err
	}
	plain.Close()

	f, err := os.OpenFile(path, os.O_RDONLY|syscall.O_DIRECT, 0)
	if err != nil {
		return nil, fmt.Errorf("store: O_DIRECT open: %w", err)
	}
	s := &FileStore{
		f:        f,
		pageSize: plain.pageSize,
		dim:      plain.dim,
		numPages: plain.numPages,
		direct:   true,
	}
	s.bufs.New = func() any {
		b := alignedBuf(s.ReadBufSize())
		return &b
	}
	// Probe: some filesystems accept the open but fail reads. A store
	// smaller than one alignment block legitimately answers the probe with
	// a short read at EOF — only a zero-byte or erroring probe disqualifies
	// the direct path.
	probe := alignedBuf(directIOAlign)
	if n, err := f.ReadAt(probe, 0); err != nil && !(errors.Is(err, io.EOF) && n > 0) {
		f.Close()
		return nil, fmt.Errorf("store: O_DIRECT read probe: %w", err)
	}
	return s, nil
}
