package store

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"maxembed/internal/embedding"
	"maxembed/internal/layout"
)

// TestWriteShardMatchesBuild: the streamed shard file is, byte for byte,
// what the in-memory build serializes — one shard against Build, three
// against BuildSharded, over seven home pages (the last one part full) and
// a replica page, which leaves the last stripe ragged across three shards.
func TestWriteShardMatchesBuild(t *testing.T) {
	syn, err := embedding.NewSynthesizer(16, 3)
	if err != nil {
		t.Fatal(err)
	}
	lay := layout.Vanilla(380, embedding.PageCapacity(4096, 16))
	if _, err := lay.AddReplicaPage([]layout.Key{0, 200, 379}); err != nil {
		t.Fatal(err)
	}
	if lay.NumPages() != 8 {
		t.Fatalf("fixture has %d pages, want 8", lay.NumPages())
	}
	for _, shards := range []int{1, 3} {
		sh, err := BuildSharded(lay, syn, 4096, shards)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < shards; i++ {
			var want, got bytes.Buffer
			if _, err := sh.Shard(i).WriteTo(&want); err != nil {
				t.Fatal(err)
			}
			n, err := WriteShard(&got, lay, syn, 4096, i, shards)
			if err != nil {
				t.Fatal(err)
			}
			if n != int64(got.Len()) || !bytes.Equal(got.Bytes(), want.Bytes()) {
				t.Fatalf("shard %d of %d: streamed %d bytes (reported %d) differ from the built store's %d",
					i, shards, got.Len(), n, want.Len())
			}
		}
	}
	one, err := Build(lay, syn, 4096)
	if err != nil {
		t.Fatal(err)
	}
	var want, got bytes.Buffer
	if _, err := one.WriteTo(&want); err != nil {
		t.Fatal(err)
	}
	if _, err := WriteShard(&got, lay, syn, 4096, 0, 1); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), want.Bytes()) {
		t.Fatal("the one-shard stream differs from Build(...).WriteTo")
	}
}

func TestWriteShardErrors(t *testing.T) {
	_, lay, syn := buildTestStore(t)
	for _, c := range []struct{ shard, shards int }{{0, 0}, {-1, 2}, {2, 2}} {
		if _, err := WriteShard(&bytes.Buffer{}, lay, syn, 4096, c.shard, c.shards); err == nil {
			t.Errorf("shard %d of %d accepted", c.shard, c.shards)
		}
	}
	if _, err := WriteShard(&bytes.Buffer{}, lay, syn, 64, 0, 1); err == nil {
		t.Error("a page smaller than the layout's capacity accepted")
	}
	if _, err := WriteShard(failingWriter{}, lay, syn, 4096, 0, 1); !errors.Is(err, errWriterFull) {
		t.Errorf("write error lost: %v", err)
	}
}

var errWriterFull = errors.New("writer full")

type failingWriter struct{}

func (failingWriter) Write([]byte) (int, error) { return 0, errWriterFull }

// TestOlderFormatsRejected: an MXST1 or MXST2 file keeps its pages at other
// offsets (and MXST1 has no checksums); both readers must say so instead of
// serving garbage.
func TestOlderFormatsRejected(t *testing.T) {
	s, _, _ := buildTestStore(t)
	var buf bytes.Buffer
	if _, err := s.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	for _, magic := range []string{"MXST1\n", "MXST2\n"} {
		old := append([]byte(magic), buf.Bytes()[len(magic):]...)
		path := filepath.Join(t.TempDir(), "old.bin")
		if err := os.WriteFile(path, old, 0o644); err != nil {
			t.Fatal(err)
		}
		_, ferr := OpenFile(path)
		_, rerr := ReadFrom(bytes.NewReader(old))
		for _, err := range []error{ferr, rerr} {
			if !errors.Is(err, ErrBadStore) || !strings.Contains(fmt.Sprint(err), "rebuild") {
				t.Errorf("%q store: err = %v, want ErrBadStore asking for a rebuild", magic, err)
			}
		}
	}
}

// fuzzSeeds are serialized stores and near misses for the two readers.
func fuzzSeeds(f *testing.F) {
	syn, err := embedding.NewSynthesizer(4, 3)
	if err != nil {
		f.Fatal(err)
	}
	lay := layout.Vanilla(20, embedding.PageCapacity(128, 4))
	var buf bytes.Buffer
	if _, err := WriteShard(&buf, lay, syn, 128, 0, 1); err != nil {
		f.Fatal(err)
	}
	whole := buf.Bytes()
	f.Add(whole)
	f.Add(whole[:headerSize])
	f.Add(whole[:len(whole)-1])
	f.Add([]byte("MXST2\n"))
	huge := bytes.Clone(whole[:headerSize+128])
	copy(huge[len(storeMagic):], []byte{0, 0, 0, 0x80, 1, 0, 0, 0, 0xff, 0xff, 0xff, 0xff})
	f.Add(huge)
}

// checkFuzzedStore holds what both readers promise for arbitrary bytes:
// ErrBadStore, or — checked here — a store that fits inside the input, whose
// every page is the input's bytes at the page's offset and whose slots
// either verify, payload inside the image, or report ErrCorrupt.
func checkFuzzedStore(t *testing.T, data []byte, pageSize, dim, numPages int, page func(p int) ([]byte, error)) {
	t.Helper()
	if need := headerSize + pageSize*numPages; need > len(data) {
		t.Fatalf("accepted a %d×%d-byte store from %d bytes", numPages, pageSize, len(data))
	}
	for p := 0; p < min(numPages, 64); p++ {
		img, err := page(p)
		if err != nil {
			t.Fatalf("page %d: %v", p, err)
		}
		at := headerSize + p*pageSize
		if !bytes.Equal(img, data[at:at+pageSize]) {
			t.Fatalf("page %d is not the input's bytes", p)
		}
		for _, k := range []layout.Key{0, layout.Key(p), 0xffffffff} {
			off, found, err := VerifySlotInImage(img, dim, k, -1)
			switch {
			case err != nil && !errors.Is(err, ErrCorrupt):
				t.Fatalf("page %d key %d: %v", p, k, err)
			case err == nil && found && (off < 8 || off+4*dim > len(img)):
				t.Fatalf("page %d key %d: payload [%d, %d) outside the %d-byte image", p, k, off, off+4*dim, len(img))
			}
		}
	}
}

func FuzzReadFrom(f *testing.F) {
	fuzzSeeds(f)
	f.Fuzz(func(t *testing.T, data []byte) {
		s, err := ReadFrom(bytes.NewReader(data))
		if err != nil {
			if !errors.Is(err, ErrBadStore) {
				t.Fatalf("err = %v, want ErrBadStore", err)
			}
			return
		}
		// io.ReadAll starts at 512 bytes and grows by appending.
		if cap(s.data) > 2*len(data)+512 {
			t.Fatalf("%d bytes of input grew a %d-byte store", len(data), cap(s.data))
		}
		checkFuzzedStore(t, data, s.PageSize(), s.Dim(), s.NumPages(), func(p int) ([]byte, error) {
			return s.Page(layout.PageID(p))
		})
	})
}

func FuzzOpenFile(f *testing.F) {
	fuzzSeeds(f)
	dir := f.TempDir()
	f.Fuzz(func(t *testing.T, data []byte) {
		path := filepath.Join(dir, "fuzz.bin")
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		s, err := OpenFile(path)
		if err != nil {
			if !errors.Is(err, ErrBadStore) {
				t.Fatalf("err = %v, want ErrBadStore", err)
			}
			return
		}
		defer s.Close()
		var img []byte
		checkFuzzedStore(t, data, s.PageSize(), s.Dim(), s.NumPages(), func(p int) ([]byte, error) {
			if img == nil {
				img = make([]byte, s.PageSize()) // a page exists, so the file is at least this long
			}
			return img, s.ReadPage(layout.PageID(p), img)
		})
	})
}
