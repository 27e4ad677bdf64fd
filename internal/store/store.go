// Package store materializes an embedding layout into SSD page images.
//
// Each page packs up to d slots of [4-byte key | 4-byte CRC32C | dim×float32
// vector]; the remainder of the page is zero. Pages are interpreted through
// the layout's page→keys mapping (the DRAM-resident invert index), as in
// the paper's system; the per-slot key header and checksum make every slot
// self-verifying, which the serving engine uses to detect payload
// corruption and recover from an alternate replica page.
//
// Serialized (MXST3), a store is one header block followed by the raw page
// images: page p sits at byte headerSize + p×pageSize. The header — magic,
// page size, dim, page count, zero padding — owns a whole direct-I/O block
// so that a page whose size is a multiple of the block is itself one
// aligned device read. Build holds every image in memory (the simulator's
// payload source, and the reference the tests compare against); WriteShard
// streams the same bytes to a file one page at a time, which is how the
// file backend gets a table that exists on the SSD only.
package store

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math"

	"maxembed/internal/embedding"
	"maxembed/internal/layout"
)

// ErrCorrupt reports a slot whose stored checksum does not match its
// payload: the page image was damaged between write and read.
var ErrCorrupt = errors.New("store: slot checksum mismatch")

// castagnoli is the CRC32C table; the polynomial NVMe itself uses for
// end-to-end data protection.
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// slotChecksum computes the checksum of one slot from its key header and
// vector payload bytes.
func slotChecksum(keyHdr, vec []byte) uint32 {
	return crc32.Update(crc32.Checksum(keyHdr, castagnoli), castagnoli, vec)
}

// VerifySlotInImage scans the first nSlots slots of a page image for key k
// and verifies the matching slot's checksum in place, returning the byte
// offset of the slot's vector payload within img (payload length is
// 4×dim): the serving path verifies here and hands out a view of img
// instead of copying the vector out. found reports whether the key was
// seen; a found slot that fails verification returns an ErrCorrupt-wrapped
// error. Pass nSlots < 0 to scan every slot that fits.
func VerifySlotInImage(img []byte, dim int, k layout.Key, nSlots int) (payloadOff int, found bool, err error) {
	slot := embedding.SlotSize(dim)
	max := len(img) / slot
	if nSlots < 0 || nSlots > max {
		nSlots = max
	}
	for i := 0; i < nSlots; i++ {
		off := i * slot
		if binary.LittleEndian.Uint32(img[off:]) != k {
			continue
		}
		want := binary.LittleEndian.Uint32(img[off+4:])
		if got := slotChecksum(img[off:off+4], img[off+8:off+slot]); got != want {
			return 0, true, fmt.Errorf("%w: key %d slot %d (stored %08x, computed %08x)",
				ErrCorrupt, k, i, want, got)
		}
		return off + 8, true, nil
	}
	return 0, false, nil
}

// ExtractFromImage is VerifySlotInImage plus the decode: it appends key
// k's verified vector to dst. The second result reports whether the key
// was found.
func ExtractFromImage(img []byte, dim int, k layout.Key, nSlots int, dst []float32) ([]float32, bool, error) {
	off, found, err := VerifySlotInImage(img, dim, k, nSlots)
	if err != nil || !found {
		return dst, found, err
	}
	dst, err = embedding.DecodeVector(img[off:off+4*dim], dim, dst)
	return dst, err == nil, err
}

// Store holds the page images for one layout.
type Store struct {
	pageSize int
	dim      int
	numPages int
	data     []byte // numPages × pageSize
}

// slotEncoder packs a page's slots from the synthesizer: the one place the
// [key | crc | vector] slot layout is written. Build, BuildSharded and
// WriteShard all go through it, so an in-memory store and a streamed shard
// file cannot differ.
type slotEncoder struct {
	syn  *embedding.Synthesizer
	slot int
	vec  []float32
}

// newSlotEncoder checks that the layout's pages fit pageSize-byte images of
// syn's vectors.
func newSlotEncoder(lay *layout.Layout, syn *embedding.Synthesizer, pageSize int) (*slotEncoder, error) {
	dim := syn.Dim()
	slot := embedding.SlotSize(dim)
	if slot > pageSize { // PageCapacity never reports less than one slot
		return nil, fmt.Errorf("store: a %d-byte slot (dim %d) does not fit a %d-byte page", slot, dim, pageSize)
	}
	if fit := embedding.PageCapacity(pageSize, dim); lay.Capacity > fit {
		return nil, fmt.Errorf("store: layout capacity %d exceeds page fit %d (page %d B, dim %d)",
			lay.Capacity, fit, pageSize, dim)
	}
	return &slotEncoder{syn: syn, slot: slot}, nil
}

// encodePage writes one slot per key at the front of img, which must be
// zero beyond them.
func (e *slotEncoder) encodePage(img []byte, keys []layout.Key) {
	for i, k := range keys {
		b := img[i*e.slot : (i+1)*e.slot]
		binary.LittleEndian.PutUint32(b, k)
		e.vec = e.syn.Vector(k, e.vec[:0])
		embedding.EncodeVector(e.vec, b[8:8])
		binary.LittleEndian.PutUint32(b[4:], slotChecksum(b[:4], b[8:]))
	}
}

// Build packs vectors from the synthesizer into page images per the layout.
func Build(lay *layout.Layout, syn *embedding.Synthesizer, pageSize int) (*Store, error) {
	sh, err := BuildSharded(lay, syn, pageSize, 1)
	if err != nil {
		return nil, err
	}
	return sh.shards[0], nil
}

// PageSize returns the page size in bytes.
func (s *Store) PageSize() int { return s.pageSize }

// Dim returns the embedding dimension.
func (s *Store) Dim() int { return s.dim }

// NumPages returns the number of pages.
func (s *Store) NumPages() int { return s.numPages }

// Page returns the raw image of page p. The slice aliases internal storage
// and must not be modified.
func (s *Store) Page(p layout.PageID) ([]byte, error) {
	if int(p) >= s.numPages {
		return nil, fmt.Errorf("store: page %d out of range (%d pages)", p, s.numPages)
	}
	return s.data[int(p)*s.pageSize : (int(p)+1)*s.pageSize], nil
}

// Extract scans page p for key k, verifies the slot checksum, and appends
// its vector to dst. The second result reports whether the key was found in
// the page's first nSlots slots (pass the layout's page population, or -1
// to scan the whole page).
func (s *Store) Extract(p layout.PageID, k layout.Key, nSlots int, dst []float32) ([]float32, bool, error) {
	img, err := s.Page(p)
	if err != nil {
		return dst, false, err
	}
	return ExtractFromImage(img, s.dim, k, nSlots, dst)
}

// ReadPage copies page p's image into dst, which must be at least PageSize
// bytes. It is the PageSource payload path the serving engine extracts
// from: the copy stands in for the DMA into a host buffer, so callers may
// mutate dst (e.g. injected corruption) without damaging the store.
func (s *Store) ReadPage(p layout.PageID, dst []byte) error {
	img, err := s.Page(p)
	if err != nil {
		return err
	}
	if len(dst) < s.pageSize {
		return fmt.Errorf("store: buffer of %d bytes, need %d", len(dst), s.pageSize)
	}
	copy(dst[:s.pageSize], img)
	return nil
}

// SlotKey returns the key header of slot i on page p.
func (s *Store) SlotKey(p layout.PageID, i int) (layout.Key, error) {
	img, err := s.Page(p)
	if err != nil {
		return 0, err
	}
	slot := embedding.SlotSize(s.dim)
	if i < 0 || (i+1)*slot > s.pageSize {
		return 0, fmt.Errorf("store: slot %d out of range", i)
	}
	return binary.LittleEndian.Uint32(img[i*slot:]), nil
}

// slotRange bounds slot i of page p, returning its byte range within the
// store's data.
func (s *Store) slotRange(p layout.PageID, i int) (lo, hi int, err error) {
	if int(p) >= s.numPages {
		return 0, 0, fmt.Errorf("store: page %d out of range (%d pages)", p, s.numPages)
	}
	slot := embedding.SlotSize(s.dim)
	if i < 0 || (i+1)*slot > s.pageSize {
		return 0, 0, fmt.Errorf("store: slot %d out of range", i)
	}
	lo = int(p)*s.pageSize + i*slot
	return lo, lo + slot, nil
}

// SlotBytes returns the raw bytes of slot i on page p ([key | crc | vec]).
// The slice aliases internal storage and must not be modified; a slot's
// bytes are position-independent, so they can be installed verbatim at the
// same key's slot on any other page via PutSlotBytes — the scrubber's
// repair primitive.
func (s *Store) SlotBytes(p layout.PageID, i int) ([]byte, error) {
	lo, hi, err := s.slotRange(p, i)
	if err != nil {
		return nil, err
	}
	return s.data[lo:hi], nil
}

// PutSlotBytes overwrites slot i of page p with src, which must be exactly
// one slot long (typically another page's SlotBytes for the same key).
func (s *Store) PutSlotBytes(p layout.PageID, i int, src []byte) error {
	lo, hi, err := s.slotRange(p, i)
	if err != nil {
		return err
	}
	if len(src) != hi-lo {
		return fmt.Errorf("store: slot write of %d bytes, want %d", len(src), hi-lo)
	}
	copy(s.data[lo:hi], src)
	return nil
}

// CorruptSlot flips payload bits of slot i on page p in place — at-rest
// bit rot the next checksum verification will catch. Unlike the serving
// engine's injected read corruption (which damages only the host's copy),
// this damages the image itself, which is what a scrubber must find.
func (s *Store) CorruptSlot(p layout.PageID, i int) error {
	lo, _, err := s.slotRange(p, i)
	if err != nil {
		return err
	}
	s.data[lo+8] ^= 0xA5 // first payload byte, past the key and crc headers
	return nil
}

// VerifySlot recomputes slot i of page p's checksum against its stored
// header, returning the slot's key. Only occupied slots carry a stored
// checksum (Build leaves the rest of the page zero), so callers must
// verify exactly the layout's populated slot range of each page.
func (s *Store) VerifySlot(p layout.PageID, i int) (layout.Key, error) {
	lo, hi, err := s.slotRange(p, i)
	if err != nil {
		return 0, err
	}
	b := s.data[lo:hi]
	k := binary.LittleEndian.Uint32(b)
	want := binary.LittleEndian.Uint32(b[4:])
	if got := slotChecksum(b[:4], b[8:]); got != want {
		return k, fmt.Errorf("%w: key %d page %d slot %d (stored %08x, computed %08x)",
			ErrCorrupt, k, p, i, want, got)
	}
	return k, nil
}

// storeMagic versions the serialized format. MXST2 added the per-slot
// checksum; MXST3 moved the page data from byte 18 to the second block (see
// the package comment). Older files are rejected: an MXST1 store cannot be
// verified and an MXST2 one has every page at the wrong offset.
const storeMagic = "MXST3\n"

// headerSize is the length of the serialized header: one direct-I/O block,
// of which the magic and three little-endian uint32 fields use the first 18
// bytes.
const headerSize = directIOAlign

// ErrBadStore reports a malformed serialized store.
var ErrBadStore = errors.New("store: malformed store stream")

// headerBlock serializes a store header.
func headerBlock(pageSize, dim, numPages int) []byte {
	hdr := make([]byte, headerSize)
	n := copy(hdr, storeMagic)
	binary.LittleEndian.PutUint32(hdr[n:], uint32(pageSize))
	binary.LittleEndian.PutUint32(hdr[n+4:], uint32(dim))
	binary.LittleEndian.PutUint32(hdr[n+8:], uint32(numPages))
	return hdr
}

// parseHeader decodes a headerBlock and rejects what no writer produces:
// another format version, a zero field, a slot larger than the page, or a
// size that overflows a file offset.
func parseHeader(hdr []byte) (pageSize, dim, numPages int, err error) {
	n := len(storeMagic)
	switch magic := string(hdr[:n]); magic {
	case storeMagic:
	case "MXST1\n", "MXST2\n":
		return 0, 0, 0, fmt.Errorf("%w: %q is an older format; rebuild the store", ErrBadStore, magic)
	default:
		return 0, 0, 0, fmt.Errorf("%w: bad magic %q", ErrBadStore, magic)
	}
	pageSize = int(binary.LittleEndian.Uint32(hdr[n:]))
	dim = int(binary.LittleEndian.Uint32(hdr[n+4:]))
	numPages = int(binary.LittleEndian.Uint32(hdr[n+8:]))
	if pageSize <= 0 || dim <= 0 || numPages < 0 || embedding.SlotSize(dim) > pageSize ||
		int64(numPages) > (math.MaxInt64-headerSize)/int64(pageSize) {
		return 0, 0, 0, fmt.Errorf("%w: implausible header %d/%d/%d", ErrBadStore, pageSize, dim, numPages)
	}
	return pageSize, dim, numPages, nil
}

// WriteTo serializes the store (header block + raw page images).
func (s *Store) WriteTo(w io.Writer) (int64, error) {
	n, err := w.Write(headerBlock(s.pageSize, s.dim, s.numPages))
	if err != nil {
		return int64(n), err
	}
	m, err := w.Write(s.data)
	return int64(n + m), err
}

// WriteShard streams shard's share of the layout's page images (global
// pages shard, shard+shards, ...) to w, one page image in memory at a time.
// The bytes are exactly BuildSharded(lay, syn, pageSize, shards).
// Shard(shard).WriteTo(w) — with one shard, Build(...).WriteTo(w) — without
// the table ever being resident.
func WriteShard(w io.Writer, lay *layout.Layout, syn *embedding.Synthesizer, pageSize, shard, shards int) (int64, error) {
	if shards < 1 || shard < 0 || shard >= shards {
		return 0, fmt.Errorf("store: shard %d of %d", shard, shards)
	}
	enc, err := newSlotEncoder(lay, syn, pageSize)
	if err != nil {
		return 0, err
	}
	bw := bufio.NewWriterSize(w, 64<<10)
	n, err := bw.Write(headerBlock(pageSize, syn.Dim(), shardPages(lay.NumPages(), shard, shards)))
	written := int64(n)
	img := make([]byte, pageSize)
	for p := shard; err == nil && p < lay.NumPages(); p += shards {
		clear(img)
		enc.encodePage(img, lay.Pages[p])
		n, err = bw.Write(img)
		written += int64(n)
	}
	if err != nil {
		return written, err
	}
	return written, bw.Flush()
}

// ReadFrom deserializes a store written by WriteTo or WriteShard.
func ReadFrom(r io.Reader) (*Store, error) {
	hdr := make([]byte, headerSize)
	if _, err := io.ReadFull(r, hdr); err != nil {
		return nil, fmt.Errorf("%w: header: %v", ErrBadStore, err)
	}
	pageSize, dim, numPages, err := parseHeader(hdr)
	if err != nil {
		return nil, err
	}
	const maxBytes = 1 << 36
	total := int64(pageSize) * int64(numPages)
	if total > maxBytes {
		return nil, fmt.Errorf("%w: implausible size %d", ErrBadStore, total)
	}
	// ReadAll grows with the data actually present: a hostile header must
	// not force a giant allocation.
	data, err := io.ReadAll(io.LimitReader(r, total))
	if err == nil && int64(len(data)) < total {
		err = io.ErrUnexpectedEOF
	}
	if err != nil {
		return nil, fmt.Errorf("%w: page data: %d of %d bytes: %v", ErrBadStore, len(data), total, err)
	}
	return &Store{pageSize: pageSize, dim: dim, numPages: numPages, data: data}, nil
}
