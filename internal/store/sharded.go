package store

import (
	"fmt"

	"maxembed/internal/embedding"
	"maxembed/internal/layout"
)

// Sharded holds one layout's page images striped across n per-device
// stores: global page p lives in shard p mod n at local index p div n —
// the same striping ssd.Array uses, so each shard store holds exactly the
// pages its device serves and store-backed integrity paths (per-slot
// checksums, corruption detection) work per shard. Sharded implements the
// serving engine's PageSource over the global page space.
type Sharded struct {
	shards   []*Store
	pageSize int
	dim      int
	numPages int
}

// BuildSharded packs vectors from the synthesizer into per-shard page
// images per the layout. shards must match the device array's member
// count; shards == 1 produces a single shard byte-identical to Build.
func BuildSharded(lay *layout.Layout, syn *embedding.Synthesizer, pageSize, shards int) (*Sharded, error) {
	if shards < 1 {
		return nil, fmt.Errorf("store: sharded store needs at least 1 shard, got %d", shards)
	}
	enc, err := newSlotEncoder(lay, syn, pageSize)
	if err != nil {
		return nil, err
	}
	numPages := lay.NumPages()
	s := &Sharded{
		shards:   make([]*Store, shards),
		pageSize: pageSize,
		dim:      syn.Dim(),
		numPages: numPages,
	}
	for i := range s.shards {
		local := shardPages(numPages, i, shards)
		s.shards[i] = &Store{
			pageSize: pageSize,
			dim:      s.dim,
			numPages: local,
			data:     make([]byte, local*pageSize),
		}
	}
	for p, keys := range lay.Pages {
		base := p / shards * pageSize
		enc.encodePage(s.shards[p%shards].data[base:base+pageSize], keys)
	}
	return s, nil
}

// shardPages returns how many of numPages striped pages shard i of n holds:
// ceil((numPages - i) / n), which i < n keeps non-negative.
func shardPages(numPages, i, n int) int {
	return (numPages - i + n - 1) / n
}

// PageSize returns the page size in bytes.
func (s *Sharded) PageSize() int { return s.pageSize }

// Dim returns the embedding dimension.
func (s *Sharded) Dim() int { return s.dim }

// NumPages returns the number of global pages.
func (s *Sharded) NumPages() int { return s.numPages }

// NumShards returns the shard count.
func (s *Sharded) NumShards() int { return len(s.shards) }

// Shard returns shard i's per-device store, addressed by local pages.
func (s *Sharded) Shard(i int) *Store { return s.shards[i] }

// ReadPage copies global page p's image into dst from its owning shard,
// implementing the serving engine's PageSource.
func (s *Sharded) ReadPage(p layout.PageID, dst []byte) error {
	if int(p) >= s.numPages {
		return fmt.Errorf("store: page %d out of range (%d pages)", p, s.numPages)
	}
	n := layout.PageID(len(s.shards))
	return s.shards[int(p%n)].ReadPage(p/n, dst)
}

// Extract scans global page p for key k with checksum verification,
// routing through the owning shard.
func (s *Sharded) Extract(p layout.PageID, k layout.Key, nSlots int, dst []float32) ([]float32, bool, error) {
	if int(p) >= s.numPages {
		return dst, false, fmt.Errorf("store: page %d out of range (%d pages)", p, s.numPages)
	}
	n := layout.PageID(len(s.shards))
	return s.shards[int(p%n)].Extract(p/n, k, nSlots, dst)
}

// route maps global page p to its owning shard store and local page.
func (s *Sharded) route(p layout.PageID) (*Store, layout.PageID, error) {
	if int(p) >= s.numPages {
		return nil, 0, fmt.Errorf("store: page %d out of range (%d pages)", p, s.numPages)
	}
	n := layout.PageID(len(s.shards))
	return s.shards[int(p%n)], p / n, nil
}

// SlotBytes returns the raw bytes of slot i on global page p; see
// Store.SlotBytes.
func (s *Sharded) SlotBytes(p layout.PageID, i int) ([]byte, error) {
	sh, local, err := s.route(p)
	if err != nil {
		return nil, err
	}
	return sh.SlotBytes(local, i)
}

// PutSlotBytes overwrites slot i of global page p; see Store.PutSlotBytes.
func (s *Sharded) PutSlotBytes(p layout.PageID, i int, src []byte) error {
	sh, local, err := s.route(p)
	if err != nil {
		return err
	}
	return sh.PutSlotBytes(local, i, src)
}

// CorruptSlot injects at-rest bit rot into slot i of global page p; see
// Store.CorruptSlot.
func (s *Sharded) CorruptSlot(p layout.PageID, i int) error {
	sh, local, err := s.route(p)
	if err != nil {
		return err
	}
	return sh.CorruptSlot(local, i)
}

// VerifySlot checks slot i of global page p against its stored checksum;
// see Store.VerifySlot.
func (s *Sharded) VerifySlot(p layout.PageID, i int) (layout.Key, error) {
	sh, local, err := s.route(p)
	if err != nil {
		return 0, err
	}
	return sh.VerifySlot(local, i)
}
