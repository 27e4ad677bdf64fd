package cache

// What PutIfHotter goes by is how often a key was recently worth a slot,
// and most keys it compares are not cached, so the counts cannot live in
// the entries. Each shard keeps them TinyLFU-style: a count-min sketch of
// 4-bit counters that every recorded event — a hit, a PutIfHotter call —
// bumps under the lock the shard already holds, and that forgets: once a
// window of events has been recorded every counter is halved, so a key that
// stopped being read decays below the newcomers within a few windows
// whatever it had accumulated. Nothing here is configurable; width and
// window follow from the shard's capacity.

const (
	// sketchRows is the count-min depth: a key's estimate is the least of
	// its sketchRows counters, one per row.
	sketchRows = 4
	// sketchCountersPerSlot sizes the sketch: 4-bit counters per cache slot
	// of the shard, over all rows (16 counters = 8 bytes per slot). A cache
	// of a few percent of the table is offered tens of distinct keys per
	// slot; at this width its decisions read within 1% of the pages exact
	// per-key counts read, at half of it 1–3% more (EXPERIMENTS.md, PR 21).
	sketchCountersPerSlot = 16
	// sketchWindow is the number of recorded events between halvings, per
	// cache slot of the shard. Ten capacities of history tell a recurring
	// key from a one-off; a longer window buys little in steady state and
	// makes the cache slower to follow a popularity shift (EXPERIMENTS.md,
	// PR 21).
	sketchWindow = 10
	// sketchMax is where a 4-bit counter saturates.
	sketchMax = 15
)

// sketchSeeds are the rows' hash multipliers (odd, unrelated bit patterns).
var sketchSeeds = [sketchRows]uint64{
	0x9e3779b97f4a7c15, 0xc2b2ae3d27d4eb4f, 0x165667b19e3779f9, 0xd6e8feb86659fd93,
}

// sketch is one shard's frequency estimate, guarded by the shard's lock. A
// word holds 16 counters; row i owns nibbles 4i…4i+3 of every word, so a
// key's four counters never collide with each other.
type sketch struct {
	table  []uint64
	mask   uint64 // len(table)-1, a power of two
	events int    // recorded since the last halving
	window int    // halve when events reaches this
	resets int64  // halvings so far
}

// newSketch returns the sketch of a shard with the given capacity.
func newSketch(capacity int) sketch {
	capacity = max(capacity, 1)
	words := 1
	for words*16 < capacity*sketchCountersPerSlot {
		words *= 2
	}
	return sketch{
		table:  make([]uint64, words),
		mask:   uint64(words - 1),
		window: sketchWindow * capacity,
	}
}

// counter locates row's counter for hash h: the word, and the counter's bit
// offset in it. The high half of the product picks both; it depends on
// every bit of h, whatever the quality of the caller's Hasher.
func (s *sketch) counter(h uint64, row int) (word *uint64, shift uint) {
	x := h * sketchSeeds[row]
	return &s.table[x>>32&s.mask], 4 * (4*uint(row) + uint(x>>62))
}

// add records one event for h, halving every counter when the event
// completes a window.
func (s *sketch) add(h uint64) {
	for row := range sketchRows {
		if w, shift := s.counter(h, row); *w>>shift&sketchMax < sketchMax {
			*w += 1 << shift
		}
	}
	if s.events++; s.events >= s.window {
		for i, w := range s.table {
			s.table[i] = w >> 1 & 0x7777777777777777
		}
		s.events = 0
		s.resets++
	}
}

// estimate returns how many events the current windows remember for h: at
// most sketchMax, never less than the true decayed count below that, and
// more only where h shares a counter in every row.
func (s *sketch) estimate(h uint64) int {
	least := sketchMax
	for row := range sketchRows {
		w, shift := s.counter(h, row)
		least = min(least, int(*w>>shift&sketchMax))
	}
	return least
}
