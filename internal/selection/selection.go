// Package selection implements the online phase's page-selection
// algorithms (§6): given a query (a set of embedding keys) over a
// replicated layout, choose a small set of SSD pages that covers every
// key. Exact minimization is set cover (NP-hard); the package provides
//
//   - Greedy: the classic greedy set-cover approximation the paper cites
//     as its starting point (and shows is too slow at §6's 56% overhead);
//   - OnePass: MaxEmbed's selection (§6.1) — keys sorted by ascending
//     replica count, each uncovered key picks the candidate page covering
//     the most still-uncovered keys, and covered keys are skipped, letting
//     replicated keys hitchhike on earlier reads;
//   - index shrinking: the Forward Index keeps only the first k pages per
//     key (§6.1/Fig 7), bounding both memory and per-key scan cost.
//
// Selected pages are delivered through a callback so the serving engine
// can issue asynchronous SSD reads mid-selection (pipelining, §6.2).
package selection

import (
	"fmt"
	"slices"

	"maxembed/internal/layout"
)

// Key is an embedding key.
type Key = layout.Key

// PageID is an SSD page id.
type PageID = layout.PageID

// Index is the DRAM-resident pair of indexes the online phase queries:
// the Forward Index (key → candidate pages, home first, truncated to the
// index limit) and the Invert Index (page → keys it holds). An Index is
// immutable after construction and safe for concurrent use.
type Index struct {
	forward [][]PageID
	invert  [][]Key
	numKeys int
}

// NewIndex builds the indexes from a layout. indexLimit k > 0 truncates
// each key's candidate list to its first k pages (home page always first);
// k <= 0 keeps all replicas.
func NewIndex(lay *layout.Layout, indexLimit int) *Index {
	idx := &Index{
		forward: make([][]PageID, lay.NumKeys),
		invert:  lay.Pages,
		numKeys: lay.NumKeys,
	}
	for k := 0; k < lay.NumKeys; k++ {
		pages := lay.PagesOf(Key(k), nil)
		if indexLimit > 0 && len(pages) > indexLimit {
			pages = pages[:indexLimit]
		}
		idx.forward[k] = pages
	}
	return idx
}

// NumKeys returns the key-space size.
func (idx *Index) NumKeys() int { return idx.numKeys }

// NumPages returns the page count.
func (idx *Index) NumPages() int { return len(idx.invert) }

// Candidates returns the candidate pages of k (home first). The slice is
// shared; callers must not modify it.
func (idx *Index) Candidates(k Key) []PageID { return idx.forward[k] }

// PageKeys returns the keys stored on page p. The slice is shared; callers
// must not modify it.
func (idx *Index) PageKeys(p PageID) []Key { return idx.invert[p] }

// ReplicaCount returns the number of candidate pages of k after index
// shrinking — the sort key of §6.1 step ❶.
func (idx *Index) ReplicaCount(k Key) int { return len(idx.forward[k]) }

// MemoryEntries returns the total number of forward-index entries, the
// quantity index shrinking bounds (§7.1).
func (idx *Index) MemoryEntries() int {
	n := 0
	for _, f := range idx.forward {
		n += len(f)
	}
	return n
}

// Stats counts the work one selection performed, feeding the online-phase
// cost accounting (§7.2).
type Stats struct {
	// Keys is the number of distinct, non-skipped keys in the query.
	Keys int
	// Pages is the number of pages selected (= SSD reads issued).
	Pages int
	// CandidatePages is the number of forward-index entries examined.
	CandidatePages int
	// InvertScans is the number of invert-index key entries examined —
	// the dominant selection cost, bounded to k·q by index shrinking.
	InvertScans int
}

// EmitFunc receives one selected page, the query keys it newly covers, and
// the cumulative work statistics up to and including this selection, which
// lets callers charge incremental software cost before issuing the read.
// covered aliases internal scratch and is only valid during the call.
type EmitFunc func(p PageID, covered []Key, sofar Stats)

// Selector runs selections over one Index. It holds reusable per-worker
// scratch; a Selector is NOT safe for concurrent use — give each worker
// its own (the Index may be shared).
type Selector struct {
	idx *Index

	epoch      int32
	queryMark  []int32 // key in current query
	coverMark  []int32 // key already covered
	keys       []Key
	coveredBuf []Key
	tieBreak   func(cand, best PageID) bool
	order      []uint64 // ❶'s sort scratch: replica count<<32 | key
}

// NewSelector returns a selector over idx.
func NewSelector(idx *Index) *Selector {
	return &Selector{
		idx:       idx,
		queryMark: make([]int32, idx.numKeys),
		coverMark: make([]int32, idx.numKeys),
	}
}

// SetTieBreak installs (or clears, with nil) a page-score tie-breaker for
// OnePass: when two candidate pages cover the same number of uncovered
// keys, prefer(cand, best) == true switches the pick to cand. The serving
// engine uses this on multi-device backends to steer score-ties toward the
// least-loaded shard; with no tie-breaker the first candidate in forward-
// index order wins, preserving the historical deterministic choice.
func (s *Selector) SetTieBreak(prefer func(cand, best PageID) bool) {
	s.tieBreak = prefer
}

// ErrKeyRange reports a query key outside the layout's key space.
var ErrKeyRange = fmt.Errorf("selection: key out of range")

// prepare dedupes the query, drops skipped keys, and stamps query
// membership. It returns the distinct non-skipped keys in s.keys.
func (s *Selector) prepare(query []Key, skip func(Key) bool) error {
	s.epoch++
	s.keys = s.keys[:0]
	for _, k := range query {
		if int(k) >= s.idx.numKeys {
			return fmt.Errorf("%w: %d >= %d", ErrKeyRange, k, s.idx.numKeys)
		}
		if s.queryMark[k] == s.epoch {
			continue
		}
		s.queryMark[k] = s.epoch
		if skip != nil && skip(k) {
			// Mark pre-covered so a page fetched for other keys does not
			// re-report a key that is already served elsewhere (cache).
			s.coverMark[k] = s.epoch
			continue
		}
		s.keys = append(s.keys, k)
	}
	return nil
}

// cover marks every query member on page p as covered and returns them.
// The result aliases s.coveredBuf.
func (s *Selector) cover(p PageID) []Key {
	s.coveredBuf = s.coveredBuf[:0]
	for _, k := range s.idx.invert[p] {
		if s.queryMark[k] == s.epoch && s.coverMark[k] != s.epoch {
			s.coverMark[k] = s.epoch
			s.coveredBuf = append(s.coveredBuf, k)
		}
	}
	return s.coveredBuf
}

// OnePass runs MaxEmbed's one-pass selection (§6.1). skip (optional)
// filters keys served elsewhere (e.g. DRAM cache hits); emit is invoked
// once per selected page, in selection order, enabling pipelined reads.
func (s *Selector) OnePass(query []Key, skip func(Key) bool, emit EmitFunc) (Stats, error) {
	return s.onePass(query, skip, emit, true)
}

// OnePassUnsorted is OnePass without the ascending replica-count ordering
// (§6.1 step ❶) — an ablation isolating the ordering's contribution. Keys
// are visited in query order, so highly replicated keys no longer
// hitchhike on the single-candidate reads of cold keys and trigger full
// candidate scans instead.
func (s *Selector) OnePassUnsorted(query []Key, skip func(Key) bool, emit EmitFunc) (Stats, error) {
	return s.onePass(query, skip, emit, false)
}

func (s *Selector) onePass(query []Key, skip func(Key) bool, emit EmitFunc, sorted bool) (Stats, error) {
	var st Stats
	if err := s.prepare(query, skip); err != nil {
		return st, err
	}
	st.Keys = len(s.keys)
	// ❶ Sort by ascending replica count; ties by key id for determinism.
	// Packed with the count above the key, integer order is that order,
	// and sorting integers needs no comparator calls.
	idx := s.idx
	if sorted {
		s.order = s.order[:0]
		for _, k := range s.keys {
			s.order = append(s.order, uint64(len(idx.forward[k]))<<32|uint64(k))
		}
		slices.Sort(s.order)
		for i, o := range s.order {
			s.keys[i] = Key(o)
		}
	}
	for _, k := range s.keys {
		if s.coverMark[k] == s.epoch {
			continue // hitchhiked on an earlier read
		}
		// ❷ Candidate pages from the Forward Index; ❸ pick the one
		// covering the most uncovered query keys via the Invert Index.
		var best PageID
		bestCovers := -1
		for _, p := range idx.forward[k] {
			st.CandidatePages++
			covers := 0
			for _, u := range idx.invert[p] {
				st.InvertScans++
				if s.queryMark[u] == s.epoch && s.coverMark[u] != s.epoch {
					covers++
				}
			}
			if covers > bestCovers ||
				(covers == bestCovers && s.tieBreak != nil && s.tieBreak(p, best)) {
				best = p
				bestCovers = covers
			}
		}
		// ❹ Read the page; mark everything it covers.
		covered := s.cover(best)
		st.Pages++
		if emit != nil {
			emit(best, covered, st)
		}
	}
	return st, nil
}

// Greedy runs the classic greedy set-cover approximation: repeatedly pick,
// among all candidate pages of all uncovered keys, the page covering the
// most uncovered keys. It examines every candidate of every uncovered key
// each round — the O(|S|·|Q|) cost §6 attributes to the naive approach.
func (s *Selector) Greedy(query []Key, skip func(Key) bool, emit EmitFunc) (Stats, error) {
	var st Stats
	if err := s.prepare(query, skip); err != nil {
		return st, err
	}
	st.Keys = len(s.keys)
	idx := s.idx
	remaining := st.Keys
	for remaining > 0 {
		var best PageID
		bestCovers := 0
		for _, k := range s.keys {
			if s.coverMark[k] == s.epoch {
				continue
			}
			for _, p := range idx.forward[k] {
				st.CandidatePages++
				covers := 0
				for _, u := range idx.invert[p] {
					st.InvertScans++
					if s.queryMark[u] == s.epoch && s.coverMark[u] != s.epoch {
						covers++
					}
				}
				if covers > bestCovers || (covers == bestCovers && bestCovers > 0 && p < best) {
					best = p
					bestCovers = covers
				}
			}
		}
		if bestCovers == 0 {
			// Cannot happen with a valid index (every key's home page
			// covers at least itself); guard against corrupt input.
			return st, fmt.Errorf("selection: no page covers remaining keys")
		}
		covered := s.cover(best)
		remaining -= len(covered)
		st.Pages++
		if emit != nil {
			emit(best, covered, st)
		}
	}
	return st, nil
}
