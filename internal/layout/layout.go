// Package layout defines the embedding-to-SSD-page placement produced by
// the offline phase (partitioning + replication) and consumed by the online
// phase (index construction, page selection) and the page store. It is the
// narrow waist between MaxEmbed's two halves.
package layout

import (
	"fmt"
	"slices"
	"sort"
)

// Key identifies an embedding. Keys are dense: 0..NumKeys-1.
type Key = uint32

// PageID identifies an SSD page: 0..NumPages-1.
type PageID = uint32

// Layout maps every embedding key to one home page and zero or more
// replica pages, and every page to the keys stored on it.
//
// Invariants (checked by Validate):
//   - every key has exactly one home page, and that page lists the key;
//   - every replica page of a key lists the key;
//   - every key listed on a page has that page as home or replica;
//   - no page holds more than Capacity keys, and no key appears twice on
//     one page.
type Layout struct {
	// NumKeys is the size of the key space.
	NumKeys int
	// Capacity is the maximum keys per page (d in the paper), derived
	// from the SSD page size and the embedding dimension.
	Capacity int
	// Pages lists the keys stored on each page.
	Pages [][]Key
	// Home maps each key to the page holding its primary copy.
	Home []PageID
	// Replicas maps each key to pages holding extra copies (never the
	// home page). Nil/empty for unreplicated keys.
	Replicas [][]PageID
}

// NumPages returns the number of SSD pages the layout occupies.
func (l *Layout) NumPages() int { return len(l.Pages) }

// ReplicaCount returns 1 + the number of replica pages of k — the total
// number of pages holding k. The online phase sorts query keys by this
// (§6.1 step ❶).
func (l *Layout) ReplicaCount(k Key) int {
	if l.Replicas == nil {
		return 1
	}
	return 1 + len(l.Replicas[k])
}

// PagesOf appends k's pages (home first, then replicas) to dst and returns
// it. Passing a reused dst[:0] avoids per-lookup allocation.
func (l *Layout) PagesOf(k Key, dst []PageID) []PageID {
	dst = append(dst, l.Home[k])
	if l.Replicas != nil {
		dst = append(dst, l.Replicas[k]...)
	}
	return dst
}

// ReplicationRatio returns r: the number of replica key-slots divided by
// NumKeys. A layout with no replication has ratio 0.
func (l *Layout) ReplicationRatio() float64 {
	if l.NumKeys == 0 {
		return 0
	}
	extra := 0
	for _, r := range l.Replicas {
		extra += len(r)
	}
	return float64(extra) / float64(l.NumKeys)
}

// Stats summarizes a layout.
type Stats struct {
	NumKeys          int
	NumPages         int
	Capacity         int
	ReplicaSlots     int
	ReplicationRatio float64
	MeanKeysPerPage  float64
	MaxReplicaCount  int
}

// ComputeStats returns summary statistics.
func (l *Layout) ComputeStats() Stats {
	s := Stats{
		NumKeys:          l.NumKeys,
		NumPages:         l.NumPages(),
		Capacity:         l.Capacity,
		ReplicationRatio: l.ReplicationRatio(),
		MaxReplicaCount:  1,
	}
	slots := 0
	for _, p := range l.Pages {
		slots += len(p)
	}
	if l.NumPages() > 0 {
		s.MeanKeysPerPage = float64(slots) / float64(l.NumPages())
	}
	for k := 0; k < l.NumKeys; k++ {
		rc := l.ReplicaCount(Key(k))
		s.ReplicaSlots += rc - 1
		if rc > s.MaxReplicaCount {
			s.MaxReplicaCount = rc
		}
	}
	return s
}

// Validate checks the layout invariants and returns the first violation.
// Its only allocation is one uint32 per key: serving.New runs it on every
// layout, and on a server that makes no garbage per lookup what start-up
// leaves behind is the process's peak.
func (l *Layout) Validate() error {
	if len(l.Home) != l.NumKeys {
		return fmt.Errorf("layout: Home has %d entries, want %d", len(l.Home), l.NumKeys)
	}
	if l.Replicas != nil && len(l.Replicas) != l.NumKeys {
		return fmt.Errorf("layout: Replicas has %d entries, want %d", len(l.Replicas), l.NumKeys)
	}
	if l.Capacity <= 0 {
		return fmt.Errorf("layout: non-positive capacity %d", l.Capacity)
	}
	// Page-side checks. lastPage[k] is one more than the last page seen to
	// list k: a page that lists a key twice finds its own number there.
	lastPage := make([]uint32, l.NumKeys)
	for p, keys := range l.Pages {
		if len(keys) > l.Capacity {
			return fmt.Errorf("layout: page %d holds %d keys, capacity %d", p, len(keys), l.Capacity)
		}
		for _, k := range keys {
			if int(k) >= l.NumKeys {
				return fmt.Errorf("layout: page %d lists out-of-range key %d", p, k)
			}
			if lastPage[k] == uint32(p)+1 {
				return fmt.Errorf("layout: key %d duplicated on page %d", k, p)
			}
			lastPage[k] = uint32(p) + 1
		}
	}
	// Key-side checks.
	claimed := 0
	for k := 0; k < l.NumKeys; k++ {
		h := l.Home[k]
		if int(h) >= l.NumPages() {
			return fmt.Errorf("layout: key %d home page %d out of range", k, h)
		}
		if !slices.Contains(l.Pages[h], Key(k)) {
			return fmt.Errorf("layout: key %d home page %d does not list it", k, h)
		}
		claimed++
		if l.Replicas == nil {
			continue
		}
		for i, rp := range l.Replicas[k] {
			if int(rp) >= l.NumPages() {
				return fmt.Errorf("layout: key %d replica page %d out of range", k, rp)
			}
			if rp == h || slices.Contains(l.Replicas[k][:i], rp) {
				return fmt.Errorf("layout: key %d lists page %d twice", k, rp)
			}
			if !slices.Contains(l.Pages[rp], Key(k)) {
				return fmt.Errorf("layout: key %d replica page %d does not list it", k, rp)
			}
			claimed++
		}
	}
	// Every page slot must be claimed by exactly one (key → page) mapping.
	totalSlots := 0
	for _, keys := range l.Pages {
		totalSlots += len(keys)
	}
	if claimed != totalSlots {
		return fmt.Errorf("layout: %d page slots but %d key mappings", totalSlots, claimed)
	}
	return nil
}

// Vanilla returns the trivial layout: keys packed sequentially into pages
// of the given capacity with no replication — the paper's "vanilla"
// baseline (Fig 3).
func Vanilla(numKeys, capacity int) *Layout {
	numPages := (numKeys + capacity - 1) / capacity
	l := &Layout{
		NumKeys:  numKeys,
		Capacity: capacity,
		Pages:    make([][]Key, numPages),
		Home:     make([]PageID, numKeys),
	}
	for k := 0; k < numKeys; k++ {
		p := PageID(k / capacity)
		l.Pages[p] = append(l.Pages[p], Key(k))
		l.Home[k] = p
	}
	return l
}

// FromAssignment builds a layout from a bucket assignment (key → bucket)
// produced by a partitioner, compacting bucket ids into dense page ids in
// ascending bucket order. Buckets may exceed capacity only if the caller
// allows it; this function enforces capacity.
func FromAssignment(assign []int32, capacity int) (*Layout, error) {
	numKeys := len(assign)
	// Collect distinct buckets in ascending order.
	buckets := make(map[int32][]Key)
	for k, b := range assign {
		buckets[b] = append(buckets[b], Key(k))
	}
	ids := make([]int32, 0, len(buckets))
	for b := range buckets {
		ids = append(ids, b)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	l := &Layout{
		NumKeys:  numKeys,
		Capacity: capacity,
		Pages:    make([][]Key, 0, len(ids)),
		Home:     make([]PageID, numKeys),
	}
	for _, b := range ids {
		keys := buckets[b]
		if len(keys) > capacity {
			return nil, fmt.Errorf("layout: bucket %d holds %d keys, capacity %d", b, len(keys), capacity)
		}
		p := PageID(len(l.Pages))
		l.Pages = append(l.Pages, keys)
		for _, k := range keys {
			l.Home[k] = p
		}
	}
	return l, nil
}

// AddReplicaPage appends a new page holding the given keys as replicas.
// Keys whose home page already is the new page, duplicates within the
// slice, and over-capacity keys are rejected.
func (l *Layout) AddReplicaPage(keys []Key) (PageID, error) {
	if len(keys) > l.Capacity {
		return 0, fmt.Errorf("layout: replica page of %d keys exceeds capacity %d", len(keys), l.Capacity)
	}
	seen := make(map[Key]bool, len(keys))
	for _, k := range keys {
		if int(k) >= l.NumKeys {
			return 0, fmt.Errorf("layout: replica key %d out of range", k)
		}
		if seen[k] {
			return 0, fmt.Errorf("layout: replica key %d duplicated", k)
		}
		seen[k] = true
	}
	if l.Replicas == nil {
		l.Replicas = make([][]PageID, l.NumKeys)
	}
	p := PageID(len(l.Pages))
	page := make([]Key, len(keys))
	copy(page, keys)
	l.Pages = append(l.Pages, page)
	for _, k := range keys {
		l.Replicas[k] = append(l.Replicas[k], p)
	}
	return p, nil
}
