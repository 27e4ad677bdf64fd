// Package serving implements MaxEmbed's online phase end to end: query →
// dedupe → DRAM cache probe → page selection → (pipelined) asynchronous
// SSD reads → in-place slot verification → cache fill. A lookup is five
// stages over one worker's scratch — probe, plan, read, recover, assemble
// (see lookupCombined and DESIGN.md §5) — and every served key comes back
// as one thing, a SlotRef view of its little-endian payload bytes. Timing is virtual: device
// time comes from the ssd package's discrete-event model and software time
// from a CostModel, so runs are deterministic and reproducible while
// preserving the paper's software/IO overlap structure (§6).
//
// The read path is fault-tolerant: failed, timed-out, and corrupt page
// reads are recovered with capped exponential backoff, preferring an
// alternate replica page from the layout's index when one exists (the
// replica-rescue path only a replicated layout offers), and a query whose
// retry budget runs out degrades to a partial result instead of failing.
// See DESIGN.md § Fault model & recovery.
package serving

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"slices"
	"sync/atomic"
	"time"

	"maxembed/internal/cache"
	"maxembed/internal/embedding"
	"maxembed/internal/layout"
	"maxembed/internal/metrics"
	"maxembed/internal/selection"
	"maxembed/internal/ssd"
	"maxembed/internal/store"
)

// Key is an embedding key.
type Key = layout.Key

// PageSource supplies embedding payloads from materialized page images.
// store.Store (in-memory) and store.FileStore (on-disk, page-aligned
// reads) both implement it. Pages use the store package's self-verifying
// slot format ([key | checksum | vector]); the engine extracts and
// verifies slots from the image itself.
type PageSource interface {
	// Dim returns the embedding dimension.
	Dim() int
	// PageSize returns the page image size in bytes.
	PageSize() int
	// ReadPage copies page p's image into dst (at least PageSize bytes).
	// The engine owns dst and may mutate it after the call.
	ReadPage(p layout.PageID, dst []byte) error
}

// Config assembles an engine.
type Config struct {
	// Layout is the embedding placement (required).
	Layout *layout.Layout
	// Device is the simulated SSD. Exactly one of Device and Backend must
	// be set; Device is the single-drive special case of Backend.
	Device *ssd.Device
	// Backend is the read target when serving spans multiple devices: an
	// ssd.Array stripes the layout's global page space across N drives,
	// each worker drives one queue pair per shard, and reads are submitted
	// to the owning shard and reaped across shards. A one-shard Backend
	// behaves bit-identically to setting Device.
	Backend ssd.Backend
	// Store supplies page payloads. Optional: nil runs timing-only (no
	// vector extraction or verification). A non-nil interface wrapping a
	// nil pointer (e.g. a nil *store.Store assigned to a PageSource
	// variable) is rejected by New with a clear error.
	Store PageSource
	// CacheEntries sets the DRAM cache capacity in embeddings; 0 disables
	// caching (§8.3's cacheless configuration).
	CacheEntries int
	// AdmitAll caches every key a lookup reads from a page, evicting for
	// each — the paper's CacheLib configuration (§8.1), for figure
	// reproduction. Serving leaves it unset and admits by page cost and
	// counted re-use (see Engine.admit).
	AdmitAll bool
	// IndexLimit is k, the index-shrinking bound (§6.1); 0 keeps all
	// replica entries.
	IndexLimit int
	// Pipeline overlaps page selection with SSD reads (§6.2). When false
	// every read is issued only after the whole selection finishes — the
	// "Raw" configuration of Fig 15.
	Pipeline bool
	// Greedy selects pages with classic greedy set cover instead of the
	// one-pass algorithm (ablation baseline, §6).
	Greedy bool
	// UnsortedSelection disables the ascending replica-count key ordering
	// of §6.1 step ❶ (ablation; ignored when Greedy is set).
	UnsortedSelection bool
	// Costs is the software cost model; nil uses NewDefaultCosts().
	Costs CostModel
	// MaxRetries caps recovery attempts per failed page read; when a
	// page's chain of retries (replica reads and re-reads) exhausts it,
	// its keys are reported in Result.FailedKeys. nil applies
	// DefaultMaxRetries; Retries(0) disables recovery entirely (every
	// fault degrades immediately) — zero really means zero, it is not
	// rewritten to the default. Negative values are clamped to 0.
	MaxRetries *int
	// RetryBudget caps the total recovery reads one query may issue
	// before degrading to a partial result. Default 32.
	RetryBudget int
	// RetryBackoff is the virtual-time backoff before the first recovery
	// read of a failed page; it doubles per attempt. Default 5µs.
	RetryBackoff time.Duration
	// RetryBackoffCap bounds the exponential backoff. Default 200µs.
	RetryBackoffCap time.Duration
	// VectorBytes overrides the per-embedding payload size used for
	// effective-bandwidth accounting when Store is nil (timing-only
	// engines). Ignored when a Store is present.
	VectorBytes int
	// Recorder, when set, receives every served query's distinct keys so
	// the offline phase can later be refreshed from live traffic.
	Recorder *HistoryRecorder
	// PinnedKeys lists embeddings pinned permanently in DRAM — the very
	// top of the hotness hierarchy, above the LRU cache. Pinned entries
	// always hit, are never evicted, and live outside CacheEntries (the
	// caller splits its DRAM budget between the two). With a Store the
	// pinned vectors are extracted at construction; timing-only engines
	// pin placeholders, which time identically. Pinning keys makes the
	// cache exist even when CacheEntries is 0.
	PinnedKeys []Key
	// ShadowSizes, when non-empty, attaches a bank of keys-only ghost
	// caches simulating LRUs of the given entry capacities over the
	// engine's distinct-key stream (see cache.Shadow). The measured
	// hit-rate curve — read via Engine.Shadow — is how DRAM size and the
	// fast-tier cut are chosen from data rather than guesses. Ghost
	// touches are host bookkeeping and charge no virtual time.
	ShadowSizes []int
}

// DefaultMaxRetries is the recovery-attempt cap applied when
// Config.MaxRetries is nil.
const DefaultMaxRetries = 2

// maxSpreadDepthBucket bounds the SpreadDepth histogram's exact buckets;
// deeper queries land in the overflow bucket but still shape the mean.
const maxSpreadDepthBucket = 256

// Retries returns a pointer to n for Config.MaxRetries, distinguishing an
// explicit cap — including the meaningful zero, "no recovery at all" —
// from the unset field that takes DefaultMaxRetries.
func Retries(n int) *int { return &n }

// RecoveryCounters aggregates fault-recovery activity across all of an
// engine's workers. All fields are safe for concurrent use.
type RecoveryCounters struct {
	// ReadErrors counts failed completions observed (initial reads and
	// recovery reads alike); Timeouts is the stuck-command subset.
	ReadErrors metrics.Counter
	Timeouts   metrics.Counter
	// Corruptions counts corrupt page payloads detected by slot-checksum
	// verification.
	Corruptions metrics.Counter
	// Retries counts recovery reads issued (re-reads and replica reads).
	Retries metrics.Counter
	// ReplicaRescues counts keys recovered from an alternate replica page
	// — the recovery path only a replicated layout offers.
	ReplicaRescues metrics.Counter
	// RecoveredKeys counts keys that hit a read fault and were still
	// served (by replica rescue or successful re-read).
	RecoveredKeys metrics.Counter
	// DegradedQueries counts queries that returned a partial result;
	// FailedKeys the keys those results were missing.
	DegradedQueries metrics.Counter
	FailedKeys      metrics.Counter
	// ShardReroutes counts keys moved off failed/rebuilding shards by the
	// pre-submit plan reroute — proactive avoidance driven by shard
	// health, before any read is issued (ReplicaRescues, by contrast,
	// counts reactive recovery after a read already failed).
	ShardReroutes metrics.Counter
	// StoreFallbacks counts keys served by host-store read-through
	// because no live shard held any replica of them — the last line of
	// defence that keeps lookups from hard-failing during a rebuild.
	StoreFallbacks metrics.Counter
}

// Reset zeroes all counters.
func (r *RecoveryCounters) Reset() {
	r.ReadErrors.Reset()
	r.Timeouts.Reset()
	r.Corruptions.Reset()
	r.Retries.Reset()
	r.ReplicaRescues.Reset()
	r.RecoveredKeys.Reset()
	r.DegradedQueries.Reset()
	r.FailedKeys.Reset()
	r.ShardReroutes.Reset()
	r.StoreFallbacks.Reset()
}

// Engine is the shared, immutable part of a serving deployment. Workers
// created by NewWorker do the per-goroutine work.
type Engine struct {
	cfg       Config
	be        ssd.Backend
	numShards int
	// health is the backend's per-shard health view when it reports one
	// (an ssd.Array); nil on single-device backends. Selection tie-breaks,
	// the pre-submit plan reroute, and recovery targeting all consult it.
	health ssd.HealthReporter
	idx    *selection.Index
	cache  *cache.Cache[Key, []byte]
	// How the cache is used, picked once by New: the gated strategy serving
	// runs with (see admit and creditHits), or under Config.AdmitAll the
	// paper's. probeCache reads a key for the probe; admitSolo and
	// admitShared are the inserts admit offers a key through, by the width
	// of the page read that served it; creditAfterPlan says the probe left
	// its hits untouched for creditHits.
	probeCache             func(*cache.Cache[Key, []byte], Key, []byte) ([]byte, bool)
	admitSolo, admitShared func(Key, []byte) ([]byte, bool)
	creditAfterPlan        bool
	vecs                   *cache.Slab[byte] // the cache's payload storage; nil without a Store
	shadow                 *cache.Shadow[Key]
	costs                  CostModel
	dim                    int
	vecSize                int
	maxRetries             int
	// shardQueuePeak[s] is the highest outstanding-command count any
	// worker has observed on its shard-s queue pair — the per-shard
	// queue-depth gauge /metrics exports. Updated lock-free by workers.
	shardQueuePeak []atomic.Int64
	// shardLat[s] is shard s's profile read latency in ns — non-nil only
	// when the backend mixes device classes (a tiered array), where
	// selection tie-breaks prefer the faster tier. Homogeneous backends
	// leave it nil so their tie-break behaviour is unchanged.
	shardLat []int64
	// gen is the layout generation stamped by a Swappable before the
	// engine is published (0 for engines never held by one). Immutable
	// once workers exist.
	gen uint64

	// Latency is recorded per query across all workers.
	Latency metrics.Recorder
	// ValidPerRead is the Fig 9 histogram: embeddings served per page read.
	ValidPerRead *metrics.IntHist
	// SpreadDepth is the per-query max-shard-depth histogram: each query
	// contributes the deepest per-shard count of its planned page reads.
	// On a striped array the busiest shard serializes that many reads, so
	// this depth — not the plan size — bounds the query's device wait;
	// co-activation-aware placement (placement.Despread) exists to drive
	// it toward ceil(plan/shards). Recorded per member query in batches.
	SpreadDepth *metrics.IntHist
	// Recovery aggregates fault-recovery counters across workers.
	Recovery *RecoveryCounters
}

// New builds an engine.
func New(cfg Config) (*Engine, error) {
	if cfg.Layout == nil {
		return nil, errors.New("serving: Config.Layout is required")
	}
	be := cfg.Backend
	if be == nil {
		if cfg.Device == nil {
			return nil, errors.New("serving: one of Config.Device and Config.Backend is required")
		}
		be = cfg.Device
	} else if cfg.Device != nil {
		return nil, errors.New("serving: Config.Device and Config.Backend are mutually exclusive")
	}
	if cfg.Store != nil {
		// A typed nil ((*store.Store)(nil) in a PageSource variable)
		// passes the != nil check but panics on first use; reject it
		// here with an actionable error instead.
		if v := reflect.ValueOf(cfg.Store); (v.Kind() == reflect.Pointer ||
			v.Kind() == reflect.Map || v.Kind() == reflect.Slice ||
			v.Kind() == reflect.Func || v.Kind() == reflect.Chan ||
			v.Kind() == reflect.Interface) && v.IsNil() {
			return nil, fmt.Errorf("serving: Config.Store is a typed-nil %T; pass nil directly for a timing-only engine", cfg.Store)
		}
		if sp, dp := cfg.Store.PageSize(), be.Profile().PageSize; sp != dp {
			return nil, fmt.Errorf("serving: store page size %d does not match device page size %d", sp, dp)
		}
	}
	if err := cfg.Layout.Validate(); err != nil {
		return nil, fmt.Errorf("serving: %w", err)
	}
	if cfg.Costs == nil {
		cfg.Costs = NewDefaultCosts()
	}
	if cfg.RetryBudget == 0 {
		cfg.RetryBudget = 32
	}
	if cfg.RetryBackoff <= 0 {
		cfg.RetryBackoff = 5 * time.Microsecond
	}
	if cfg.RetryBackoffCap <= 0 {
		cfg.RetryBackoffCap = 200 * time.Microsecond
	}
	e := &Engine{
		cfg:            cfg,
		be:             be,
		numShards:      be.NumShards(),
		idx:            selection.NewIndex(cfg.Layout, cfg.IndexLimit),
		costs:          cfg.Costs,
		maxRetries:     DefaultMaxRetries,
		shardQueuePeak: make([]atomic.Int64, be.NumShards()),
		ValidPerRead:   metrics.NewIntHist(cfg.Layout.Capacity),
		SpreadDepth:    metrics.NewIntHist(maxSpreadDepthBucket),
		Recovery:       &RecoveryCounters{},
	}
	if cfg.MaxRetries != nil {
		e.maxRetries = max(*cfg.MaxRetries, 0)
	}
	if hr, ok := be.(ssd.HealthReporter); ok {
		e.health = hr
	}
	if e.numShards > 1 {
		lats := make([]int64, e.numShards)
		mixed := false
		for s := 0; s < e.numShards; s++ {
			lats[s] = int64(be.Shard(s).Profile().ReadLatency)
			if lats[s] != lats[0] {
				mixed = true
			}
		}
		if mixed {
			e.shardLat = lats
		}
	}
	switch {
	case cfg.Store != nil:
		e.dim = cfg.Store.Dim()
		e.vecSize = e.dim * 4
		// The cache never holds more vectors than it has slots or the
		// table has keys.
		e.vecs = cache.NewSlab[byte](e.vecSize, min(cfg.CacheEntries, cfg.Layout.NumKeys))
	case cfg.VectorBytes > 0:
		e.vecSize = cfg.VectorBytes
	default:
		// Timing-only mode still accounts useful bytes by slot arithmetic:
		// the per-slot byte budget is PageSize/Capacity, of which
		// embedding.SlotOverhead is the key/checksum header, and the
		// payload is whole float32 elements of the remainder. Counting the
		// header as useful would overstate EffectiveBandwidth relative to a
		// store-backed engine on the same configuration.
		slot := be.Profile().PageSize / cfg.Layout.Capacity
		dim := (slot - embedding.SlotOverhead) / 4
		if dim < 1 {
			dim = 1
		}
		e.vecSize = embedding.BytesPerVector(dim)
	}
	if cfg.CacheEntries > 0 || len(cfg.PinnedKeys) > 0 {
		e.cache = cache.New[Key, []byte](cfg.CacheEntries, cache.Uint32Hasher)
		if cfg.AdmitAll {
			e.probeCache, e.admitSolo, e.admitShared = cache.GetAppend[Key, byte], e.cache.Put, e.cache.Put
		} else {
			e.probeCache, e.admitSolo, e.admitShared = cache.PeekAppend[Key, byte], e.cache.PutIfHotter, e.cache.PutIfRoom
			e.creditAfterPlan = true
		}
		if err := e.pinKeys(cfg.PinnedKeys); err != nil {
			return nil, err
		}
	}
	if len(cfg.ShadowSizes) > 0 {
		e.shadow = cache.NewShadow[Key](cfg.ShadowSizes)
	}
	return e, nil
}

// pinKeys installs the DRAM pin-set before the engine is shared: with a
// Store the real payloads are read (one read per distinct home page);
// timing-only engines pin nil placeholders.
func (e *Engine) pinKeys(keys []Key) error {
	lay := e.cfg.Layout
	byPage := make(map[layout.PageID][]Key)
	for _, k := range keys {
		if int(k) >= lay.NumKeys {
			return fmt.Errorf("serving: pinned key %d out of range (%d keys)", k, lay.NumKeys)
		}
		if e.cfg.Store == nil {
			e.cache.Pin(k, nil)
			continue
		}
		byPage[lay.Home[k]] = append(byPage[lay.Home[k]], k)
	}
	return e.homePayloads(byPage, func(k Key, payload []byte) {
		e.cache.Pin(k, append([]byte(nil), payload...))
	})
}

// homePayloads reads each home page of byPage from the store once, verifies
// the keys listed for it and hands each one's payload view to use. The view
// is only valid during the call. pinKeys and WarmCache fill the cache
// through it, outside any lookup.
func (e *Engine) homePayloads(byPage map[layout.PageID][]Key, use func(k Key, payload []byte)) error {
	if len(byPage) == 0 {
		return nil
	}
	img := make([]byte, e.cfg.Store.PageSize())
	var refs []SlotRef
	for home, ks := range byPage {
		var err error
		if refs, err = e.pageViews(ssd.Completion{Page: home}, img, ks, refs[:0]); err != nil {
			return err
		}
		for i, k := range ks {
			use(k, refs[i].Payload)
		}
	}
	return nil
}

// pageViews is the one extractor: it verifies each of keys in page c.Page's
// image, in place, and appends one payload view per key to dst. The image
// is the completion's own buffer when the read produced one (real-I/O
// backends); otherwise — simulated reads, and home pages read for pinning,
// warming and store fallback — it is read from Config.Store into img. On
// any failure dst comes back as it was passed, so the whole page can be
// recovered elsewhere.
func (e *Engine) pageViews(c ssd.Completion, img []byte, keys []Key, dst []SlotRef) ([]SlotRef, error) {
	if c.Buf != nil {
		img = c.Buf.Bytes()
	} else if err := e.cfg.Store.ReadPage(c.Page, img); err != nil {
		return dst, fmt.Errorf("serving: page %d payload: %w", c.Page, err)
	}
	nSlots := len(e.cfg.Layout.Pages[c.Page])
	if c.Corrupt {
		// Injected in-flight corruption damages the host's image (never
		// the store) so the checksum path detects it like real bit rot.
		slot := embedding.SlotSize(e.dim)
		for i := 0; i < nSlots; i++ {
			img[i*slot+4] ^= 0xA5
		}
	}
	mark := len(dst)
	for _, k := range keys {
		off, found, err := store.VerifySlotInImage(img, e.dim, k, nSlots)
		if err == nil && !found {
			err = fmt.Errorf("page does not hold key %d", k)
		}
		if err != nil {
			return dst[:mark], fmt.Errorf("serving: extract key %d from page %d: %w", k, c.Page, err)
		}
		end := off + e.vecSize
		dst = append(dst, SlotRef{Payload: img[off:end:end], buf: c.Buf})
	}
	return dst, nil
}

// Shadow returns the engine's ghost-cache bank, or nil when
// Config.ShadowSizes was empty.
func (e *Engine) Shadow() *cache.Shadow[Key] { return e.shadow }

// Index exposes the engine's selection index (read-only).
func (e *Engine) Index() *selection.Index { return e.idx }

// Backend returns the read target the engine serves from: the configured
// Backend, or the configured Device as a one-shard backend.
func (e *Engine) Backend() ssd.Backend { return e.be }

// NumShards returns the backend's device count.
func (e *Engine) NumShards() int { return e.numShards }

// ShardQueuePeaks returns, per shard, the highest outstanding-command
// count any worker observed on its queue pair to that shard since the
// engine was built (or the last run reset) — the per-shard queue-depth
// gauge exported on /metrics.
func (e *Engine) ShardQueuePeaks() []int64 {
	out := make([]int64, len(e.shardQueuePeak))
	for i := range e.shardQueuePeak {
		out[i] = e.shardQueuePeak[i].Load()
	}
	return out
}

// Generation returns the layout generation a Swappable stamped on the
// engine when publishing it (0 for an engine never held by a Swappable).
func (e *Engine) Generation() uint64 { return e.gen }

// Layout returns the layout the engine serves.
func (e *Engine) Layout() *layout.Layout { return e.cfg.Layout }

// Cache returns the DRAM cache, or nil when disabled.
func (e *Engine) Cache() *cache.Cache[Key, []byte] { return e.cache }

// QueryStats describes one processed query.
type QueryStats struct {
	// Keys is the raw query length; DistinctKeys after dedup.
	Keys, DistinctKeys int
	// CacheHits of the distinct keys were served from DRAM.
	CacheHits int
	// PagesRead is the number of SSD page reads issued (excluding retries).
	PagesRead int
	// MaxShardDepth is the deepest per-shard count of the query's planned
	// reads (post-reroute, excluding recovery reads): the number of reads
	// the busiest shard serializes for this query, which bounds its device
	// wait on a striped array. 0 when the query read no pages; equal to
	// PagesRead on a one-shard backend. For queries served via LookupBatch
	// it is computed over the pages that served this query's keys.
	MaxShardDepth int
	// Retries is the number of recovery reads issued after faults
	// (replica reads and re-reads alike).
	Retries int
	// BatchSize is the number of queries coalesced into the combined pass
	// that served this query: 1 for an isolated Lookup, the batch size for
	// queries served through LookupBatch.
	BatchSize int
	// PageShare is this query's apportioned share of the page reads that
	// served it: a page read whose covered keys span q queries of a batch
	// contributes 1/q to each. For an isolated Lookup it equals PagesRead.
	// Summing PageShare across a batch recovers the batch's total reads,
	// which is what makes shared reads attributable without double counting.
	PageShare float64
	// ReadFaults counts faulted page reads this query observed: device
	// errors, timeouts, and corrupt payloads, over initial and recovery
	// reads alike. The health probe's error-rate window feeds on it.
	ReadFaults int
	// ReplicaRescues counts keys recovered from an alternate replica page.
	ReplicaRescues int
	// ShardReroutes counts keys this query's plan moved off
	// failed/rebuilding shards before any read was issued.
	ShardReroutes int
	// StoreFallbacks counts keys served by host-store read-through
	// because no live shard held a replica of them.
	StoreFallbacks int
	// Corruptions counts corrupt page payloads detected by checksum.
	Corruptions int
	// FailedKeys counts keys the query could not serve; Degraded is set
	// when it is non-zero (partial result).
	FailedKeys int
	Degraded   bool
	// Generation is the layout generation of the engine that served the
	// query (0 when the engine is not behind a Swappable handle). Every
	// page read of one query comes from this single generation — a hot
	// swap is only picked up between queries.
	Generation uint64
	// UsefulFromSSD is the number of distinct keys served from SSD pages.
	UsefulFromSSD int
	// SoloKeys counts the keys whose page read served no other key of the
	// pass — the reads a cached copy would have saved outright. Like the
	// recovery totals, batch-wide under LookupBatch.
	SoloKeys int
	// StartNS/EndNS bound the query on the worker's virtual clock.
	StartNS, EndNS int64
	// SortNS, SelectNS, and OtherSoftNS break down charged software time;
	// SSDWaitNS is the residual the worker spent blocked on the device;
	// RecoveryNS is the extra time spent on backoff and recovery reads.
	SortNS, SelectNS, OtherSoftNS, SSDWaitNS, RecoveryNS int64
}

// LatencyNS returns the end-to-end virtual latency.
func (s QueryStats) LatencyNS() int64 { return s.EndNS - s.StartNS }

// Result is the outcome of one lookup. Everything a Result points to is
// worker memory the worker's next lookup reuses — nothing aliases the DRAM
// cache — so the caller must consume the result before then (or Hold the
// views it needs longer).
type Result struct {
	Stats QueryStats
	// Keys and Refs are parallel, covering every distinct key of the query
	// that was served: Refs[i] is a view of Keys[i]'s payload bytes,
	// whichever of an SSD page, the host store or the DRAM cache served it
	// and on either backend (see SlotRef). A timing-only engine (no Store)
	// serves empty views.
	Keys []Key
	Refs []SlotRef
	// FailedKeys lists distinct query keys that could not be served
	// because every read attempt within the retry budget failed. Empty on
	// a fully successful lookup. The slice is reused by the worker.
	FailedKeys []Key
}

// AppendVector appends entry i's decoded vector to dst and returns it.
func (r *Result) AppendVector(i int, dst []float32) []float32 {
	return r.Refs[i].AppendVector(dst)
}

// planEntry records one selected page and the range of covered keys in
// Worker.coveredFlat.
type planEntry struct {
	page       layout.PageID
	from, to   int
	selectCost int64
}

// pageKeys is the keys one page is to serve: a reroute target, a recovery
// read, or a home page read through from the store.
type pageKeys struct {
	page layout.PageID
	keys []Key
}

// addToPage appends k to page's group, opening the group on first use.
// Groups keep first-use order and keys arrival order, so every schedule
// built from them is deterministic.
func addToPage(groups []pageKeys, page layout.PageID, k Key) []pageKeys {
	for i := range groups {
		if groups[i].page == page {
			groups[i].keys = append(groups[i].keys, k)
			return groups
		}
	}
	return append(groups, pageKeys{page: page, keys: []Key{k}})
}

// pageFailure is one failed page read pending recovery: the keys that were
// to be served from page, the attempt count, and the pages already tried
// for this chain (excluding page itself).
type pageFailure struct {
	page    layout.PageID
	keys    []Key
	attempt int
	tried   []layout.PageID
	cause   error
}

// Worker is a single-threaded serving session: it owns a selector, an SSD
// queue pair, and a monotonically increasing virtual clock. Create one per
// concurrent serving thread being modelled. Not safe for concurrent use.
type Worker struct {
	eng *Engine
	sel *selection.Selector
	q   ssd.QueuePair

	// now is the worker's virtual clock in nanoseconds.
	now int64

	// shardLoad counts, per shard, the reads this query's plan has already
	// steered there; selection tie-breaking reads it. Nil on one-shard
	// backends (no tie-breaker installed).
	shardLoad []int

	// depthBuf is scratch for per-shard depth counting over the final
	// plan. Distinct from shardLoad, which tracks the plan under
	// construction and is left stale by reroute on purpose.
	depthBuf []int

	// ctx, when non-nil, cancels the recovery retry loop of the query in
	// flight: an abandoned request degrades immediately instead of
	// burning retries and queue slots. Set by LookupCtx per query.
	ctx context.Context

	// Per-query scratch, grouped by the stage that writes it; later stages
	// and LookupBatch's scatter only read it.
	//
	// probe: the query's distinct keys, the ones the cache served, and
	// their payloads copied back to back into arena. seen holds the
	// distinct keys; true marks the probe's hits, which selection skips.
	distinct []Key
	hitKeys  []Key
	arena    []byte
	seen     map[Key]bool
	// plan: the pages to read and, flattened, the keys each is to serve;
	// plan2/flat2 are what reroute rebuilds them into. fbKeys are the keys
	// reroute found no live replica for.
	plan        []planEntry
	coveredFlat []Key
	plan2       []planEntry
	flat2       []Key
	fbKeys      []Key
	// read and recover: keys/refs are the one output list, a verified view
	// per key served from a page image, and solo[i] says keys[i]'s page read
	// served no other key of this pass (what admit goes by). The images stay
	// alive until the next lookup's probe: completion buffers in held,
	// worker-owned page buffers (the first pagesUsed of pageBufs) for reads
	// that came without one. failures queues page reads for recovery;
	// failedKeys is final.
	keys       []Key
	refs       []SlotRef
	solo       []bool
	held       []*ssd.PageBuf
	pageBufs   [][]byte
	pagesUsed  int
	compMap    map[layout.PageID]ssd.Completion
	failures   []pageFailure
	failedKeys []Key
	// assemble appends the probe's hits to keys/refs, which the Result
	// then aliases.

	batchBuf []Key    // LookupBatch's concatenated queries
	perQuery []Result // LookupBatch's scattered results, reused per batch
	scatter  scatterScratch

	// skipFn and emitFn are the selection callbacks, built once per worker
	// so the hot path does not allocate a closure per query. emitFn reads
	// prevSel, which planPages resets before each selection.
	skipFn  func(Key) bool
	emitFn  selection.EmitFunc
	prevSel selection.Stats
}

// NewWorker returns a worker bound to the engine. The worker's virtual
// clock starts at the device's current frontier so a session created after
// prior activity does not appear to queue behind long-finished work. The
// queue pair comes from the backend when it mints its own (real-I/O
// backends); otherwise a simulated MultiQueue over its shards.
func (e *Engine) NewWorker() *Worker {
	w := &Worker{
		eng:     e,
		sel:     selection.NewSelector(e.idx),
		q:       ssd.NewQueuePairFor(e.be),
		now:     e.be.Frontier(),
		seen:    make(map[Key]bool, 64),
		compMap: make(map[layout.PageID]ssd.Completion, 16),
	}
	// Selection skips exactly the keys the probe served. Asking the cache
	// again instead would disagree with the probe whenever another worker's
	// Put landed in between, and drop the key from the result.
	w.skipFn = func(k Key) bool { return w.seen[k] }
	w.emitFn = func(p layout.PageID, covered []Key, sofar selection.Stats) {
		from := len(w.coveredFlat)
		w.coveredFlat = append(w.coveredFlat, covered...)
		cost := e.costs.Select(sofar.CandidatePages-w.prevSel.CandidatePages,
			sofar.InvertScans-w.prevSel.InvertScans) + e.costs.Submit()
		w.prevSel = sofar
		w.plan = append(w.plan, planEntry{
			page:       p,
			from:       from,
			to:         len(w.coveredFlat),
			selectCost: cost,
		})
		if w.shardLoad != nil {
			s, _ := e.be.ShardOf(p)
			w.shardLoad[s]++
		}
	}
	if e.numShards > 1 {
		// Break page-score ties toward the shard this query has steered the
		// fewest reads to so far: a worker drains its queues every query, so
		// the plan under construction is the load there is to balance.
		// One-shard engines install no tie-breaker, preserving the
		// historical first-candidate-wins choice exactly.
		w.shardLoad = make([]int, e.numShards)
		w.sel.SetTieBreak(func(cand, best selection.PageID) bool {
			cs, _ := e.be.ShardOf(cand)
			bs, _ := e.be.ShardOf(best)
			// A live shard beats a failed/rebuilding one outright; among
			// equals, prefer the shard this plan has loaded least.
			if e.health != nil {
				cl, bl := e.health.ShardState(cs).Live(), e.health.ShardState(bs).Live()
				if cl != bl {
					return cl
				}
			}
			// On a tiered array, an otherwise-equal page on the faster
			// device class wins: same coverage, cheaper read. Homogeneous
			// arrays (shardLat nil) skip straight to load balancing.
			if e.shardLat != nil && e.shardLat[cs] != e.shardLat[bs] {
				return e.shardLat[cs] < e.shardLat[bs]
			}
			return w.shardLoad[cs] < w.shardLoad[bs]
		})
	}
	return w
}

// pageLive reports whether page p's shard is serving reads. Backends that
// report no health are always live.
func (e *Engine) pageLive(p layout.PageID) bool {
	if e.health == nil {
		return true
	}
	s, _ := e.be.ShardOf(p)
	return e.health.ShardState(s).Live()
}

// planMaxShardDepth counts the final plan's reads per shard and returns
// the deepest count. It recomputes from w.plan rather than reading
// w.shardLoad: the tie-break counters track the plan as selection built
// it, and reroute rebuilds the plan without maintaining them.
func (w *Worker) planMaxShardDepth() int {
	e := w.eng
	if len(w.plan) == 0 {
		return 0
	}
	if e.numShards == 1 {
		return len(w.plan)
	}
	if w.depthBuf == nil {
		w.depthBuf = make([]int, e.numShards)
	}
	clear(w.depthBuf)
	deepest := 0
	for _, pe := range w.plan {
		s, _ := e.be.ShardOf(pe.page)
		w.depthBuf[s]++
		deepest = max(deepest, w.depthBuf[s])
	}
	return deepest
}

// foldQueuePeaks publishes the worker's per-shard queue high-water marks
// into the engine's gauges with a CAS-max, so concurrent workers never
// lose a peak.
func (w *Worker) foldQueuePeaks() {
	for s := range w.eng.shardQueuePeak {
		hw := int64(w.q.HighWater(s))
		p := &w.eng.shardQueuePeak[s]
		for {
			cur := p.Load()
			if hw <= cur || p.CompareAndSwap(cur, hw) {
				break
			}
		}
	}
}

// Now returns the worker's virtual clock.
func (w *Worker) Now() int64 { return w.now }

// SetNow advances the worker's virtual clock (e.g. to align fan-out
// workers to a common dispatch instant). The clock never moves backwards;
// earlier values are ignored.
func (w *Worker) SetNow(ns int64) {
	if ns > w.now {
		w.now = ns
	}
}

// Lookup serves one embedding query and advances the worker's clock to its
// completion time. Read faults are recovered transparently when possible;
// a query that exhausts its retry budget returns a partial Result with the
// unserved keys in FailedKeys (Stats.Degraded set) rather than an error.
// A non-nil error indicates a malformed query or broken configuration,
// not a device fault.
func (w *Worker) Lookup(query []Key) (Result, error) {
	res, err := w.lookupCombined(query, true)
	if err != nil {
		return res, err
	}
	w.finish(&res.Stats, 1, float64(res.Stats.PagesRead))
	return res, nil
}

// LookupCtx is Lookup with cancellation: when ctx is cancelled, the
// recovery retry loop stops immediately and any keys still pending
// recovery degrade to FailedKeys instead of burning further retries and
// queue slots — the serving path for requests whose HTTP client has gone
// away. The initial read wave is not interrupted (it is a single
// submit/drain on the virtual clock); cancellation takes effect at retry
// boundaries, where the real time is spent under faults.
func (w *Worker) LookupCtx(ctx context.Context, query []Key) (Result, error) {
	w.ctx = ctx
	defer func() { w.ctx = nil }()
	return w.Lookup(query)
}

// finish closes one served query's stats — an isolated Lookup's, or one
// member of a batch — and feeds the engine's per-query aggregates:
// degradation counters, the spread-depth histogram and the latency
// recorder. pageShare is the query's apportioned share of the page reads.
func (w *Worker) finish(st *QueryStats, batchSize int, pageShare float64) {
	e := w.eng
	st.BatchSize, st.PageShare = batchSize, pageShare
	if st.Degraded {
		e.Recovery.DegradedQueries.Inc()
		e.Recovery.FailedKeys.Add(int64(st.FailedKeys))
	}
	e.SpreadDepth.Add(st.MaxShardDepth)
	e.Latency.Record(st.LatencyNS())
}

// lookupCombined is the one pass behind both Lookup and LookupBatch: five
// stages, each writing its own part of the worker's scratch (see Worker)
// and advancing the virtual clock t. It leaves that scratch describing the
// pass so LookupBatch can scatter the outcome back per query, and records
// no per-query aggregate — callers attribute those through finish. record
// controls history recording: Lookup records its distinct key set here,
// LookupBatch records each member query's set separately so the refresh
// loop sees true per-query co-appearance, not batch artifacts.
func (w *Worker) lookupCombined(query []Key, record bool) (Result, error) {
	st := QueryStats{Keys: len(query), Generation: w.eng.gen, StartNS: w.now}
	t := w.probe(&st, query, record)
	if err := w.planPages(&st, query); err != nil {
		return Result{}, err
	}
	t = w.readPages(&st, t)
	t = w.recover(&st, t)
	return w.assemble(&st, t), nil
}

// probe opens a lookup. The previous lookup's views die here: the worker's
// references on its completion buffers are dropped (they recycle unless a
// holder took its own), and its page buffers and arena are reused. Then
// the query is deduplicated in first-appearance order — so LRU promotion
// order is deterministic — and each distinct key probed once, hits copied
// into the arena under the cache's lock: displaced cache storage is
// recycled, so never aliased. Returns the clock after the probe and the
// sort of the misses (§6.1 ❶ happens inside the selector; the model
// charges for the keys that reach it).
func (w *Worker) probe(st *QueryStats, query []Key, record bool) int64 {
	e := w.eng
	for i, b := range w.held {
		b.Release()
		w.held[i] = nil
	}
	w.held, w.pagesUsed = w.held[:0], 0
	w.hitKeys, w.arena, w.distinct = w.hitKeys[:0], w.arena[:0], w.distinct[:0]
	clear(w.seen)
	for _, k := range query {
		if _, dup := w.seen[k]; dup {
			continue
		}
		w.seen[k] = false
		w.distinct = append(w.distinct, k)
	}
	st.DistinctKeys = len(w.distinct)
	if record && e.cfg.Recorder != nil {
		e.cfg.Recorder.Record(w.distinct)
	}
	if e.shadow != nil {
		// Ghost caches see the pre-cache distinct-key stream, so their
		// curve predicts the hit rate a real cache of each simulated
		// capacity would have had. Host bookkeeping: no virtual time.
		e.shadow.TouchAll(w.distinct)
	}
	t := w.now
	if e.cache != nil {
		for _, k := range w.distinct {
			var ok bool
			if w.arena, ok = e.probeCache(e.cache, k, w.arena); ok {
				w.hitKeys = append(w.hitKeys, k)
				w.seen[k] = true
			}
		}
		probe := e.costs.CacheProbe(st.DistinctKeys)
		t += probe
		st.OtherSoftNS += probe
		st.CacheHits = len(w.hitKeys)
	}
	st.SortNS = e.costs.Sort(st.DistinctKeys - st.CacheHits)
	return t + st.SortNS
}

// planPages selects the pages that cover the probe's misses into w.plan /
// w.coveredFlat (through emitFn, which also prices each page), then moves
// reads off failed shards. After it every page appears in the plan once
// and every key to be read under exactly one page.
func (w *Worker) planPages(st *QueryStats, query []Key) error {
	e := w.eng
	clear(w.shardLoad)
	w.plan, w.coveredFlat = w.plan[:0], w.coveredFlat[:0]
	w.prevSel = selection.Stats{}
	var err error
	switch {
	case e.cfg.Greedy:
		_, err = w.sel.Greedy(query, w.skipFn, w.emitFn)
	case e.cfg.UnsortedSelection:
		_, err = w.sel.OnePassUnsorted(query, w.skipFn, w.emitFn)
	default:
		_, err = w.sel.OnePass(query, w.skipFn, w.emitFn)
	}
	if err != nil {
		return err
	}
	w.reroute(st)
	st.MaxShardDepth = w.planMaxShardDepth()
	if e.creditAfterPlan {
		w.creditHits()
	}
	return nil
}

// creditHits gives the probe's hits their recency update and their count in
// the cache's sketch, now that the plan says what each was worth: a hit on a
// key with a candidate page in the plan saved nothing — that page is read
// for the misses anyway and would have served the key with them — so only
// the others are touched. A cached key that keeps arriving in the company of
// its page's misses thus ages out in favour of one whose hits save reads.
func (w *Worker) creditHits() {
	e := w.eng
	for _, k := range w.hitKeys {
		if !slices.ContainsFunc(e.idx.Candidates(k), w.plans) {
			e.cache.Touch(k)
		}
	}
}

// plans reports whether page p is in the plan.
func (w *Worker) plans(p layout.PageID) bool {
	for i := range w.plan {
		if w.plan[i].page == p {
			return true
		}
	}
	return false
}

// reroute runs between selection and submission on health-reporting
// backends: pages planned on failed or rebuilding shards are replaced by
// replica candidates on live shards before any read is issued, so a
// declared-dead drive costs zero wasted reads per query instead of one
// fault-plus-recovery per touched page. Keys with no live replica are set
// aside for host-store read-through (serveFromStore). The plan and its
// covered-keys arena are rebuilt into fresh scratch and swapped — never
// appended to in place — so per-key accounting (UsefulFromSSD, batch
// scatter) keeps seeing each key exactly once.
func (w *Worker) reroute(st *QueryStats) {
	e := w.eng
	w.fbKeys = w.fbKeys[:0]
	if e.health == nil {
		return
	}
	var moved []pageKeys
	for _, pe := range w.plan {
		if e.pageLive(pe.page) {
			continue
		}
		for _, k := range w.coveredFlat[pe.from:pe.to] {
			if target, ok := w.liveCandidate(k, pe.page, moved); ok {
				moved = addToPage(moved, target, k)
				st.ShardReroutes++
			} else {
				w.fbKeys = append(w.fbKeys, k)
			}
		}
	}
	if st.ShardReroutes == 0 && len(w.fbKeys) == 0 {
		return
	}
	e.Recovery.ShardReroutes.Add(int64(st.ShardReroutes))

	// A live entry keeps its keys and takes the ones rerouted to its page:
	// a page is read once however its keys arrived at it (two reads of one
	// page would come back as two completions for one plan slot). Targets
	// not in the plan yet become new entries, in first-use order.
	w.plan2, w.flat2 = w.plan2[:0], w.flat2[:0]
	for _, pe := range w.plan {
		if !e.pageLive(pe.page) {
			continue
		}
		from := len(w.flat2)
		w.flat2 = append(w.flat2, w.coveredFlat[pe.from:pe.to]...)
		for i := range moved {
			if moved[i].page == pe.page {
				w.flat2 = append(w.flat2, moved[i].keys...)
				moved[i].keys = nil
			}
		}
		pe.from, pe.to = from, len(w.flat2)
		w.plan2 = append(w.plan2, pe)
	}
	for _, g := range moved {
		if g.keys == nil {
			continue
		}
		from := len(w.flat2)
		w.flat2 = append(w.flat2, g.keys...)
		w.plan2 = append(w.plan2, planEntry{
			page: g.page, from: from, to: len(w.flat2),
			// The reroute's own cost is one extra submit per new page;
			// the original entries' selection cost was already charged.
			selectCost: e.costs.Submit(),
		})
	}
	w.plan, w.plan2 = w.plan2, w.plan
	w.coveredFlat, w.flat2 = w.flat2, w.coveredFlat
}

// liveCandidate picks key k's reroute target: a candidate page on a live
// shard, preferring one this reroute is already reading (so shared pages
// cost one read, not one per key), excluding the dead page being replaced.
func (w *Worker) liveCandidate(k Key, avoid layout.PageID, moved []pageKeys) (layout.PageID, bool) {
	e := w.eng
	var first layout.PageID
	found := false
	for _, cand := range e.idx.Candidates(k) {
		if cand == avoid || !e.pageLive(cand) {
			continue
		}
		for i := range moved {
			if moved[i].page == cand {
				return cand, true
			}
		}
		if !found {
			first, found = cand, true
		}
	}
	return first, found
}

// readPages submits the plan, waits for it and extracts every page that
// arrived, queueing the ones that did not for recover. Selection cost
// accrues per chosen page: with Config.Pipeline each read is issued the
// moment its page is chosen (§6.2), otherwise all are issued when selection
// ends. Streamed submission and reaping completions as they land are edits
// to this one loop pair.
func (w *Worker) readPages(st *QueryStats, t int64) int64 {
	e := w.eng
	for i := range w.plan {
		st.SelectNS += w.plan[i].selectCost
	}
	selected := t + st.SelectNS
	for i := range w.plan {
		t += w.plan[i].selectCost
		at := selected
		if e.cfg.Pipeline {
			at = t
		}
		w.q.Submit(w.plan[i].page, at)
	}
	done, comps := w.q.Drain(selected)
	st.SSDWaitNS = max(done-selected, 0)
	st.PagesRead = len(w.plan)

	w.keys, w.refs, w.solo = w.keys[:0], w.refs[:0], w.solo[:0]
	w.failures, w.failedKeys = w.failures[:0], w.failedKeys[:0]
	w.indexCompletions(comps)
	for _, pe := range w.plan {
		keys := w.coveredFlat[pe.from:pe.to]
		if cause := w.consume(st, w.compMap[pe.page], keys); cause != nil {
			w.failures = append(w.failures, pageFailure{page: pe.page, keys: keys, cause: cause})
		}
	}
	return done
}

// indexCompletions rebuilds compMap over one drain's completions.
func (w *Worker) indexCompletions(comps []ssd.Completion) {
	clear(w.compMap)
	for _, c := range comps {
		w.compMap[c.Page] = c
	}
}

// consume processes one page read's completion: it observes device errors
// and — when a Store is present — verifies every covered key's slot in the
// page image and records a view of it. A non-nil return is why the page
// must enter recovery.
//
// The Fig 9 histogram is fed here, per read as its outcome resolves: a read
// that faulted served nothing (0 valid embeddings), and recovery reads are
// reads too, each counted with the keys it actually served. Crediting
// planned coverage up front would overstate the histogram (and everything
// derived from it) exactly when faults make it matter.
func (w *Worker) consume(st *QueryStats, c ssd.Completion, keys []Key) error {
	e := w.eng
	err := c.Err
	switch {
	case err != nil:
		if c.Buf != nil {
			// Defensive: real-I/O drains release error buffers themselves.
			c.Buf.Release()
		}
		e.Recovery.ReadErrors.Inc()
		if errors.Is(err, ssd.ErrTimeout) {
			e.Recovery.Timeouts.Inc()
		}
	case e.cfg.Store == nil:
		// Timing-only: nothing to extract; silent corruption is
		// undetectable without payloads, as on real hardware without
		// end-to-end checksums.
		if c.Buf != nil {
			c.Buf.Release()
		}
	default:
		if err = w.extract(c, keys); errors.Is(err, store.ErrCorrupt) {
			st.Corruptions++
			e.Recovery.Corruptions.Inc()
		}
	}
	if err != nil {
		st.ReadFaults++
		e.ValidPerRead.Add(0)
		return err
	}
	e.ValidPerRead.Add(len(keys))
	if len(keys) == 1 {
		st.SoloKeys++
	}
	return nil
}

// extract appends a verified view per key of page c.Page to the worker's
// output (see Engine.pageViews) and keeps the image the views point into
// alive until the next lookup: the completion's buffer joins w.held, a read
// that came without one is given the next worker-owned page buffer. On
// failure nothing is appended and the image is let go.
func (w *Worker) extract(c ssd.Completion, keys []Key) error {
	var img []byte
	if c.Buf == nil {
		if w.pagesUsed == len(w.pageBufs) {
			w.pageBufs = append(w.pageBufs, make([]byte, w.eng.cfg.Store.PageSize()))
		}
		img = w.pageBufs[w.pagesUsed]
	}
	refs, err := w.eng.pageViews(c, img, keys, w.refs)
	if err != nil {
		if c.Buf != nil {
			c.Buf.Release()
		}
		return err
	}
	w.refs = refs
	w.keys = append(w.keys, keys...)
	for range keys {
		w.solo = append(w.solo, len(keys) == 1)
	}
	if c.Buf != nil {
		w.held = append(w.held, c.Buf)
	} else {
		w.pagesUsed++
	}
	return nil
}

// backoffDelay returns the capped exponential backoff before recovery
// attempt number attempt (0-based).
func (e *Engine) backoffDelay(attempt int) int64 {
	d := int64(e.cfg.RetryBackoff)
	for i := 0; i < attempt && d < int64(e.cfg.RetryBackoffCap); i++ {
		d *= 2
	}
	return min(d, int64(e.cfg.RetryBackoffCap))
}

// recover drains the worker's failure queue: each failed page's keys are
// re-fetched after a capped exponential backoff, preferring an alternate
// replica page from the index over re-reading the page that just failed.
// Chains that exhaust MaxRetries, and queries that exhaust RetryBudget or
// whose request was abandoned, give their keys up to failedKeys. Last, the
// keys reroute left without a live replica are read through from the host
// store. Returns the advanced clock.
func (w *Worker) recover(st *QueryStats, t int64) int64 {
	e := w.eng
	start := t
	spent := 0
	// The queue grows as recovery reads themselves fail; index-iterate.
	for qi := 0; qi < len(w.failures); qi++ {
		f := w.failures[qi]
		if f.attempt >= e.maxRetries || spent >= e.cfg.RetryBudget ||
			(w.ctx != nil && w.ctx.Err() != nil) {
			w.failedKeys = append(w.failedKeys, f.keys...)
			continue
		}
		issueAt := t + e.backoffDelay(f.attempt)
		var groups []pageKeys
		for _, k := range f.keys {
			groups = addToPage(groups, w.recoveryTarget(k, &f), k)
		}
		submitted := groups[:0]
		for _, g := range groups {
			if spent >= e.cfg.RetryBudget {
				w.failedKeys = append(w.failedKeys, g.keys...)
				continue
			}
			spent++
			st.Retries++
			e.Recovery.Retries.Inc()
			w.q.Submit(g.page, issueAt)
			submitted = append(submitted, g)
		}
		if len(submitted) == 0 {
			continue
		}
		done, comps := w.q.Drain(issueAt)
		t = max(t, done)
		w.indexCompletions(comps)
		for _, g := range submitted {
			if cause := w.consume(st, w.compMap[g.page], g.keys); cause != nil {
				tried := append(append([]layout.PageID(nil), f.tried...), f.page)
				w.failures = append(w.failures, pageFailure{
					page: g.page, keys: g.keys, attempt: f.attempt + 1,
					tried: tried, cause: cause,
				})
				continue
			}
			e.Recovery.RecoveredKeys.Add(int64(len(g.keys)))
			if g.page != f.page {
				st.ReplicaRescues += len(g.keys)
				e.Recovery.ReplicaRescues.Add(int64(len(g.keys)))
			}
		}
	}
	w.failures = w.failures[:0]
	st.RecoveryNS = t - start
	st.UsefulFromSSD = len(w.coveredFlat) - len(w.failedKeys)
	return w.serveFromStore(st, t)
}

// recoveryTarget picks where key k of failed read f is fetched next: the
// first candidate page not already tried in this chain and not on a
// declared-dead shard — preferring, on a multi-device backend, one on a
// different shard than the page that just failed, so shard-diverse
// replicas route around a whole faulty drive. A key with no such replica
// re-reads the failed page.
func (w *Worker) recoveryTarget(k Key, f *pageFailure) layout.PageID {
	e := w.eng
	failShard, _ := e.be.ShardOf(f.page)
	target := f.page
	for _, cand := range e.idx.Candidates(k) {
		if cand == f.page || slices.Contains(f.tried, cand) || !e.pageLive(cand) {
			continue
		}
		if cs, _ := e.be.ShardOf(cand); cs != failShard {
			return cand
		}
		if target == f.page {
			target = cand
		}
	}
	return target
}

// serveFromStore serves the keys reroute found no live replica for from
// their home pages in the host's store image — the pristine copy the
// offline build left behind — one read per home page, through the same
// extractor as a device read. No device read is charged (the data never
// touches the dead drive); the work is host software time, counted with the
// extract cost. Keys the store cannot produce (timing-only engines, or a
// home page with a corrupt host image) degrade to FailedKeys.
func (w *Worker) serveFromStore(st *QueryStats, t int64) int64 {
	e := w.eng
	if len(w.fbKeys) == 0 {
		return t
	}
	if e.cfg.Store == nil {
		w.failedKeys = append(w.failedKeys, w.fbKeys...)
		return t
	}
	var homes []pageKeys
	for _, k := range w.fbKeys {
		homes = addToPage(homes, e.cfg.Layout.Home[k], k)
	}
	for _, g := range homes {
		if err := w.extract(ssd.Completion{Page: g.page}, g.keys); err != nil {
			w.failedKeys = append(w.failedKeys, g.keys...)
			continue
		}
		st.StoreFallbacks += len(g.keys)
	}
	e.Recovery.StoreFallbacks.Add(int64(st.StoreFallbacks))
	// The host-side page read costs software time over and above the
	// shared extract pass these keys also go through.
	c := e.costs.Extract(st.StoreFallbacks)
	st.OtherSoftNS += c
	return t + c
}

// admit offers the cache a key a lookup just read from a page and returns
// the storage that fell out of it (nil when the cache grew). Keys that miss
// together on one page cost one read however many of them are cached — a
// hit saves a read only when it removes the last missing key from a page —
// so admission follows the read's width. A solo key, whose read served no
// other key of the pass, saves exactly one read per later hit, and what its
// slot is worth is how often that happens: PutIfHotter counts the offer
// beside the key's hits and lets it take the LRU victim's place only when it
// has been counted more often than the victim — evicting for a key seen
// once throws out a cold but recurring one before its next use. A key whose
// read was shared takes a free slot when its shard has one, since unused
// capacity saves nothing, and is otherwise not cached: evicting for it would
// trade an entry worth a whole read for one worth a fraction. Under
// Config.AdmitAll both inserts are the paper's Put.
func (e *Engine) admit(k Key, v []byte, solo bool) []byte {
	insert := e.admitShared
	if solo {
		insert = e.admitSolo
	}
	v, _ = insert(k, v)
	return v
}

// assemble closes the pass: it charges the extract cost of the keys read
// from page images, offers them to the cache (see admit) — each payload
// copied straight into the storage the previous offer displaced — and
// appends the probe's hits, so that w.keys/w.refs, which the Result
// aliases, cover every served key: page-served first, in read order, then
// DRAM hits.
// Degradation counters are the caller's (see finish): Lookup counts one
// degraded query, LookupBatch attributes failed keys to each owning query.
func (w *Worker) assemble(st *QueryStats, t int64) Result {
	e := w.eng
	extract := e.costs.Extract(len(w.keys))
	t += extract
	st.OtherSoftNS += extract
	switch {
	case e.cache == nil:
	case e.cfg.Store != nil:
		var spare []byte // cache storage the last miss-fill displaced
		for i, k := range w.keys {
			spare = e.admit(k, append(e.vecs.Get(spare), w.refs[i].Payload...), w.solo[i])
		}
		e.vecs.Put(spare)
	default:
		// Timing-only: placeholders for the keys whose reads succeeded.
		// Without payloads no read left a record, so a key goes by the width
		// of the read it was planned on, recovered or not. Selection is over,
		// so seen is free to mark the failed keys.
		clear(w.seen)
		for _, k := range w.failedKeys {
			w.seen[k] = true
		}
		for _, pe := range w.plan {
			group := w.coveredFlat[pe.from:pe.to]
			for _, k := range group {
				if !w.seen[k] {
					e.admit(k, nil, len(group) == 1)
				}
			}
		}
	}
	// Hit i sits i payloads into the arena (timing-only: 0 bytes wide).
	width := 4 * e.dim
	w.keys = append(w.keys, w.hitKeys...)
	for i := range w.hitKeys {
		w.refs = append(w.refs, SlotRef{Payload: w.arena[i*width : (i+1)*width : (i+1)*width]})
	}
	res := Result{Keys: w.keys, Refs: w.refs}
	if len(w.failedKeys) > 0 {
		st.FailedKeys = len(w.failedKeys)
		st.Degraded = true
		res.FailedKeys = w.failedKeys
	}
	w.foldQueuePeaks()
	st.EndNS = t
	w.now = t
	res.Stats = *st
	return res
}
