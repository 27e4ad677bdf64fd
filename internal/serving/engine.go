// Package serving implements MaxEmbed's online phase end to end: query →
// dedupe → DRAM cache probe → page selection → (pipelined) asynchronous
// SSD reads → vector extraction → cache fill. Timing is virtual: device
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
	// SegmentedCache switches the DRAM cache from plain LRU (the paper's
	// configuration) to CacheLib's scan-resistant segmented LRU.
	SegmentedCache bool
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
	health     ssd.HealthReporter
	idx        *selection.Index
	cache      *cache.Cache[Key, []float32]
	vecs       *cache.Slab[float32] // the cache's vector storage; nil without a Store
	shadow     *cache.Shadow[Key]
	costs      CostModel
	dim        int
	vecSize    int
	maxRetries int
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
		e.vecs = cache.NewSlab[float32](e.dim)
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
		if cfg.SegmentedCache {
			e.cache = cache.NewSegmentedLRU[Key, []float32](cfg.CacheEntries, cache.Uint32Hasher)
		} else {
			e.cache = cache.New[Key, []float32](cfg.CacheEntries, cache.Uint32Hasher)
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
// Store the real vectors are extracted (one read per distinct home page);
// timing-only engines pin nil placeholders.
func (e *Engine) pinKeys(keys []Key) error {
	if len(keys) == 0 {
		return nil
	}
	lay := e.cfg.Layout
	if e.cfg.Store == nil {
		for _, k := range keys {
			if int(k) >= lay.NumKeys {
				return fmt.Errorf("serving: pinned key %d out of range (%d keys)", k, lay.NumKeys)
			}
			e.cache.Pin(k, nil)
		}
		return nil
	}
	byPage := make(map[layout.PageID][]Key)
	for _, k := range keys {
		if int(k) >= lay.NumKeys {
			return fmt.Errorf("serving: pinned key %d out of range (%d keys)", k, lay.NumKeys)
		}
		home := lay.Home[k]
		byPage[home] = append(byPage[home], k)
	}
	buf := make([]byte, e.cfg.Store.PageSize())
	for home, ks := range byPage {
		if err := e.cfg.Store.ReadPage(home, buf); err != nil {
			return fmt.Errorf("serving: pin page %d: %w", home, err)
		}
		nSlots := len(lay.Pages[home])
		for _, k := range ks {
			vec, ok, err := store.ExtractFromImage(buf, e.dim, k, nSlots, nil)
			if err != nil {
				return fmt.Errorf("serving: pin key %d: %w", k, err)
			}
			if !ok {
				return fmt.Errorf("serving: pin: home page %d missing key %d", home, k)
			}
			e.cache.Pin(k, vec)
		}
	}
	return nil
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
func (e *Engine) Cache() *cache.Cache[Key, []float32] { return e.cache }

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
	// StartNS/EndNS bound the query on the worker's virtual clock.
	StartNS, EndNS int64
	// SortNS, SelectNS, and OtherSoftNS break down charged software time;
	// SSDWaitNS is the residual the worker spent blocked on the device;
	// RecoveryNS is the extra time spent on backoff and recovery reads.
	SortNS, SelectNS, OtherSoftNS, SSDWaitNS, RecoveryNS int64
}

// LatencyNS returns the end-to-end virtual latency.
func (s QueryStats) LatencyNS() int64 { return s.EndNS - s.StartNS }

// Result is the outcome of one lookup. Vectors are only populated when the
// engine has a Store. Everything a Result points to is worker memory the
// worker's next lookup reuses — nothing aliases the DRAM cache — so the
// caller must consume the result before then.
type Result struct {
	Stats QueryStats
	// Keys and Vectors are parallel, covering every distinct key of the
	// query that was served. Each entry's embedding is in exactly one
	// place: Vectors[i] when the worker holds a decoded copy (cache hits,
	// store fallbacks, simulated reads), or Refs[i] with Vectors[i] == nil
	// when a real-I/O backend served the key straight from a completion
	// buffer. A DRAM cache does not change which.
	Keys    []Key
	Vectors [][]float32
	// Refs, non-nil exactly when the engine has a Store, is parallel to
	// Keys: Refs[i], when Valid, is a zero-copy view of Keys[i]'s
	// checksum-verified payload inside a completion buffer (see SlotRef).
	// Views stay valid until the worker's next lookup; retain them to hold
	// the buffers longer.
	Refs []SlotRef
	// FailedKeys lists distinct query keys that could not be served
	// because every read attempt within the retry budget failed. Empty on
	// a fully successful lookup. The slice is reused by the worker.
	FailedKeys []Key
}

// RetainRefs takes one reference per valid ref in the result, pinning the
// underlying completion buffers past the worker's next lookup. Pair with
// ReleaseRefs.
func (r *Result) RetainRefs() {
	for i := range r.Refs {
		r.Refs[i].Retain()
	}
}

// ReleaseRefs drops the references taken by RetainRefs.
func (r *Result) ReleaseRefs() {
	for i := range r.Refs {
		r.Refs[i].Release()
	}
}

// planEntry records one selected page and the range of covered keys in
// Worker.coveredFlat.
type planEntry struct {
	page       layout.PageID
	from, to   int
	issueAtNS  int64
	selectCost int64
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

// extracted records one successfully decoded vector in Worker.vecArena.
type extracted struct {
	key Key
	off int
}

// refExtracted records one checksum-verified zero-copy payload view into a
// completion buffer (real-I/O backends).
type refExtracted struct {
	key Key
	ref SlotRef
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
	// construction and is left stale by reroutePlan on purpose.
	depthBuf []int

	// ctx, when non-nil, cancels the recovery retry loop of the query in
	// flight: an abandoned request degrades immediately instead of
	// burning retries and queue slots. Set by LookupCtx per query.
	ctx context.Context

	// Per-query scratch.
	plan        []planEntry
	coveredFlat []Key
	plan2       []planEntry // reroute scratch: rebuilt plan
	flat2       []Key       // reroute scratch: rebuilt coveredFlat
	fbKeys      []Key       // keys with no live replica, for store fallback
	distinct    []Key
	batchBuf    []Key
	hitKeys     []Key
	vecArena    []float32 // cache hits' copies first, then extractions
	out         []extracted
	refOut      []refExtracted // zero-copy extractions (real-I/O backends)
	held        []*ssd.PageBuf // completion buffers alive until next lookup
	pageBuf     []byte
	failures    []pageFailure
	failedKeys  []Key
	resKeys     []Key
	resVecs     [][]float32
	resRefs     []SlotRef
	perQuery    []Result // LookupBatch's scattered results, reused per batch
	compMap     map[layout.PageID]ssd.Completion
	// seen holds the query's distinct keys; true marks the ones this
	// lookup's cache probe hit, which is what selection skips.
	seen map[Key]bool

	// skipFn and emitFn are the selection callbacks, built once per worker
	// so the hot path does not allocate a closure per query. emitFn reads
	// prevSel, which lookupCombined resets before each selection.
	skipFn  func(Key) bool
	emitFn  selection.EmitFunc
	prevSel selection.Stats

	// Batch-scatter scratch (LookupBatch).
	scatter scatterScratch
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
	if e.cfg.Store != nil {
		w.pageBuf = make([]byte, e.cfg.Store.PageSize())
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

// planMaxShardDepth counts the final plan's reads per shard and returns
// the deepest count. It recomputes from w.plan rather than reading
// w.shardLoad: the tie-break counters track the plan as selection built
// it, and reroutePlan rebuilds the plan without maintaining them.
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
	for i := range w.depthBuf {
		w.depthBuf[i] = 0
	}
	deepest := 0
	for _, pe := range w.plan {
		s, _ := e.be.ShardOf(pe.page)
		w.depthBuf[s]++
		if w.depthBuf[s] > deepest {
			deepest = w.depthBuf[s]
		}
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
	res.Stats.BatchSize = 1
	res.Stats.PageShare = float64(res.Stats.PagesRead)
	if res.Stats.Degraded {
		w.eng.Recovery.DegradedQueries.Inc()
		w.eng.Recovery.FailedKeys.Add(int64(res.Stats.FailedKeys))
	}
	w.eng.SpreadDepth.Add(res.Stats.MaxShardDepth)
	w.eng.Latency.Record(res.Stats.LatencyNS())
	return res, nil
}

// lookupCombined is the combined dedupe → cache probe → selection →
// pipelined-read → recovery pass behind both Lookup and LookupBatch. It
// leaves the worker's per-query scratch (plan, coveredFlat, hitKeys,
// failedKeys) describing the pass so LookupBatch can scatter the outcome
// back per query, and does not record latency — callers attribute it.
// record controls history recording: Lookup records its distinct key set
// here, LookupBatch records each member query's set separately so the
// refresh loop sees true per-query co-appearance, not batch artifacts.
func (w *Worker) lookupCombined(query []Key, record bool) (Result, error) {
	e := w.eng
	var st QueryStats
	st.Keys = len(query)
	st.Generation = e.gen
	st.StartNS = w.now
	t := w.now

	// The previous lookup's zero-copy views die here: drop the worker's
	// references so completion buffers recycle (unless a caller Retained).
	w.releaseHeld()
	w.refOut = w.refOut[:0]

	for i := range w.shardLoad {
		w.shardLoad[i] = 0
	}

	// Cache probe over distinct keys (first-appearance order, so LRU
	// promotion order is deterministic); hits are served from DRAM.
	w.hitKeys = w.hitKeys[:0]
	w.vecArena = w.vecArena[:0]
	w.distinct = w.distinct[:0]
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
	if e.cache != nil {
		// One probe per key, copying hits into the arena under the cache's
		// lock: displaced cache storage is recycled, so never aliased.
		for _, k := range w.distinct {
			var ok bool
			if w.vecArena, ok = cache.GetAppend(e.cache, k, w.vecArena); ok {
				w.hitKeys = append(w.hitKeys, k)
				w.seen[k] = true
			}
		}
		probe := e.costs.CacheProbe(st.DistinctKeys)
		t += probe
		st.OtherSoftNS += probe
		st.CacheHits = len(w.hitKeys)
	}
	// Sort cost is charged up front (§6.1 ❶ happens inside the selector;
	// the model charges for the keys that reach it).
	missKeys := st.DistinctKeys - st.CacheHits
	sortCost := e.costs.Sort(missKeys)
	t += sortCost
	st.SortNS = sortCost

	// Page selection, optionally pipelined with submission. The callbacks
	// are worker-lifetime (built in NewWorker); emitFn accumulates into
	// w.plan/w.coveredFlat and reads w.prevSel, reset here per query.
	w.plan = w.plan[:0]
	w.coveredFlat = w.coveredFlat[:0]
	w.prevSel = selection.Stats{}
	var selErr error
	switch {
	case e.cfg.Greedy:
		_, selErr = w.sel.Greedy(query, w.skipFn, w.emitFn)
	case e.cfg.UnsortedSelection:
		_, selErr = w.sel.OnePassUnsorted(query, w.skipFn, w.emitFn)
	default:
		_, selErr = w.sel.OnePass(query, w.skipFn, w.emitFn)
	}
	if selErr != nil {
		return Result{}, selErr
	}

	// On a health-reporting backend, move reads planned onto
	// failed/rebuilding shards to live replicas before submitting anything.
	w.reroutePlan(&st)
	st.MaxShardDepth = w.planMaxShardDepth()

	// Submit per the pipeline mode, charging selection cost as it accrues.
	if e.cfg.Pipeline {
		for i := range w.plan {
			t += w.plan[i].selectCost
			st.SelectNS += w.plan[i].selectCost
			w.plan[i].issueAtNS = w.q.Submit(w.plan[i].page, t)
		}
	} else {
		for i := range w.plan {
			t += w.plan[i].selectCost
			st.SelectNS += w.plan[i].selectCost
		}
		for i := range w.plan {
			w.plan[i].issueAtNS = w.q.Submit(w.plan[i].page, t)
		}
	}

	// Reap completions, extract vectors, and recover from faults.
	done, comps := w.q.Drain(t)
	ssdWait := done - t
	if ssdWait < 0 {
		ssdWait = 0
	}
	st.SSDWaitNS = ssdWait
	t = done
	st.PagesRead = len(w.plan)

	w.out = w.out[:0]
	w.failures = w.failures[:0]
	w.failedKeys = w.failedKeys[:0]
	clear(w.compMap)
	for _, c := range comps {
		w.compMap[c.Page] = c
	}
	// The Fig 9 histogram is fed per read as its outcome resolves: a read
	// that faulted served nothing (0 valid embeddings), and recovery reads
	// — issued in recover below — are reads too, each counted with the
	// keys it actually served. Crediting planned coverage up front would
	// overstate the histogram (and everything derived from it) exactly
	// when faults make it matter.
	for _, pe := range w.plan {
		keys := w.coveredFlat[pe.from:pe.to]
		c := w.compMap[pe.page]
		if fail, cause := w.consume(&st, c, keys); fail {
			e.ValidPerRead.Add(0)
			w.failures = append(w.failures, pageFailure{page: pe.page, keys: keys, cause: cause})
		} else {
			e.ValidPerRead.Add(len(keys))
		}
	}
	if len(w.failures) > 0 {
		t = w.recover(&st, t)
	}
	st.UsefulFromSSD = len(w.coveredFlat) - len(w.failedKeys)
	if len(w.fbKeys) > 0 {
		t = w.serveFromStore(&st, t)
	}

	// Assemble the result and fill the cache. Zero-copy extractions come
	// first (their refs alias completion buffers pinned in w.held), then
	// arena-backed extractions (simulated reads, store fallbacks), then
	// DRAM cache hits. Each miss is decoded or copied straight into the
	// storage the previous fill displaced.
	res := Result{}
	w.resKeys = w.resKeys[:0]
	w.resVecs = w.resVecs[:0]
	w.resRefs = w.resRefs[:0]
	extract := e.costs.Extract(len(w.out) + len(w.refOut))
	t += extract
	st.OtherSoftNS += extract
	if e.cfg.Store != nil {
		var spare []float32 // cache storage the last miss-fill displaced
		for _, x := range w.refOut {
			w.resKeys = append(w.resKeys, x.key)
			w.resRefs = append(w.resRefs, x.ref)
			w.resVecs = append(w.resVecs, nil)
			if e.cache != nil {
				spare, _ = e.cache.Put(x.key, x.ref.AppendVector(e.vecs.Get(spare)))
			}
		}
		for _, x := range w.out {
			vec := w.vecArena[x.off : x.off+e.dim]
			w.resKeys = append(w.resKeys, x.key)
			w.resVecs = append(w.resVecs, vec)
			w.resRefs = append(w.resRefs, SlotRef{})
			if e.cache != nil {
				spare, _ = e.cache.Put(x.key, append(e.vecs.Get(spare), vec...))
			}
		}
		e.vecs.Put(spare)
	} else if e.cache != nil {
		// Selection is over, so seen is free to mark the failed keys.
		clear(w.seen)
		for _, k := range w.failedKeys {
			w.seen[k] = true
		}
		for _, k := range w.coveredFlat {
			if !w.seen[k] {
				e.cache.Put(k, nil)
			}
		}
	}
	w.resKeys = append(w.resKeys, w.hitKeys...)
	for i := range w.hitKeys {
		// Hit i sits at the head of the arena, dim (timing-only: 0) wide.
		w.resVecs = append(w.resVecs, w.vecArena[i*e.dim:(i+1)*e.dim])
		w.resRefs = append(w.resRefs, SlotRef{})
	}
	res.Keys = w.resKeys
	res.Vectors = w.resVecs
	if e.cfg.Store != nil {
		res.Refs = w.resRefs
	}
	// Degradation counters are the caller's: Lookup counts one degraded
	// query, LookupBatch attributes failed keys to each owning query.
	if len(w.failedKeys) > 0 {
		st.FailedKeys = len(w.failedKeys)
		st.Degraded = true
		res.FailedKeys = w.failedKeys
	}

	w.foldQueuePeaks()
	st.EndNS = t
	w.now = t
	res.Stats = st
	return res, nil
}

// consume processes one page read's completion: it observes device errors,
// and — when a Store is present — extracts and verifies every covered
// key's vector from the page image. It reports whether the page must enter
// recovery, with the cause.
func (w *Worker) consume(st *QueryStats, c ssd.Completion, keys []Key) (failed bool, cause error) {
	e := w.eng
	if c.Err != nil {
		if c.Buf != nil {
			// Defensive: real-I/O drains release error buffers themselves.
			c.Buf.Release()
		}
		st.ReadFaults++
		e.Recovery.ReadErrors.Inc()
		if errors.Is(c.Err, ssd.ErrTimeout) {
			e.Recovery.Timeouts.Inc()
		}
		return true, c.Err
	}
	if c.Buf != nil {
		// Real-I/O backend: the page image arrived in a refcounted
		// completion buffer. Verify and slice payloads in place — the
		// zero-copy path — instead of re-reading the host store.
		if e.cfg.Store == nil {
			c.Buf.Release()
			return false, nil
		}
		if err := w.extractRefs(c, keys); err != nil {
			st.ReadFaults++
			if errors.Is(err, store.ErrCorrupt) {
				st.Corruptions++
				e.Recovery.Corruptions.Inc()
			}
			return true, err
		}
		return false, nil
	}
	if e.cfg.Store == nil {
		// Timing-only: nothing to extract; silent corruption is
		// undetectable without payloads, as on real hardware without
		// end-to-end checksums.
		return false, nil
	}
	if err := w.extractPage(c.Page, keys, c.Corrupt); err != nil {
		st.ReadFaults++
		if errors.Is(err, store.ErrCorrupt) {
			st.Corruptions++
			e.Recovery.Corruptions.Inc()
		}
		return true, err
	}
	return false, nil
}

// extractRefs verifies every covered key's slot checksum directly in the
// completion buffer and records a SlotRef payload view per key — no byte
// of the payload is copied between the device read and the response
// encoders. On success the buffer joins w.held, keeping it alive until the
// worker's next lookup releases it (or longer, where a holder Retains). On
// any failure the views are rolled back and the buffer released so the
// whole page can be recovered elsewhere.
func (w *Worker) extractRefs(c ssd.Completion, keys []Key) error {
	e := w.eng
	img := c.Buf.Bytes()
	nSlots := len(e.cfg.Layout.Pages[c.Page])
	if c.Corrupt {
		// Injected in-flight corruption damages the buffer (never the
		// store) so the checksum path detects it like real bit rot.
		slot := 8 + 4*e.dim
		for i := 0; i < nSlots; i++ {
			img[i*slot+4] ^= 0xA5
		}
	}
	mark := len(w.refOut)
	for _, k := range keys {
		off, found, err := store.VerifySlotInImage(img, e.dim, k, nSlots)
		if err != nil || !found {
			w.refOut = w.refOut[:mark]
			c.Buf.Release()
			if err == nil {
				err = fmt.Errorf("page does not hold key %d", k)
			}
			return fmt.Errorf("serving: extract key %d from page %d: %w", k, c.Page, err)
		}
		end := off + 4*e.dim
		w.refOut = append(w.refOut, refExtracted{
			key: k,
			ref: SlotRef{buf: c.Buf, payload: img[off:end:end]},
		})
	}
	w.held = append(w.held, c.Buf)
	return nil
}

// releaseHeld drops the worker's references on the previous lookup's
// completion buffers. Refs returned in that lookup's Result become invalid
// unless their holder Retained them — the same lifetime the Result's other
// slices have.
func (w *Worker) releaseHeld() {
	for i, b := range w.held {
		b.Release()
		w.held[i] = nil
	}
	w.held = w.held[:0]
}

// extractPage reads page p's image into the worker's buffer, applies
// injected corruption when the completion was flagged, and decodes every
// key in keys with checksum verification. On any failure the arena and
// output are rolled back so the whole page can be recovered elsewhere.
func (w *Worker) extractPage(p layout.PageID, keys []Key, corrupt bool) error {
	e := w.eng
	if err := e.cfg.Store.ReadPage(p, w.pageBuf); err != nil {
		return fmt.Errorf("serving: page %d payload: %w", p, err)
	}
	nSlots := len(e.cfg.Layout.Pages[p])
	if corrupt {
		// The device flagged this read's payload as corrupted in flight.
		// Damage the host buffer (never the store) so the checksum path
		// detects it exactly as it would real bit rot.
		slot := 8 + 4*e.dim
		for i := 0; i < nSlots; i++ {
			w.pageBuf[i*slot+4] ^= 0xA5
		}
	}
	arenaMark, outMark := len(w.vecArena), len(w.out)
	for _, k := range keys {
		off := len(w.vecArena)
		var ok bool
		var err error
		w.vecArena, ok, err = store.ExtractFromImage(w.pageBuf, e.dim, k, nSlots, w.vecArena)
		if err != nil || !ok {
			w.vecArena = w.vecArena[:arenaMark]
			w.out = w.out[:outMark]
			if err == nil {
				err = fmt.Errorf("page does not hold key %d", k)
			}
			return fmt.Errorf("serving: extract key %d from page %d: %w", k, p, err)
		}
		w.out = append(w.out, extracted{key: k, off: off})
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
	if cap := int64(e.cfg.RetryBackoffCap); d > cap {
		d = cap
	}
	return d
}

// recoveryGroup batches keys of one failure that share a recovery target
// page.
type recoveryGroup struct {
	page layout.PageID
	keys []Key
}

// recover drains the worker's failure queue: each failed page's keys are
// re-fetched after a capped exponential backoff, preferring an alternate
// replica page from the index over re-reading the page that just failed.
// Chains that exhaust MaxRetries, and queries that exhaust RetryBudget,
// give their keys up to failedKeys. Returns the advanced clock.
func (w *Worker) recover(st *QueryStats, t int64) int64 {
	e := w.eng
	start := t
	spent := 0
	// The queue grows as recovery reads themselves fail; index-iterate.
	for qi := 0; qi < len(w.failures); qi++ {
		f := w.failures[qi]
		if f.attempt >= e.maxRetries || spent >= e.cfg.RetryBudget {
			w.failedKeys = append(w.failedKeys, f.keys...)
			continue
		}
		if w.ctx != nil && w.ctx.Err() != nil {
			// The request was abandoned: degrade the rest of the queue
			// instead of spending retries nobody is waiting for.
			w.failedKeys = append(w.failedKeys, f.keys...)
			continue
		}
		issueAt := t + e.backoffDelay(f.attempt)

		// Pick each key's recovery target: the first candidate page not
		// already tried in this chain — on a multi-device backend,
		// preferring a candidate on a different shard than the page that
		// just failed, so shard-diverse replicas route around a whole
		// faulty drive. Keys with no alternate replica re-read the failed
		// page. Grouping preserves key order so the schedule is
		// deterministic; with one shard the pick is unchanged.
		failShard, _ := e.be.ShardOf(f.page)
		var groups []recoveryGroup
		for _, k := range f.keys {
			target := f.page
			if e.numShards > 1 {
				for _, cand := range e.idx.Candidates(k) {
					if cand == f.page || containsPage(f.tried, cand) {
						continue
					}
					cs, _ := e.be.ShardOf(cand)
					if e.health != nil && !e.health.ShardState(cs).Live() {
						continue // never retry into a declared-dead shard
					}
					if cs != failShard {
						target = cand
						break
					}
				}
			}
			if target == f.page {
				for _, cand := range e.idx.Candidates(k) {
					if cand == f.page || containsPage(f.tried, cand) {
						continue
					}
					if cs, _ := e.be.ShardOf(cand); e.health != nil && !e.health.ShardState(cs).Live() {
						continue
					}
					target = cand
					break
				}
			}
			gi := -1
			for i := range groups {
				if groups[i].page == target {
					gi = i
					break
				}
			}
			if gi < 0 {
				groups = append(groups, recoveryGroup{page: target})
				gi = len(groups) - 1
			}
			groups[gi].keys = append(groups[gi].keys, k)
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
		if done > t {
			t = done
		}
		clear(w.compMap)
		for _, c := range comps {
			w.compMap[c.Page] = c
		}
		for _, g := range submitted {
			c := w.compMap[g.page]
			fail, cause := w.consume(st, c, g.keys)
			if fail {
				e.ValidPerRead.Add(0)
				tried := append(append([]layout.PageID(nil), f.tried...), f.page)
				w.failures = append(w.failures, pageFailure{
					page: g.page, keys: g.keys, attempt: f.attempt + 1,
					tried: tried, cause: cause,
				})
				continue
			}
			// A successful recovery read is a page read like any other:
			// it enters the histogram with the keys it served.
			e.ValidPerRead.Add(len(g.keys))
			e.Recovery.RecoveredKeys.Add(int64(len(g.keys)))
			if g.page != f.page {
				st.ReplicaRescues += len(g.keys)
				e.Recovery.ReplicaRescues.Add(int64(len(g.keys)))
			}
		}
	}
	w.failures = w.failures[:0]
	st.RecoveryNS = t - start
	return t
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

// reroutePlan runs between selection and submission on health-reporting
// backends: pages planned on failed or rebuilding shards are replaced by
// replica candidates on live shards before any read is issued, so a
// declared-dead drive costs zero wasted reads per query instead of one
// fault-plus-recovery per touched page. Keys with no live replica are set
// aside for host-store read-through (serveFromStore). The plan and its
// covered-keys arena are rebuilt into fresh scratch and swapped — never
// appended to in place — so per-key accounting (UsefulFromSSD, batch
// scatter) keeps seeing each key exactly once.
func (w *Worker) reroutePlan(st *QueryStats) {
	e := w.eng
	w.fbKeys = w.fbKeys[:0]
	if e.health == nil || len(w.plan) == 0 {
		return
	}
	anyDead := false
	for _, pe := range w.plan {
		s, _ := e.be.ShardOf(pe.page)
		if !e.health.ShardState(s).Live() {
			anyDead = true
			break
		}
	}
	if !anyDead {
		return
	}

	var extra []recoveryGroup
	w.plan2 = w.plan2[:0]
	w.flat2 = w.flat2[:0]
	for _, pe := range w.plan {
		keys := w.coveredFlat[pe.from:pe.to]
		if s, _ := e.be.ShardOf(pe.page); e.health.ShardState(s).Live() {
			pe.from = len(w.flat2)
			w.flat2 = append(w.flat2, keys...)
			pe.to = len(w.flat2)
			w.plan2 = append(w.plan2, pe)
			continue
		}
		for _, k := range keys {
			target, ok := w.liveCandidate(k, pe.page, extra)
			if !ok {
				w.fbKeys = append(w.fbKeys, k)
				continue
			}
			gi := -1
			for i := range extra {
				if extra[i].page == target {
					gi = i
					break
				}
			}
			if gi < 0 {
				extra = append(extra, recoveryGroup{page: target})
				gi = len(extra) - 1
			}
			extra[gi].keys = append(extra[gi].keys, k)
		}
	}
	rerouted := 0
	for _, g := range extra {
		from := len(w.flat2)
		w.flat2 = append(w.flat2, g.keys...)
		w.plan2 = append(w.plan2, planEntry{
			page: g.page, from: from, to: len(w.flat2),
			// The reroute's own cost is one extra submit per target page;
			// the original entries' selection cost was already charged.
			selectCost: e.costs.Submit(),
		})
		rerouted += len(g.keys)
	}
	st.ShardReroutes = rerouted
	e.Recovery.ShardReroutes.Add(int64(rerouted))
	w.plan, w.plan2 = w.plan2, w.plan
	w.coveredFlat, w.flat2 = w.flat2, w.coveredFlat
}

// liveCandidate picks key k's reroute target: a candidate page on a live
// shard, preferring one this reroute is already reading (so shared pages
// cost one read, not one per key), excluding the dead page being replaced.
func (w *Worker) liveCandidate(k Key, avoid layout.PageID, extra []recoveryGroup) (layout.PageID, bool) {
	e := w.eng
	var first layout.PageID
	found := false
	for _, cand := range e.idx.Candidates(k) {
		if cand == avoid {
			continue
		}
		if s, _ := e.be.ShardOf(cand); !e.health.ShardState(s).Live() {
			continue
		}
		for i := range extra {
			if extra[i].page == cand {
				return cand, true
			}
		}
		if !found {
			first, found = cand, true
		}
	}
	return first, found
}

// serveFromStore serves the keys reroutePlan found no live replica for by
// reading their home pages from the host's store image — the pristine
// copy the offline build left behind. No device read is charged (the data
// never touches the dead drive); the work is host software time, counted
// with the extract cost. Keys the store cannot produce (timing-only
// engines, or a corrupt host image) degrade to FailedKeys.
func (w *Worker) serveFromStore(st *QueryStats, t int64) int64 {
	e := w.eng
	if e.cfg.Store == nil {
		w.failedKeys = append(w.failedKeys, w.fbKeys...)
		return t
	}
	served := 0
	lay := e.cfg.Layout
	for _, k := range w.fbKeys {
		p := lay.Home[k]
		if err := e.cfg.Store.ReadPage(p, w.pageBuf); err != nil {
			w.failedKeys = append(w.failedKeys, k)
			continue
		}
		off := len(w.vecArena)
		var ok bool
		var err error
		w.vecArena, ok, err = store.ExtractFromImage(w.pageBuf, e.dim, k, len(lay.Pages[p]), w.vecArena)
		if err != nil || !ok {
			w.vecArena = w.vecArena[:off]
			w.failedKeys = append(w.failedKeys, k)
			continue
		}
		w.out = append(w.out, extracted{key: k, off: off})
		served++
	}
	st.StoreFallbacks = served
	e.Recovery.StoreFallbacks.Add(int64(served))
	// The host-side page read and decode costs software time over and
	// above the shared extract pass these vectors also go through.
	c := e.costs.Extract(served)
	st.OtherSoftNS += c
	return t + c
}

// containsPage reports whether pages contains p.
func containsPage(pages []layout.PageID, p layout.PageID) bool {
	for _, q := range pages {
		if q == p {
			return true
		}
	}
	return false
}
