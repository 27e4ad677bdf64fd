package maxembed

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"

	"maxembed/internal/cache"
	"maxembed/internal/embedding"
	"maxembed/internal/hypergraph"
	"maxembed/internal/layout"
	"maxembed/internal/placement"
	"maxembed/internal/serving"
	"maxembed/internal/ssd"
	"maxembed/internal/store"
	"maxembed/internal/workload"
)

// Key identifies an embedding; the key space is dense [0, NumItems).
type Key = uint32

// Strategy selects the offline placement algorithm.
type Strategy = placement.Strategy

// Placement strategies, named as the paper labels them. StrategyMaxEmbed is
// the paper's solution; StrategySHP is the Bandana baseline (one copy per
// key on its partition's page); StrategyRPP/StrategyFPR are the §5
// strawmen; StrategyVanilla is sequential placement. All but Vanilla start
// from the same base partition — greedy co-appearance page growth, not the
// SHP algorithm (DESIGN.md §4).
const (
	StrategyVanilla  = placement.StrategyVanilla
	StrategySHP      = placement.StrategySHP
	StrategyRPP      = placement.StrategyRPP
	StrategyFPR      = placement.StrategyFPR
	StrategyMaxEmbed = placement.StrategyMaxEmbed
)

// DeviceProfile describes the simulated SSD model.
type DeviceProfile = ssd.Profile

// Built-in device profiles (§8.1, Fig 17b).
var (
	DeviceP5800X = ssd.P5800X
	DeviceP4510  = ssd.P4510
)

// FaultConfig parameterizes deterministic device fault injection: per-read
// error/timeout/corruption probabilities and latency disturbances. See
// ssd.InjectorConfig for field documentation.
type FaultConfig = ssd.InjectorConfig

// config is assembled by Options.
type config struct {
	strategy     Strategy
	dim          int
	pageSize     int
	ratio        float64
	indexLimit   int
	cacheEntries int
	cacheRatio   float64
	pipeline     bool
	greedy       bool
	recordLast   int
	seed         int64
	device       DeviceProfile
	devices      int
	tiers        []ssd.TierSpec
	pinTop       int
	shadowSizes  []int
	shadow       bool
	timingOnly   bool
	faults       *FaultConfig
	hotSpare     bool
	autoRebuild  bool
	rebuildRate  float64
	coact        bool
	fileDir      string
}

// despreadEnabled reports whether the shard-assignment pass
// (placement.Despread) runs after placement: it needs multiple shards,
// and either explicit co-activation placement or a tiered array — whose
// Retier pass permutes page IDs by heat alone and can break the replica
// shard diversity Build emitted, which the pass repairs even without
// co-activation input.
func (c config) despreadEnabled(tierMap []int) bool {
	return c.devices > 1 && (c.coact || tierMap != nil)
}

// Option customizes Open.
type Option func(*config)

// WithStrategy selects the placement strategy (default StrategyMaxEmbed).
func WithStrategy(s Strategy) Option { return func(c *config) { c.strategy = s } }

// WithEmbeddingDim sets the embedding dimension (default 64, the paper's
// default 256-byte vectors).
func WithEmbeddingDim(dim int) Option { return func(c *config) { c.dim = dim } }

// WithReplicationRatio sets r, the replica budget as a fraction of the key
// count (default 0.1).
func WithReplicationRatio(r float64) Option { return func(c *config) { c.ratio = r } }

// WithIndexLimit sets k for index shrinking (§6.1); 0 keeps all entries.
// Default 10, the paper's sweet spot (Fig 16).
func WithIndexLimit(k int) Option { return func(c *config) { c.indexLimit = k } }

// WithCacheEntries sets the DRAM cache capacity in embeddings (overrides
// WithCacheRatio). 0 disables the cache. The cache's index is made for n
// entries at Open, so n is memory asked for, not an upper limit to be
// generous with.
func WithCacheEntries(n int) Option {
	return func(c *config) { c.cacheEntries = n; c.cacheRatio = -1 }
}

// WithCacheRatio sizes the DRAM cache as a fraction of the key count
// (default 0.1, the paper's default §8.1). The cache is the paper's LRU with
// update-on-read, except that it admits by page cost: while it has room it
// caches every key a lookup reads, and once full it evicts only for a key
// whose page read served no other key of the lookup — keys that miss
// together on one page cost one read however many of them are cached — and
// that it has counted, in such reads and in hits, more often than the entry
// it would evict.
func WithCacheRatio(f float64) Option { return func(c *config) { c.cacheRatio = f } }

// WithHistoryRecording keeps the distinct key sets of the last n served
// queries; retrieve them with RecordedHistory and feed them to Refresh to
// adapt replication to live traffic.
func WithHistoryRecording(n int) Option { return func(c *config) { c.recordLast = n } }

// WithoutPipeline disables selection/IO pipelining (the Fig 15 "Raw"
// configuration). Pipelining is on by default.
func WithoutPipeline() Option { return func(c *config) { c.pipeline = false } }

// WithGreedySelection uses classic greedy set cover instead of the
// one-pass algorithm (ablation).
func WithGreedySelection() Option { return func(c *config) { c.greedy = true } }

// WithSeed fixes all randomized choices (default 1).
func WithSeed(seed int64) Option { return func(c *config) { c.seed = seed } }

// WithDevice selects the simulated SSD profile (default DeviceP5800X).
func WithDevice(p DeviceProfile) Option { return func(c *config) { c.device = p } }

// WithDevices stripes the layout across n independent simulated devices of
// the configured profile (an ssd.Array: page p lives on device p mod n),
// with per-shard queue pairs, shard-aware replica placement, and per-shard
// stats. n <= 1 keeps the historical single-device deployment.
func WithDevices(n int) Option { return func(c *config) { c.devices = n } }

// TierSpec describes one tier of a heterogeneous device array: a device
// profile and how many array shards use it.
type TierSpec = ssd.TierSpec

// WithTiers stripes the layout across a heterogeneous device array mixing
// the given device classes — e.g. one P5800X-class shard fronting three
// P4510-class shards. Tier ranks follow read latency (fastest = tier 0)
// regardless of spec order. At Open, pages are assigned to tiers by
// expected access heat from the build history (hottest pages on the fast
// tier); each Refresh re-tiers from the recorder's observed counts,
// promoting and demoting pages at that refresh boundary only. Overrides
// WithDevice/WithDevices.
func WithTiers(specs ...TierSpec) Option {
	return func(c *config) { c.tiers = append([]ssd.TierSpec(nil), specs...) }
}

// WithCoActivationPlacement feeds the co-appearance hypergraph into shard
// assignment: within each tier's residue classes, page IDs are permuted so
// pages serving the same recurring query sets land on different shards
// (placement.Despread), minimizing the per-query max-shard depth that
// bounds tail latency at high load. The pass runs at Open from the build
// history and again at each Refresh from the newer history, emitted as a
// page-ID permutation that rides the same refresh-boundary atomic hot-swap
// as re-tiering — replica emission, recovery, scrubbing, and rebuild are
// untouched. Requires WithDevices(n > 1) or WithTiers; ignored on a
// single-device DB. On tiered arrays the replica shard-diversity half of
// the pass runs even without this option.
func WithCoActivationPlacement() Option { return func(c *config) { c.coact = true } }

// WithDRAMPins pins the n hottest keys (by build-history frequency,
// re-ranked at each Refresh) permanently in DRAM, above the LRU cache:
// they always hit and are never evicted. The pin-set is additional DRAM
// on top of the cache budget.
func WithDRAMPins(n int) Option { return func(c *config) { c.pinTop = n } }

// WithShadowCache attaches keys-only ghost caches simulating LRUs of the
// given entry capacities over the live distinct-key stream; their measured
// hit-rate curve (DB.ShadowCurve) is how the DRAM cache size is chosen
// from data. The ghosts admit every key, as the paper's cache does, so the
// curve is that cache's hit rate, and for the real cache (see
// WithCacheRatio), which keeps what it has counted most, it is
// conservative: the real hit rate runs above it and the pages read fall
// further than the hits say. With no explicit capacities a geometric grid
// over the key space (1%–32%) is simulated. Ghost caches cost host memory proportional
// to the largest simulated capacity but charge no virtual time.
func WithShadowCache(capacities ...int) Option {
	return func(c *config) {
		c.shadow = true
		c.shadowSizes = append([]int(nil), capacities...)
	}
}

// TimingOnly skips materializing page payloads: lookups return no vectors
// but all timing and page-read accounting is exact. Useful for large
// parameter sweeps.
func TimingOnly() Option { return func(c *config) { c.timingOnly = true } }

// WithHotSpare attaches an idle spare device (same profile as the array
// members) that a shard rebuild can stream a failed shard onto. Requires
// WithDevices(n > 1); ignored on a single-device DB.
func WithHotSpare() Option { return func(c *config) { c.hotSpare = true } }

// WithAutoRebuild arms self-healing: when a shard is declared failed
// (fault window saturation or FailShard), a background rebuild streams it
// onto the hot spare and hot-swaps the repaired array into the serving
// handle with no operator in the loop. pagesPerSec bounds the rebuild
// rate in pages per virtual second (0 uses the rebuilder's default).
// Implies WithHotSpare.
func WithAutoRebuild(pagesPerSec float64) Option {
	return func(c *config) {
		c.hotSpare = true
		c.autoRebuild = true
		c.rebuildRate = pagesPerSec
	}
}

// WithFileBackend serves reads from real files instead of the simulated
// device model: at Open the table is streamed, a page at a time, to one
// file per shard under dir (shard000.bin, ...), synced, opened with O_DIRECT
// when the filesystem allows it, and read through the asynchronous real-I/O
// backend (io_uring where available, a pread goroutine pool otherwise).
// The files are the only copy of the table — the DB holds the indexes and
// the DRAM cache, as in the paper's deployment — so pinned keys, cache
// warming and the last-resort read of a key's home page are reads of those
// files too, and a key whose every copy is damaged on disk comes back in
// FailedKeys. Lookups return zero-copy views into the backend's completion
// buffers and all latency accounting is measured wall-clock time rather
// than simulation. Point dir at an NVMe-backed filesystem to exercise real
// hardware. Combine with WithDevices(n) to stripe across n shard files.
//
// Incompatible with TimingOnly (payloads must exist to be written),
// WithTiers, WithFaultInjection, WithHotSpare/WithAutoRebuild (all
// simulator-only), with Refresh (the on-disk pages would go stale) and with
// Scrub (it patrols and repairs an in-memory table image, which a file-backed
// DB does not have). Call DB.Close to release the backend's files.
func WithFileBackend(dir string) Option { return func(c *config) { c.fileDir = dir } }

// WithFaultInjection arms the simulated device with a deterministic fault
// injector: reads fail, time out, spike, or deliver corrupt payloads at
// the configured rates, and the serving engine's recovery path (retry,
// replica rescue, graceful degradation) absorbs them. Primarily for
// resilience testing and chaos-style sweeps.
func WithFaultInjection(fc FaultConfig) Option {
	return func(c *config) { c.faults = &fc }
}

// DB is an opened embedding store: the offline phase's output plus the
// shared state of the online phase. DB is safe for concurrent use through
// per-goroutine Sessions. The serving engine lives behind a versioned
// swappable handle so Refresh can hot-swap a re-placed layout under live
// traffic: existing Sessions pick the new engine up at their next query
// boundary instead of being stranded on the old layout.
type DB struct {
	cfg      config
	backend  ssd.Backend
	syn      *embedding.Synthesizer
	recorder *serving.HistoryRecorder
	handle   *serving.Swappable

	mu               sync.Mutex
	lay              *layout.Layout
	src              serving.PageSource // payloads: the store image, or the file backend itself (nil when timing-only)
	defaultSess      *Session
	lastRefreshTotal int64 // recorder.Total() at the last successful Refresh
	pins             []Key // current DRAM pin-set (hottest keys), re-ranked per Refresh
	lastRetier       *placement.TierReport
	lastDespread     *placement.SpreadReport

	rebuildMu    sync.Mutex // serializes shard rebuilds (admin- and auto-triggered)
	scrubMu      sync.Mutex // serializes scrub sweeps
	autoRebuilds atomic.Int64
	autoErrors   atomic.Int64
}

// Open runs the offline phase over the historical queries and returns a
// serving-ready DB. numItems bounds the key space; every key in history
// and in later lookups must be below it.
func Open(numItems int, history [][]Key, opts ...Option) (*DB, error) {
	cfg := config{
		strategy:   StrategyMaxEmbed,
		dim:        64,
		pageSize:   4096,
		ratio:      0.1,
		indexLimit: 10,
		cacheRatio: 0.1,
		pipeline:   true,
		seed:       1,
		device:     DeviceP5800X,
	}
	for _, o := range opts {
		o(&cfg)
	}
	if len(cfg.tiers) > 0 {
		cfg.devices = 0
		for _, t := range cfg.tiers {
			cfg.devices += t.Devices
		}
	}
	if cfg.devices < 1 {
		cfg.devices = 1
	}
	if numItems < 0 {
		return nil, errors.New("maxembed: numItems must be non-negative")
	}
	if cfg.fileDir != "" {
		switch {
		case cfg.timingOnly:
			return nil, errors.New("maxembed: WithFileBackend is incompatible with TimingOnly (nothing to write)")
		case len(cfg.tiers) > 0:
			return nil, errors.New("maxembed: WithFileBackend is incompatible with WithTiers (simulator-only)")
		case cfg.faults != nil:
			return nil, errors.New("maxembed: WithFileBackend is incompatible with WithFaultInjection (simulator-only)")
		case cfg.hotSpare || cfg.autoRebuild:
			return nil, errors.New("maxembed: WithFileBackend is incompatible with hot-spare rebuilds (simulator-only)")
		}
	}

	g, err := hypergraph.FromQueries(numItems, history)
	if err != nil {
		return nil, fmt.Errorf("maxembed: building hypergraph: %w", err)
	}
	capacity := embedding.PageCapacity(cfg.pageSize, cfg.dim)
	lay, err := placement.Build(cfg.strategy, g, placement.Options{
		Capacity:         capacity,
		ReplicationRatio: cfg.ratio,
		Seed:             cfg.seed,
		Shards:           cfg.devices,
	})
	if err != nil {
		return nil, fmt.Errorf("maxembed: placement: %w", err)
	}

	// Only simulated DBs get a device model here.
	var backend ssd.Backend
	if cfg.fileDir != "" {
		// The read target is the shard files, written below once the
		// layout is final.
	} else if len(cfg.tiers) > 0 {
		arr, err := ssd.NewTieredArray(cfg.tiers)
		if err != nil {
			return nil, fmt.Errorf("maxembed: tiered array: %w", err)
		}
		if cfg.faults != nil {
			arr.SetFaultModel(ssd.NewInjector(*cfg.faults))
		}
		backend = arr
	} else if cfg.devices > 1 {
		arr, err := ssd.NewArray(cfg.device, cfg.devices)
		if err != nil {
			return nil, fmt.Errorf("maxembed: device array: %w", err)
		}
		if cfg.faults != nil {
			arr.SetFaultModel(ssd.NewInjector(*cfg.faults))
		}
		backend = arr
	} else {
		device, err := ssd.NewDevice(cfg.device)
		if err != nil {
			return nil, fmt.Errorf("maxembed: device: %w", err)
		}
		if cfg.faults != nil {
			device.SetFaultModel(ssd.NewInjector(*cfg.faults))
		}
		backend = device
	}

	// Hotness pass: per-key frequency from the build history drives the
	// initial tier placement (hottest pages up-tier) and the DRAM pin-set.
	db := &DB{cfg: cfg, backend: backend}
	var retierRep *placement.TierReport
	tm := tierMapOf(backend)
	if tm != nil || cfg.pinTop > 0 {
		freq := placement.KeyFreqFromGraph(g, numItems)
		if tm != nil {
			heat := placement.PageHeat(lay, placement.DiscountTop(freq, cfg.dramResidents(lay.NumKeys)))
			lay, retierRep, err = placement.Retier(lay, heat, tm)
			if err != nil {
				return nil, fmt.Errorf("maxembed: tier placement: %w", err)
			}
		}
		db.pins = placement.TopKeys(freq, cfg.pinTop)
	}
	var spreadRep *placement.SpreadReport
	if cfg.despreadEnabled(tm) {
		var cg *hypergraph.Graph
		if cfg.coact {
			cg = g
		}
		lay, spreadRep, err = placement.Despread(lay, cg, cfg.devices, tm)
		if err != nil {
			return nil, fmt.Errorf("maxembed: co-activation placement: %w", err)
		}
	}
	db.lay = lay
	db.lastRetier = retierRep
	db.lastDespread = spreadRep
	if !cfg.timingOnly {
		db.syn, err = embedding.NewSynthesizer(cfg.dim, cfg.seed)
		if err != nil {
			return nil, fmt.Errorf("maxembed: %w", err)
		}
	}
	if cfg.fileDir != "" {
		// The table goes to disk and nowhere else: the backend that reads
		// the shard files is also the engine's page source.
		fb, err := buildFileBackend(cfg.fileDir, lay, db.syn, cfg.pageSize, cfg.devices)
		if err != nil {
			return nil, err
		}
		db.backend, db.src = fb, fb
	} else if db.src, err = db.buildStore(lay); err != nil {
		return nil, err
	}

	if cfg.recordLast > 0 {
		db.recorder = serving.NewHistoryRecorder(cfg.recordLast)
	}
	eng, err := serving.New(db.engineConfig(lay, db.src))
	if err != nil {
		db.Close()
		return nil, fmt.Errorf("maxembed: engine: %w", err)
	}
	db.handle = serving.NewSwappable(eng)
	if err := db.armSpare(); err != nil {
		return nil, err
	}
	return db, nil
}

// cacheEntriesFor resolves the configured DRAM cache capacity for a key
// count (WithCacheEntries wins over WithCacheRatio).
func (c config) cacheEntriesFor(numKeys int) int {
	if c.cacheRatio >= 0 {
		return int(c.cacheRatio * float64(numKeys))
	}
	return c.cacheEntries
}

// dramResidents is the number of keys the DRAM layer is expected to hold:
// the pin-set plus the steady-state cache. Tier heat discounts these keys
// (placement.DiscountTop) so the fast tier captures the traffic DRAM lets
// through rather than re-hosting pages DRAM already shields.
func (c config) dramResidents(numKeys int) int {
	return c.pinTop + c.cacheEntriesFor(numKeys)
}

// engineConfig assembles a serving config over the given layout and page
// source from the DB's tuning knobs and current backend. The caller must
// hold db.mu or be inside Open (before the DB escapes).
func (db *DB) engineConfig(lay *layout.Layout, src serving.PageSource) serving.Config {
	cacheEntries := db.cfg.cacheEntriesFor(lay.NumKeys)
	engCfg := serving.Config{
		Layout:       lay,
		CacheEntries: cacheEntries,
		IndexLimit:   db.cfg.indexLimit,
		Pipeline:     db.cfg.pipeline,
		Greedy:       db.cfg.greedy,
		Recorder:     db.recorder,
		PinnedKeys:   db.pins,
	}
	if db.cfg.shadow {
		engCfg.ShadowSizes = db.cfg.shadowSizes
		if len(engCfg.ShadowSizes) == 0 {
			// Default grid: a geometric sweep over the key space wide
			// enough to bracket any sensible DRAM budget.
			for _, f := range []float64{0.01, 0.02, 0.04, 0.08, 0.16, 0.32} {
				if n := int(f * float64(lay.NumKeys)); n > 0 {
					engCfg.ShadowSizes = append(engCfg.ShadowSizes, n)
				}
			}
		}
	}
	db.bindBackend(&engCfg)
	if src != nil {
		// Assign only when non-nil: a typed-nil store pointer in the
		// PageSource interface would read as "store present".
		engCfg.Store = src
	}
	return engCfg
}

// buildStore materializes page payloads for the layout: a single Store on
// one device, a Sharded store (striped exactly like the device array) on
// several. Returns a non-interface nil when the DB is timing-only.
func (db *DB) buildStore(lay *layout.Layout) (serving.PageSource, error) {
	if db.syn == nil {
		return nil, nil
	}
	if db.cfg.devices > 1 {
		sh, err := store.BuildSharded(lay, db.syn, db.cfg.pageSize, db.cfg.devices)
		if err != nil {
			return nil, fmt.Errorf("maxembed: store: %w", err)
		}
		return sh, nil
	}
	st, err := store.Build(lay, db.syn, db.cfg.pageSize)
	if err != nil {
		return nil, fmt.Errorf("maxembed: store: %w", err)
	}
	return st, nil
}

// buildFileBackend streams the layout's page images to one file per shard
// under dir and opens the asynchronous real-I/O backend over them. No table
// image is built in memory — store.WriteShard holds one page at a time —
// and none is kept: the returned backend is the only way to the payloads.
func buildFileBackend(dir string, lay *layout.Layout, syn *embedding.Synthesizer, pageSize, shards int) (*ssd.FileBackend, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("maxembed: file backend dir: %w", err)
	}
	files := make([]*store.FileStore, 0, shards)
	closeAll := func() {
		for _, f := range files {
			f.Close()
		}
	}
	for i := 0; i < shards; i++ {
		path := filepath.Join(dir, fmt.Sprintf("shard%03d.bin", i))
		if err := writeShardFile(path, lay, syn, pageSize, i, shards); err != nil {
			closeAll()
			return nil, fmt.Errorf("maxembed: writing shard %d: %w", i, err)
		}
		fs, _, err := store.OpenFileAuto(path)
		if err != nil {
			closeAll()
			return nil, fmt.Errorf("maxembed: opening shard %d: %w", i, err)
		}
		files = append(files, fs)
	}
	fb, err := ssd.NewFileBackend(files, ssd.FileBackendConfig{})
	if err != nil {
		closeAll()
		return nil, fmt.Errorf("maxembed: file backend: %w", err)
	}
	return fb, nil
}

// writeShardFile streams one shard's pages to path and syncs the file
// before closing it. The sync is for the reads that follow, not for a
// crash: an O_DIRECT read of a range whose pages are still dirty in the
// page cache makes the kernel write them back first, which turns a 0.1 ms
// read into a 1.6 ms one until the kernel's own flusher gets around to it.
func writeShardFile(path string, lay *layout.Layout, syn *embedding.Synthesizer, pageSize, shard, shards int) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if _, err = store.WriteShard(f, lay, syn, pageSize, shard, shards); err == nil {
		err = f.Sync()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}

// Close releases resources the DB holds outside the Go heap — today the
// file backend's descriptors and executor goroutines (WithFileBackend).
// Simulated DBs hold none and Close is a no-op. Lookups must have
// quiesced; Sessions must not be used afterwards.
func (db *DB) Close() error {
	if fb, ok := db.backend.(*ssd.FileBackend); ok {
		return fb.Close()
	}
	return nil
}

// tierMapOf returns the shard→tier map of a multi-tier backend, nil for
// single-tier (homogeneous) backends — the signal that tier placement is
// a no-op.
func tierMapOf(be ssd.Backend) []int {
	if tr, ok := be.(ssd.TierReporter); ok && tr.NumTiers() > 1 {
		if arr, ok := be.(*ssd.Array); ok {
			return arr.TierShardMap()
		}
	}
	return nil
}

// bindBackend points the engine config at the DB's read target through
// whichever of the two mutually exclusive fields matches its shape.
func (db *DB) bindBackend(engCfg *serving.Config) {
	if dev, ok := db.backend.(*ssd.Device); ok {
		engCfg.Device = dev
		return
	}
	engCfg.Backend = db.backend
}

// Session is a single-threaded serving handle with its own virtual clock
// and SSD queue pair. Create one per goroutine; a Session itself is not
// safe for concurrent use.
type Session struct {
	handle *serving.Swappable
	w      *serving.Worker
	gen    uint64
}

// NewSession returns an independent serving session bound to the DB's
// current layout. A later Refresh is picked up automatically at the
// session's next query boundary: the session re-binds to the swapped-in
// engine, keeping its virtual clock, so no query ever mixes layouts.
func (db *DB) NewSession() *Session {
	eng, gen := db.handle.Load()
	return &Session{handle: db.handle, w: eng.NewWorker(), gen: gen}
}

// rebind moves the session onto the current engine when a Refresh has
// swapped one in since the session's last query. The worker's virtual
// clock carries over so the session's timeline stays monotonic.
func (s *Session) rebind() {
	eng, gen := s.handle.Load()
	if gen != s.gen {
		now := s.w.Now()
		s.w = eng.NewWorker()
		s.w.SetNow(now)
		s.gen = gen
	}
}

// Generation returns the layout generation the session is currently bound
// to (it advances at the first query boundary after a Refresh).
func (s *Session) Generation() uint64 { return s.gen }

// Result is one lookup's outcome.
type Result = serving.Result

// QueryStats describes one query's work and virtual timing.
type QueryStats = serving.QueryStats

// Lookup fetches the embeddings of the queried keys. Returned slices are
// reused by the session; consume them before the next Lookup.
func (s *Session) Lookup(query []Key) (Result, error) {
	s.rebind()
	return s.w.Lookup(query)
}

// BatchResult is one coalesced batch lookup's outcome: per-query scattered
// results plus combined-pass stats.
type BatchResult = serving.BatchResult

// LookupBatch serves several queries as one coalesced lookup: one combined
// dedupe/selection/read pass over all queries shares page reads across them
// (keys occurring in multiple queries are fetched once, and co-located keys
// of different queries ride the same read), then results are scattered back
// per query — each query receives exactly its keys, its own FailedKeys, and
// attributed stats. Returned slices are reused by the session; consume them
// before the next lookup.
func (s *Session) LookupBatch(queries [][]Key) (BatchResult, error) {
	s.rebind()
	return s.w.LookupBatch(queries)
}

// Now returns the session's virtual clock in nanoseconds.
func (s *Session) Now() int64 { return s.w.Now() }

// Lookup is a convenience single-session lookup, serialized on an internal
// session. For concurrent or performance-sensitive use, create explicit
// Sessions.
func (db *DB) Lookup(query []Key) (Result, error) {
	db.mu.Lock()
	defer db.mu.Unlock()
	if db.defaultSess == nil {
		db.defaultSess = db.NewSession()
	}
	return db.defaultSess.Lookup(query)
}

// Refresh recomputes the replica pages from a newer query history while
// keeping every key's home page fixed — the base table on SSD is not
// rewritten, only the (much smaller) replica region and the DRAM indexes.
// Only meaningful for StrategyMaxEmbed-style layouts.
//
// On a tiered DB (WithTiers) a refresh is also the promotion/demotion
// boundary: page heat is recomputed from the new history and pages are
// re-assigned to tiers (hottest up), permuting page IDs so that each
// page's stripe shard lands on its assigned tier. WithDRAMPins re-ranks
// the pin-set from the same frequencies. Tier moves happen only here —
// never mid-serving — so reads observe one consistent generation.
//
// The rebuild runs entirely off the serving path: placement, store, and
// engine are constructed and validated first, then swapped in atomically.
// Live Sessions (and the HTTP server's pooled and coalescer workers) pick
// the new layout up at their next query boundary; queries in flight finish
// on the old engine, whose page images stay alive until its last worker
// lets go.
func (db *DB) Refresh(history [][]Key) error {
	if db.cfg.strategy != StrategyMaxEmbed {
		return fmt.Errorf("maxembed: Refresh requires StrategyMaxEmbed, have %q", db.cfg.strategy)
	}
	if db.cfg.fileDir != "" {
		// A refresh re-places replicas, but the shard files on disk keep
		// the old placement — serving the new layout against them would
		// read keys from pages that no longer hold them.
		return errors.New("maxembed: Refresh is not supported on a file backend (on-disk pages would go stale)")
	}
	db.mu.Lock()
	cur := db.lay
	tm := tierMapOf(db.backend)
	db.mu.Unlock()
	g, err := hypergraph.FromQueries(cur.NumKeys, history)
	if err != nil {
		return fmt.Errorf("maxembed: refresh hypergraph: %w", err)
	}
	assign := make([]int32, cur.NumKeys)
	for k, p := range cur.Home {
		assign[k] = int32(p)
	}
	base, err := placement.Replicate(g, assign, placement.Options{
		Capacity:         cur.Capacity,
		ReplicationRatio: db.cfg.ratio,
		Seed:             db.cfg.seed,
		Shards:           db.cfg.devices,
	})
	if err != nil {
		return fmt.Errorf("maxembed: refresh replication: %w", err)
	}
	for attempt := 0; ; attempt++ {
		lay := base
		var (
			retierRep *placement.TierReport
			spreadRep *placement.SpreadReport
			pins      []Key
		)
		if tm != nil || db.cfg.pinTop > 0 {
			freq := placement.KeyFreq(cur.NumKeys, history)
			if tm != nil {
				heat := placement.PageHeat(lay, placement.DiscountTop(freq, db.cfg.dramResidents(lay.NumKeys)))
				lay, retierRep, err = placement.Retier(lay, heat, tm)
				if err != nil {
					return fmt.Errorf("maxembed: refresh re-tier: %w", err)
				}
			}
			pins = placement.TopKeys(freq, db.cfg.pinTop)
		}
		if db.cfg.despreadEnabled(tm) {
			var cg *hypergraph.Graph
			if db.cfg.coact {
				cg = g
			}
			lay, spreadRep, err = placement.Despread(lay, cg, db.cfg.devices, tm)
			if err != nil {
				return fmt.Errorf("maxembed: refresh co-activation placement: %w", err)
			}
		}
		src, err := db.buildStore(lay)
		if err != nil {
			return fmt.Errorf("maxembed: refresh store: %w", err)
		}
		db.mu.Lock()
		// A concurrent shard rebuild may have replaced the backend since
		// the tier map was sampled — a failed fast shard rebuilt onto a
		// dense spare collapses or shrinks the fast tier. Re-tiering with
		// the stale map would promote hot pages onto shards that are no
		// longer fast, so redo the tier pass against the re-derived map
		// instead of swapping in a mismatched layout.
		if fresh := tierMapOf(db.backend); !intSliceEqual(tm, fresh) {
			db.mu.Unlock()
			if attempt >= 2 {
				return fmt.Errorf("maxembed: refresh: backend tier geometry changed %d times mid-refresh; retry", attempt+1)
			}
			tm = fresh
			continue
		}
		defer db.mu.Unlock()
		db.pins = pins
		eng, err := serving.New(db.engineConfig(lay, src))
		if err != nil {
			return fmt.Errorf("maxembed: refresh engine: %w", err)
		}
		if _, err := db.handle.Swap(eng); err != nil {
			return fmt.Errorf("maxembed: refresh swap: %w", err)
		}
		db.lay = lay
		db.src = src
		db.lastRetier = retierRep
		db.lastDespread = spreadRep
		if db.recorder != nil {
			db.lastRefreshTotal = db.recorder.Total()
		}
		return nil
	}
}

// intSliceEqual reports whether two shard→tier maps are identical.
func intSliceEqual(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// RefreshNow snapshots the recorded query history and refreshes the layout
// from it. It is the hook the HTTP server's refresh loop and admin endpoint
// call; it requires history recording (WithHistoryRecording) and at least
// one recorded query.
func (db *DB) RefreshNow() error {
	if db.recorder == nil {
		return fmt.Errorf("maxembed: RefreshNow requires history recording (WithHistoryRecording)")
	}
	history := db.recorder.Snapshot()
	if len(history) == 0 {
		return fmt.Errorf("maxembed: RefreshNow: no recorded queries yet")
	}
	return db.Refresh(history)
}

// PendingQueries reports how many queries have been recorded since the last
// successful Refresh — the signal a refresh loop gates on. Zero when history
// recording is disabled.
func (db *DB) PendingQueries() int64 {
	if db.recorder == nil {
		return 0
	}
	db.mu.Lock()
	defer db.mu.Unlock()
	return db.recorder.Total() - db.lastRefreshTotal
}

// LayoutGeneration returns the current layout generation, starting at 1 and
// incremented by each successful Refresh.
func (db *DB) LayoutGeneration() uint64 { return db.handle.Generation() }

// Handle exposes the swappable engine handle so serving frontends can follow
// refreshes without holding a stale *Engine.
func (db *DB) Handle() *serving.Swappable { return db.handle }

// RecordedHistory returns the key sets of recently served queries when
// history recording is enabled (WithHistoryRecording), oldest first. The
// natural refresh loop is db.Refresh(db.RecordedHistory()).
func (db *DB) RecordedHistory() [][]Key {
	if db.recorder == nil {
		return nil
	}
	return db.recorder.Snapshot()
}

// LayoutStats summarizes the placement the offline phase produced.
func (db *DB) LayoutStats() layout.Stats {
	db.mu.Lock()
	lay := db.lay
	db.mu.Unlock()
	return lay.ComputeStats()
}

// DeviceStats returns accumulated simulated-device statistics, summed over
// all shards when the DB spans multiple devices.
func (db *DB) DeviceStats() ssd.Stats { return db.backend.Stats() }

// ShardStats returns per-device statistics, one entry per shard (a single
// entry on a single-device DB).
func (db *DB) ShardStats() []ssd.Stats {
	if arr, ok := db.backend.(*ssd.Array); ok {
		return arr.ShardStats()
	}
	return []ssd.Stats{db.backend.Stats()}
}

// Device exposes the first simulated SSD shard for harnesses (e.g.
// fault-injection tests). With multiple devices it returns shard 0; use
// Backend for the whole array.
func (db *DB) Device() *ssd.Device { return db.backend.Shard(0) }

// Backend exposes the DB's full read target: the single simulated device,
// or the striped ssd.Array when opened WithDevices(n > 1).
func (db *DB) Backend() ssd.Backend { return db.backend }

// NumDevices returns the number of independent simulated devices the DB's
// pages are striped over.
func (db *DB) NumDevices() int { return db.backend.NumShards() }

// Tiers describes the backend's device tiers, fastest first: which shards
// each tier owns and the device profile they share. A homogeneous DB
// reports a single tier; see ssd.TierInfo.
func (db *DB) Tiers() []ssd.TierInfo {
	tr, ok := db.backend.(ssd.TierReporter)
	if !ok {
		return nil
	}
	out := make([]ssd.TierInfo, tr.NumTiers())
	for t := range out {
		out[t] = tr.Tier(t)
	}
	return out
}

// TierStats returns accumulated device statistics aggregated per tier
// (fastest first). A homogeneous DB reports a single entry equal to
// DeviceStats.
func (db *DB) TierStats() []ssd.Stats {
	if arr, ok := db.backend.(*ssd.Array); ok {
		return arr.TierStats()
	}
	return []ssd.Stats{db.backend.Stats()}
}

// LastRetier reports the most recent tier-placement pass (at Open or the
// last Refresh): pages promoted to a faster tier, demoted to a slower one,
// and the per-tier heat distribution. Nil on non-tiered DBs.
func (db *DB) LastRetier() *placement.TierReport {
	db.mu.Lock()
	defer db.mu.Unlock()
	return db.lastRetier
}

// LastDespread reports the most recent shard-assignment pass (at Open or
// the last Refresh): co-activation spread before/after, replica shard
// collisions repaired, and keys left without a shard-diverse replica. Nil
// unless the pass ran (WithCoActivationPlacement, or a tiered multi-device
// DB whose diversity repair runs implicitly).
func (db *DB) LastDespread() *placement.SpreadReport {
	db.mu.Lock()
	defer db.mu.Unlock()
	return db.lastDespread
}

// PinnedKeys returns the current DRAM pin-set, hottest first (empty
// without WithDRAMPins).
func (db *DB) PinnedKeys() []Key {
	db.mu.Lock()
	defer db.mu.Unlock()
	return append([]Key(nil), db.pins...)
}

// ShadowCurve returns the ghost caches' measured hit-rate curve, ascending
// by simulated capacity (nil without WithShadowCache). The curve reflects
// the distinct-key stream served since the current engine generation began.
func (db *DB) ShadowCurve() []cache.CurvePoint {
	sh := db.handle.Engine().Shadow()
	if sh == nil {
		return nil
	}
	return sh.Curve()
}

// RecommendCacheEntries applies the miss-rate-curve knee rule to the shadow
// curve: the smallest simulated capacity whose hit rate is within tolerance
// of the best observed (0 without WithShadowCache or before any traffic).
// The curve predicts a plain admit-everything LRU; the frequency-gated cache
// serving runs does better than that at every size, so the recommendation
// is conservative — a size that is certainly enough, not the least that is.
func (db *DB) RecommendCacheEntries(tolerance float64) int {
	sh := db.handle.Engine().Shadow()
	if sh == nil {
		return 0
	}
	return sh.Recommend(tolerance)
}

// Engine exposes the current serving engine for benchmarking harnesses.
// After a Refresh the returned engine is stale; long-lived frontends should
// use Handle instead.
func (db *DB) Engine() *serving.Engine { return db.handle.Engine() }

// TraceProfile identifies a built-in synthetic dataset profile modelled on
// the paper's Table 3.
type TraceProfile = workload.Profile

// Built-in dataset profiles (scaled; see DESIGN.md §2).
var (
	ProfileAmazonM2        = workload.AmazonM2
	ProfileAlibabaIFashion = workload.AlibabaIFashion
	ProfileAvazu           = workload.Avazu
	ProfileCriteo          = workload.Criteo
	ProfileCriteoTB        = workload.CriteoTB
)

// Trace is a query log over a dense key space.
type Trace = workload.Trace

// GenerateTrace synthesizes a trace for the profile, scaled by the given
// factor (1.0 = the profile's default size).
func GenerateTrace(p TraceProfile, scale float64) (*Trace, error) {
	if scale != 1.0 {
		p = p.Scaled(scale)
	}
	return workload.Generate(p)
}
