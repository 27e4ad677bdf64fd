// Package experiments regenerates every table and figure of the paper's
// evaluation (§8). Each experiment is a named driver that runs the full
// pipeline — synthetic trace generation, offline placement, online serving
// on the simulated device — and prints the same rows/series the paper
// reports. Absolute numbers differ from the paper's testbed (the device is
// a calibrated simulation and the datasets are scaled synthetics); the
// comparisons and trends are the reproduction target. See DESIGN.md §6 for
// the experiment index and EXPERIMENTS.md for recorded results.
//
// Table columns keep the paper's labels. "SHP" is the paper's baseline, one
// copy per key on its partition's page, and "ME" replication on top of it;
// both stand on placement's default base partitioner (co-appearance page
// growth, DESIGN.md §4). Only the partitioners experiment runs the SHP
// algorithm itself.
package experiments

import (
	"fmt"
	"io"
	"sync"
	"text/tabwriter"

	"maxembed/internal/embedding"
	"maxembed/internal/hypergraph"
	"maxembed/internal/layout"
	"maxembed/internal/placement"
	"maxembed/internal/serving"
	"maxembed/internal/ssd"
	"maxembed/internal/workload"
)

// Config controls the scale and environment of an experiment run.
type Config struct {
	// Out receives the experiment's table output.
	Out io.Writer
	// Scale multiplies the built-in dataset profile sizes (1.0 = the
	// scaled defaults documented in DESIGN.md; go test benches use much
	// smaller values).
	Scale float64
	// Workers is the number of closed-loop serving workers (paper: 8).
	Workers int
	// HistoryFrac splits each trace into partitioning history and
	// serving evaluation portions.
	HistoryFrac float64
	// Dim is the embedding dimension (paper default 64).
	Dim int
	// PageSize is the SSD page size in bytes.
	PageSize int
	// Seed drives all randomized stages.
	Seed int64
}

// withDefaults fills unset fields.
func (c Config) withDefaults() Config {
	if c.Out == nil {
		c.Out = io.Discard
	}
	if c.Scale <= 0 {
		c.Scale = 1.0
	}
	if c.Workers <= 0 {
		c.Workers = 8
	}
	if c.HistoryFrac <= 0 || c.HistoryFrac >= 1 {
		c.HistoryFrac = 0.5
	}
	if c.Dim <= 0 {
		c.Dim = 64
	}
	if c.PageSize <= 0 {
		c.PageSize = 4096
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	return c
}

// Experiment is one reproducible table/figure driver.
type Experiment struct {
	// ID is the registry key, e.g. "fig8" or "table1".
	ID string
	// Title is the paper artifact it reproduces.
	Title string
	// Run executes the experiment and prints its result table.
	Run func(cfg Config) error
}

// All returns every experiment in paper order.
func All() []Experiment {
	return []Experiment{
		{"table3", "Table 3: dataset information", Table3},
		{"motivation", "§3 analysis: co-appearance exceeds page capacity", Motivation},
		{"fig3", "Figure 3: effective bandwidth, vanilla vs SHP", Fig3},
		{"table1", "Table 1: partition time", Table1},
		{"fig8", "Figure 8: effective bandwidth vs replication ratio", Fig8},
		{"fig9", "Figure 9: CDF of valid embeddings per read", Fig9},
		{"fig10", "Figure 10: end-to-end throughput", Fig10},
		{"fig11", "Figure 11: end-to-end latency", Fig11},
		{"fig12", "Figure 12: throughput under different cache ratios", Fig12},
		{"fig13", "Figure 13: throughput without cache", Fig13},
		{"fig14", "Figure 14: comparison of replication strategies", Fig14},
		{"fig15", "Figure 15: time breakdown of an online query", Fig15},
		{"fig16", "Figure 16: impact of index shrinking", Fig16},
		{"fig17a", "Figure 17a: sensitivity to embedding dimension", Fig17a},
		{"fig17b", "Figure 17b: sensitivity to SSD type", Fig17b},
		{"table2", "Table 2: TCO estimation", Table2},
		{"ablation", "Ablation: online selection design choices (§6)", Ablation},
		{"loadcurve", "Supplementary: open-loop tail latency vs offered load", LoadCurve},
		{"deploycost", "Supplementary: one-time write cost of deploying a layout", DeployCost},
		{"partitioners", "Supplementary: co-appearance page growth vs SHP partitioning, with hard quality and build-time floors", Partitioners},
		{"scaleout", "Supplementary: sharded multi-device serving", ScaleOut},
		{"shardsweep", "Supplementary: RAID-0 device-array scaling (§7)", ShardSweep},
		{"faultsweep", "Supplementary: fault injection, recovery, and graceful degradation", FaultSweep},
		{"batchsweep", "Supplementary: cross-request micro-batching vs batch size", BatchSweep},
		{"refreshsweep", "Supplementary: online layout refresh and hot swap under drift", RefreshSweep},
		{"rebuildsweep", "Supplementary: shard failure, live rebuild onto the hot spare, and scrubbing", RebuildSweep},
		{"tiersweep", "Supplementary: hotness-tiered memory hierarchy at equal TCO", TierSweep},
		{"coactsweep", "Supplementary: co-activation-aware cross-SSD placement vs blind striping", CoactSweep},
		{"hwsweep", "Supplementary: real async I/O backend vs simulator, with hard host-overhead and scaling budgets", HWSweep},
		{"admitsweep", "Supplementary: frequency-gated page-cost cache admission vs the paper's admit-everything LRU", AdmitSweep},
		{"shiftsweep", "Supplementary: cache recovery after a popularity shift and after a cold scan, gate vs admit-everything", ShiftSweep},
	}
}

// ByID returns the experiment with the given id.
func ByID(id string) (Experiment, bool) {
	for _, e := range All() {
		if e.ID == id {
			return e, true
		}
	}
	return Experiment{}, false
}

// prepared bundles everything derived from one dataset profile.
type prepared struct {
	profile workload.Profile
	history *workload.Trace
	eval    *workload.Trace
	graph   *hypergraph.Graph
}

// layoutKey memoizes placements: building them dominates experiment time
// and several figures share (profile, strategy, ratio, dim) points.
type layoutKey struct {
	profile  string
	scale    float64
	strategy placement.Strategy
	ratio    float64
	dim      int
	seed     int64
	shards   int
}

type prepKey struct {
	profile string
	scale   float64
	seed    int64
}

var (
	memoMu   sync.Mutex
	prepMemo = map[prepKey]*prepared{}
	layMemo  = map[layoutKey]*layout.Layout{}
)

// ResetMemo clears the cross-experiment memo caches (used by tests).
func ResetMemo() {
	memoMu.Lock()
	defer memoMu.Unlock()
	prepMemo = map[prepKey]*prepared{}
	layMemo = map[layoutKey]*layout.Layout{}
}

// prepare generates (or recalls) the trace and hypergraph of a profile.
func prepare(cfg Config, p workload.Profile) (*prepared, error) {
	key := prepKey{p.Name, cfg.Scale, cfg.Seed}
	memoMu.Lock()
	if pr, ok := prepMemo[key]; ok {
		memoMu.Unlock()
		return pr, nil
	}
	memoMu.Unlock()

	scaled := p
	if cfg.Scale != 1.0 {
		scaled = p.Scaled(cfg.Scale)
	}
	tr, err := workload.GenerateSeeded(scaled, scaled.Seed+cfg.Seed)
	if err != nil {
		return nil, fmt.Errorf("experiments: generate %s: %w", p.Name, err)
	}
	history, eval := tr.Split(cfg.HistoryFrac)
	g, err := hypergraph.FromQueries(tr.NumItems, history.Queries)
	if err != nil {
		return nil, fmt.Errorf("experiments: hypergraph %s: %w", p.Name, err)
	}
	pr := &prepared{profile: scaled, history: history, eval: eval, graph: g}
	memoMu.Lock()
	prepMemo[key] = pr
	memoMu.Unlock()
	return pr, nil
}

// buildLayout produces (or recalls) a placement for the profile.
func buildLayout(cfg Config, pr *prepared, strat placement.Strategy, ratio float64) (*layout.Layout, error) {
	return buildLayoutOn(cfg, pr, strat, ratio, 1)
}

// buildLayoutOn is buildLayout for a layout striped over the given number
// of device shards (shard-aware replica placement when shards > 1).
func buildLayoutOn(cfg Config, pr *prepared, strat placement.Strategy, ratio float64, shards int) (*layout.Layout, error) {
	key := layoutKey{pr.profile.Name, cfg.Scale, strat, ratio, cfg.Dim, cfg.Seed, shards}
	memoMu.Lock()
	if l, ok := layMemo[key]; ok {
		memoMu.Unlock()
		return l, nil
	}
	memoMu.Unlock()

	capacity := embedding.PageCapacity(cfg.PageSize, cfg.Dim)
	lay, err := placement.Build(strat, pr.graph, placement.Options{
		Capacity:         capacity,
		ReplicationRatio: ratio,
		Seed:             cfg.Seed,
		Shards:           shards,
	})
	if err != nil {
		return nil, fmt.Errorf("experiments: %s placement for %s: %w", strat, pr.profile.Name, err)
	}
	memoMu.Lock()
	layMemo[key] = lay
	memoMu.Unlock()
	return lay, nil
}

// servingOpts configures one serving run.
type servingOpts struct {
	device     ssd.Profile
	devices    int     // stripe over this many devices (≤1 = single)
	cacheRatio float64 // fraction of the key space; 0 disables
	admitAll   bool    // the paper's admit-everything cache (serving.Config.AdmitAll)
	indexLimit int
	pipeline   bool
	greedy     bool
	warm       bool // pre-warm the cache with the history trace
	// warmByServing warms by serving the history trace instead of through
	// Engine.WarmCache, so the cache starts the measured run in the state
	// the engine's own admission leaves it in.
	warmByServing bool
}

func defaultServing() servingOpts {
	return servingOpts{
		device:     ssd.P5800X,
		cacheRatio: 0.10,
		admitAll:   true,
		indexLimit: 10,
		pipeline:   true,
		warm:       true,
	}
}

// serve runs the eval trace through a timing-only engine over the layout.
func serve(cfg Config, pr *prepared, lay *layout.Layout, so servingOpts) (serving.RunResult, error) {
	eng, err := newEngine(cfg, pr, lay, so)
	if err != nil {
		return serving.RunResult{}, err
	}
	return serving.Run(eng, pr.eval.Queries, cfg.Workers)
}

// newEngine builds serve's timing-only engine and warms its cache.
func newEngine(cfg Config, pr *prepared, lay *layout.Layout, so servingOpts) (*serving.Engine, error) {
	cacheEntries := int(so.cacheRatio * float64(lay.NumKeys))
	engCfg := serving.Config{
		Layout:       lay,
		CacheEntries: cacheEntries,
		AdmitAll:     so.admitAll,
		IndexLimit:   so.indexLimit,
		Pipeline:     so.pipeline,
		Greedy:       so.greedy,
		VectorBytes:  embedding.BytesPerVector(cfg.Dim),
	}
	if so.devices > 1 {
		arr, err := ssd.NewArray(so.device, so.devices)
		if err != nil {
			return nil, err
		}
		engCfg.Backend = arr
	} else {
		dev, err := ssd.NewDevice(so.device)
		if err != nil {
			return nil, err
		}
		engCfg.Device = dev
	}
	eng, err := serving.New(engCfg)
	if err != nil {
		return nil, err
	}
	if so.warm && cacheEntries > 0 {
		if so.warmByServing {
			_, err = serving.Run(eng, pr.history.Queries, cfg.Workers)
		} else {
			err = eng.WarmCache(pr.history.Queries)
		}
		if err != nil {
			return nil, err
		}
	}
	return eng, nil
}

// table is a small helper for aligned output.
type table struct {
	w *tabwriter.Writer
}

func newTable(out io.Writer, title string) *table {
	fmt.Fprintf(out, "\n=== %s ===\n", title)
	return &table{w: tabwriter.NewWriter(out, 2, 4, 2, ' ', 0)}
}

func (t *table) row(cells ...string) {
	for i, c := range cells {
		if i > 0 {
			fmt.Fprint(t.w, "\t")
		}
		fmt.Fprint(t.w, c)
	}
	fmt.Fprintln(t.w)
}

func (t *table) flush() { t.w.Flush() }

// overallProfiles is the figure order the paper uses.
func overallProfiles() []workload.Profile {
	return []workload.Profile{
		workload.AlibabaIFashion,
		workload.AmazonM2,
		workload.Avazu,
		workload.Criteo,
		workload.CriteoTB,
	}
}

// ratios is the replication-ratio sweep of Figs 8/10/11.
var ratios = []float64{0.10, 0.20, 0.40, 0.80}

func pct(x float64) string { return fmt.Sprintf("%.1f%%", x*100) }

// pageCapacityFor returns d for the run's page size and dimension.
func pageCapacityFor(cfg Config) int {
	return embedding.PageCapacity(cfg.PageSize, cfg.Dim)
}

func mbps(bytesPerSec float64) string { return fmt.Sprintf("%.1f", bytesPerSec/1e6) }
