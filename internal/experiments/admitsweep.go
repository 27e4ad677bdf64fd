package experiments

import (
	"fmt"

	"maxembed/internal/cache"
	"maxembed/internal/layout"
	"maxembed/internal/placement"
	"maxembed/internal/serving"
	"maxembed/internal/workload"
)

// AdmitSweep compares the serving engine's cache admission with the paper's
// admit-everything LRU (serving.Config.AdmitAll) on pages read per lookup —
// the cost a DRAM hit is there to save. MaxEmbed places co-appearing keys on
// one page, so keys that miss together cost one read between them; the
// engine evicts only for a key whose read served it alone, and only when it
// has counted that key more often than the victim, and otherwise fills free
// slots (serving.Engine's admit). The sweep covers every dataset profile
// and cache ratios from 2% to 50% of the table, at r=20% and k=10, and
// prints beside each cell the share of SSD-served keys that were solo — the
// property the gain depends on — and what the cache did per lookup:
// evictions under both variants, and the offers the gate turned down.
// Each cache is warmed by serving the history half of the trace, so that it
// enters the measured run as its own admission left it, the way a server's
// does (ShiftSweep starts from Engine.WarmCache's one-shot scan instead).
//
// Hard assertions (the CI smoke): the gate never reads more than 1% above
// admit-everything in any cell, and reads at least 20% fewer pages on
// Criteo at a 10% cache, the repo benchmark's cached workload.
func AdmitSweep(cfg Config) error {
	cfg = cfg.withDefaults()
	const (
		r         = 0.20
		neverOver = 0.01 // per cell, relative to admit-everything
		criteoWin = 0.20 // Criteo, 10% cache
		// Below a tenth of the profile sizes the small caches hold a few
		// dozen entries and a 1% bar measures noise.
		minScale = 0.1
	)
	cfg.Scale = max(cfg.Scale, minScale)
	cacheRatios := []float64{0.02, 0.05, 0.10, 0.20, 0.30, 0.50}
	t := newTable(cfg.Out, fmt.Sprintf(
		"Admission sweep: pages per lookup, admit-everything vs frequency-gated page-cost admission, MaxEmbed r=%.0f%%", r*100))
	t.row("dataset", "cache", "pages all", "pages gate", "change", "hit all", "hit gate", "solo all", "solo gate",
		"evict all", "evict gate", "reject gate")
	for _, p := range overallProfiles() {
		pr, err := prepare(cfg, p)
		if err != nil {
			return err
		}
		lay, err := buildLayout(cfg, pr, placement.StrategyMaxEmbed, r)
		if err != nil {
			return err
		}
		for _, cr := range cacheRatios {
			so := defaultServing()
			so.cacheRatio, so.warmByServing = cr, true
			all, err := serveCounted(cfg, pr, lay, so)
			if err != nil {
				return err
			}
			so.admitAll = false
			gate, err := serveCounted(cfg, pr, lay, so)
			if err != nil {
				return err
			}
			change := gate.pagesPerLookup()/all.pagesPerLookup() - 1
			t.row(p.Name, pct(cr),
				fmt.Sprintf("%.2f", all.pagesPerLookup()), fmt.Sprintf("%.2f", gate.pagesPerLookup()),
				fmt.Sprintf("%+.1f%%", change*100),
				pct(hitRate(all.RunResult)), pct(hitRate(gate.RunResult)),
				pct(soloShare(all.RunResult)), pct(soloShare(gate.RunResult)),
				fmt.Sprintf("%.2f", all.perLookup(all.cache.Evictions)),
				fmt.Sprintf("%.2f", gate.perLookup(gate.cache.Evictions)),
				fmt.Sprintf("%.2f", gate.perLookup(gate.cache.Rejected)))
			if change > neverOver {
				t.flush()
				return fmt.Errorf("experiments: admitsweep: %s at a %s cache reads %.3f pages per lookup under the gate vs %.3f admitting everything (%+.1f%%, bound +%.0f%%)",
					p.Name, pct(cr), gate.pagesPerLookup(), all.pagesPerLookup(), change*100, neverOver*100)
			}
			if p.Name == workload.Criteo.Name && cr == 0.10 && change > -criteoWin {
				t.flush()
				return fmt.Errorf("experiments: admitsweep: Criteo at a 10%% cache: %.3f -> %.3f pages per lookup (%+.1f%%), want at least -%.0f%%",
					all.pagesPerLookup(), gate.pagesPerLookup(), change*100, criteoWin*100)
			}
		}
	}
	t.flush()
	return nil
}

// countedRun is a serving run with the cache's counters over it.
type countedRun struct {
	serving.RunResult
	cache cache.Stats
}

func (c countedRun) perLookup(n int64) float64 { return float64(n) / float64(c.Queries) }
func (c countedRun) pagesPerLookup() float64   { return c.perLookup(c.PagesRead) }

// serveCounted is serve that also reports what the cache did during the
// measured run (Run zeroes the cache's counters when it starts).
func serveCounted(cfg Config, pr *prepared, lay *layout.Layout, so servingOpts) (countedRun, error) {
	eng, err := newEngine(cfg, pr, lay, so)
	if err != nil {
		return countedRun{}, err
	}
	res, err := serving.Run(eng, pr.eval.Queries, cfg.Workers)
	if err != nil {
		return countedRun{}, err
	}
	return countedRun{res, eng.Cache().Stats()}, nil
}

// hitRate is the DRAM-served share of the distinct keys a run served.
func hitRate(res serving.RunResult) float64 {
	return float64(res.CacheHits) / float64(res.CacheHits+res.UsefulKeys)
}

// soloShare is the share of SSD-served keys whose page read served no
// other key of its lookup.
func soloShare(res serving.RunResult) float64 {
	return float64(res.SoloKeys) / float64(res.UsefulKeys)
}
