package experiments

import (
	"fmt"

	"maxembed/internal/placement"
	"maxembed/internal/serving"
	"maxembed/internal/workload"
)

// AdmitSweep compares the serving engine's page-cost-aware cache admission
// with the paper's admit-everything LRU (serving.Config.AdmitAll) on pages
// read per lookup — the cost a DRAM hit is there to save. MaxEmbed places
// co-appearing keys on one page, so keys that miss together cost one read
// between them; the rule evicts only for a key whose read served it alone
// and otherwise fills free slots (serving.Engine's admit). The sweep covers
// every dataset profile, cache ratios from 2% to 50% of the table and both
// eviction policies, at r=20% and k=10, and prints beside each cell the
// share of SSD-served keys that were solo: the property the gain depends on.
// Each cache is warmed by serving the history half of the trace, so that it
// enters the measured run as its own admission left it, the way a server's
// does; Engine.WarmCache would hand both variants the tail of a one-shot
// scan of the history, which admit-everything flushes as fast as misses
// arrive and the rule, evicting only for solo keys, much more slowly
// (EXPERIMENTS.md has that run).
//
// Hard assertions (the CI smoke): the rule never reads more than 1% above
// admit-everything in any cell, and reads at least 12% fewer pages on
// Criteo at a 10% plain-LRU cache, the repo benchmark's cached workload.
func AdmitSweep(cfg Config) error {
	cfg = cfg.withDefaults()
	const (
		r         = 0.20
		neverOver = 0.01 // per cell, relative to admit-everything
		criteoWin = 0.12 // Criteo, 10% plain LRU
		// Below a tenth of the profile sizes the small caches hold a few
		// dozen entries and a 1% bar measures noise.
		minScale = 0.1
	)
	cfg.Scale = max(cfg.Scale, minScale)
	cacheRatios := []float64{0.02, 0.05, 0.10, 0.20, 0.30, 0.50}
	perLookup := func(res serving.RunResult) float64 {
		return float64(res.PagesRead) / float64(res.Queries)
	}
	for _, segmented := range []bool{false, true} {
		policy := "plain LRU"
		if segmented {
			policy = "segmented LRU"
		}
		t := newTable(cfg.Out, fmt.Sprintf(
			"Admission sweep (%s): pages per lookup, admit-everything vs page-cost rule, MaxEmbed r=%.0f%%", policy, r*100))
		t.row("dataset", "cache", "pages all", "pages rule", "change", "hit all", "hit rule", "solo all", "solo rule")
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
				so.cacheRatio, so.segmented, so.warmByServing = cr, segmented, true
				all, err := serve(cfg, pr, lay, so)
				if err != nil {
					return err
				}
				so.admitAll = false
				rule, err := serve(cfg, pr, lay, so)
				if err != nil {
					return err
				}
				change := perLookup(rule)/perLookup(all) - 1
				t.row(p.Name, pct(cr),
					fmt.Sprintf("%.2f", perLookup(all)), fmt.Sprintf("%.2f", perLookup(rule)),
					fmt.Sprintf("%+.1f%%", change*100),
					pct(hitRate(all)), pct(hitRate(rule)),
					pct(soloShare(all)), pct(soloShare(rule)))
				if change > neverOver {
					t.flush()
					return fmt.Errorf("experiments: admitsweep: %s at a %s %s cache reads %.3f pages per lookup under the rule vs %.3f admitting everything (%+.1f%%, bound +%.0f%%)",
						p.Name, pct(cr), policy, perLookup(rule), perLookup(all), change*100, neverOver*100)
				}
				if p.Name == workload.Criteo.Name && !segmented && cr == 0.10 && change > -criteoWin {
					t.flush()
					return fmt.Errorf("experiments: admitsweep: Criteo at a 10%% plain-LRU cache: %.3f -> %.3f pages per lookup (%+.1f%%), want at least -%.0f%%",
						perLookup(all), perLookup(rule), change*100, criteoWin*100)
				}
			}
		}
		t.flush()
	}
	return nil
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
