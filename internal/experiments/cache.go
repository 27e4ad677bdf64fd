package experiments

import (
	"fmt"

	"maxembed/internal/placement"
	"maxembed/internal/workload"
)

// cacheProfiles are the four datasets Figs 12/13 sweep.
func cacheProfiles() []workload.Profile {
	return []workload.Profile{
		workload.AlibabaIFashion,
		workload.Avazu,
		workload.Criteo,
		workload.CriteoTB,
	}
}

// Fig12 reproduces Figure 12: end-to-end throughput as the DRAM cache grows
// from 1% to 40% of the table, for SHP and MaxEmbed at each replication
// ratio. Paper: throughput rises with cache size and saturates; MaxEmbed
// keeps up to 1.2× advantage because cold-embedding combinations still
// benefit from replication even when the cache absorbs the hot set.
//
// Those columns run the paper's admit-everything cache. The last column is
// not in the paper: MaxEmbed at r=20% under the frequency-gated page-cost
// admission the serving engine ships with, same warm-up, for comparison with
// the ME(r=20%) column (AdmitSweep is the full comparison).
func Fig12(cfg Config) error {
	cfg = cfg.withDefaults()
	cacheRatios := []float64{0.01, 0.02, 0.03, 0.05, 0.10, 0.20, 0.40}
	for _, p := range cacheProfiles() {
		pr, err := prepare(cfg, p)
		if err != nil {
			return err
		}
		t := newTable(cfg.Out, fmt.Sprintf("Figure 12 (%s): QPS vs cache ratio", p.Name))
		header := []string{"cache"}
		type variant struct {
			name     string
			strat    placement.Strategy
			r        float64
			admitAll bool
		}
		variants := []variant{{"SHP", placement.StrategySHP, 0, true}}
		for _, r := range ratios {
			variants = append(variants, variant{
				fmt.Sprintf("ME(r=%.0f%%)", r*100), placement.StrategyMaxEmbed, r, true,
			})
		}
		variants = append(variants, variant{"ME(r=20%) gated", placement.StrategyMaxEmbed, 0.20, false})
		for _, v := range variants {
			header = append(header, v.name)
		}
		t.row(header...)
		for _, cr := range cacheRatios {
			cells := []string{pct(cr)}
			for _, v := range variants {
				lay, err := buildLayout(cfg, pr, v.strat, v.r)
				if err != nil {
					return err
				}
				so := defaultServing()
				so.cacheRatio, so.admitAll = cr, v.admitAll
				res, err := serve(cfg, pr, lay, so)
				if err != nil {
					return err
				}
				cells = append(cells, fmt.Sprintf("%.0f", res.QPS))
			}
			t.row(cells...)
		}
		t.flush()
	}
	return nil
}

// Fig13 reproduces Figure 13: throughput without any DRAM cache across
// replication ratios 0–80% — the near-data-processing scenario. Paper:
// gains are more pronounced than with cache (1.08–1.31× already at
// r=0.2).
func Fig13(cfg Config) error {
	cfg = cfg.withDefaults()
	sweep := []float64{0, 0.10, 0.20, 0.40, 0.80}
	t := newTable(cfg.Out, "Figure 13: QPS without DRAM cache vs replication ratio")
	header := []string{"dataset"}
	for _, r := range sweep {
		header = append(header, fmt.Sprintf("r=%.0f%%", r*100))
	}
	header = append(header, "best/base")
	t.row(header...)
	for _, p := range cacheProfiles() {
		pr, err := prepare(cfg, p)
		if err != nil {
			return err
		}
		cells := []string{p.Name}
		var base, best float64
		for _, r := range sweep {
			strat := placement.StrategyMaxEmbed
			if r == 0 {
				strat = placement.StrategySHP
			}
			lay, err := buildLayout(cfg, pr, strat, r)
			if err != nil {
				return err
			}
			so := defaultServing()
			so.cacheRatio = 0
			res, err := serve(cfg, pr, lay, so)
			if err != nil {
				return err
			}
			if r == 0 {
				base = res.QPS
			}
			if res.QPS > best {
				best = res.QPS
			}
			cells = append(cells, fmt.Sprintf("%.0f", res.QPS))
		}
		cells = append(cells, fmt.Sprintf("%.2fx", best/base))
		t.row(cells...)
	}
	t.flush()
	return nil
}
