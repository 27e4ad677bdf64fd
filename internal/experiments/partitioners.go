package experiments

import (
	"fmt"
	"time"

	"maxembed/internal/layout"
	"maxembed/internal/placement"
	"maxembed/internal/serving"
	"maxembed/internal/workload"
)

// Partitioners is a supplementary experiment comparing the two base
// partitioners of the offline phase on every dataset profile: greedy
// co-appearance page growth (placement.PartitionerGrown, the default) and
// the paper's SHP (placement.PartitionerSHP), each bare and with MaxEmbed's
// replication on top. It reports what the online phase pays — pages read per
// live query with no DRAM cache in front, at r=0 and at the repo benchmark's
// r=20% — the offline wall time (best of three, the trade the paper's
// Table 1 raises for hours-scale datasets), and the effective bandwidth
// behind a 10% cache at r=0 and r=40%, which shows how much of the paper's
// §5 replication gain is left on the better base.
//
// Hard assertions (the CI smoke): on every profile the default partitioner
// reads no more pages per live query than SHP, bare and replicated, and
// takes no longer to build; on Criteo, the repo benchmark's trace, it reads
// at least 8% fewer, bare and replicated.
func Partitioners(cfg Config) error {
	cfg = cfg.withDefaults()
	const (
		benchRatio = 0.20
		paperRatio = 0.40
		criteoWin  = 0.08
		// Below a tenth of the profile sizes a partition takes a few
		// milliseconds and the build-time comparison measures the scheduler.
		minScale = 0.1
	)
	cfg.Scale = max(cfg.Scale, minScale)
	t := newTable(cfg.Out, "Partitioner comparison (supplementary): co-appearance page growth (default) vs SHP")
	t.row("dataset", "partitioner", "partition time", "pages/query r=0", "pages/query ME(r=20%)",
		"eff bw r=0 (MB/s)", "eff bw ME(r=40%)")

	// measured is one partitioner's row on one profile.
	type measured struct {
		name               string
		opts               placement.Options
		base               *layout.Layout
		elapsed            time.Duration
		pagesBare, pagesME float64
	}
	perQuery := func(r serving.RunResult) float64 { return float64(r.PagesRead) / float64(r.Queries) }
	for _, p := range overallProfiles() {
		pr, err := prepare(cfg, p)
		if err != nil {
			return err
		}
		opts := placement.Options{Capacity: pageCapacityFor(cfg), Seed: cfg.Seed}
		grown := &measured{name: "grown", opts: opts}
		opts.Partitioner = placement.PartitionerSHP
		shp := &measured{name: "SHP", opts: opts}
		both := []*measured{grown, shp}
		// Best of three, the two partitioners taking turns so that a busy
		// host slows both.
		for i := 0; i < 3; i++ {
			for _, m := range both {
				start := time.Now()
				m.base, err = placement.SHP(pr.graph, m.opts)
				if err != nil {
					return err
				}
				if d := time.Since(start); i == 0 || d < m.elapsed {
					m.elapsed = d
				}
			}
		}
		for _, m := range both {
			cacheless := defaultServing()
			cacheless.cacheRatio = 0
			var res [4]serving.RunResult
			for i, run := range []struct {
				ratio float64
				so    servingOpts
			}{
				{0, cacheless}, {benchRatio, cacheless},
				{0, defaultServing()}, {paperRatio, defaultServing()},
			} {
				lay := m.base
				if run.ratio > 0 {
					o := m.opts
					o.ReplicationRatio = run.ratio
					if lay, err = placement.MaxEmbed(pr.graph, o); err != nil {
						return err
					}
				}
				if res[i], err = serve(cfg, pr, lay, run.so); err != nil {
					return err
				}
			}
			m.pagesBare, m.pagesME = perQuery(res[0]), perQuery(res[1])
			t.row(p.Name, m.name,
				m.elapsed.Round(time.Millisecond).String(),
				fmt.Sprintf("%.2f", m.pagesBare), fmt.Sprintf("%.2f", m.pagesME),
				mbps(res[2].EffectiveBandwidth),
				fmt.Sprintf("%s (%+.1f%%)", mbps(res[3].EffectiveBandwidth),
					100*(res[3].EffectiveBandwidth/res[2].EffectiveBandwidth-1)))
		}

		atMost := 1.0
		if p.Name == workload.Criteo.Name {
			atMost = 1 - criteoWin
		}
		for _, c := range []struct {
			what       string
			grown, shp float64
		}{
			{"pages per query at r=0", grown.pagesBare, shp.pagesBare},
			{fmt.Sprintf("pages per query at r=%.0f%%", benchRatio*100), grown.pagesME, shp.pagesME},
		} {
			if c.grown > atMost*c.shp {
				t.flush()
				return fmt.Errorf("experiments: partitioners: %s, %s: grown %.3f vs SHP %.3f (%+.1f%%), want at most %+.0f%%",
					p.Name, c.what, c.grown, c.shp, 100*(c.grown/c.shp-1), 100*(atMost-1))
			}
		}
		if grown.elapsed > shp.elapsed {
			t.flush()
			return fmt.Errorf("experiments: partitioners: %s: grown partition took %v, SHP %v", p.Name, grown.elapsed, shp.elapsed)
		}
	}
	t.flush()
	return nil
}
