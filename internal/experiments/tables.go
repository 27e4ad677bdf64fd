package experiments

import (
	"fmt"
	"time"

	"maxembed/internal/placement"
	"maxembed/internal/tco"
	"maxembed/internal/workload"
)

// Table3 reproduces Table 3: the dataset inventory — the paper's numbers
// alongside the scaled synthetic sizes this reproduction generates and the
// measured mean query length of the generated traces.
func Table3(cfg Config) error {
	cfg = cfg.withDefaults()
	t := newTable(cfg.Out, "Table 3: datasets (paper → scaled synthetic)")
	t.row("dataset", "paper items", "paper queries", "paper qlen",
		"synth items", "synth queries", "synth qlen (measured)")
	for _, p := range overallProfiles() {
		pr, err := prepare(cfg, p)
		if err != nil {
			return err
		}
		full := pr.history.NumQueries() + pr.eval.NumQueries()
		t.row(p.Name,
			fmt.Sprintf("%d", p.PaperItems),
			fmt.Sprintf("%d", p.PaperQueries),
			fmt.Sprintf("%.2f", p.PaperQueryLen),
			fmt.Sprintf("%d", pr.profile.Items),
			fmt.Sprintf("%d", full),
			fmt.Sprintf("%.2f", pr.history.MeanQueryLen()))
	}
	t.flush()
	return nil
}

// Table1 reproduces Table 1: offline partition+replication wall time for
// the Criteo and CriteoTB profiles at page capacities of 16, 32, and 64
// embeddings (r=10%). Absolute times are not comparable to the paper's
// Hadoop runs over the full datasets. The paper's shape — CriteoTB ≫
// Criteo, time roughly flat or slightly decreasing with larger capacity —
// is a property of SHP, whose bisection levels grow with N (the partitioners
// experiment prints SHP's times). Under the default partitioner the two
// datasets cost about the same and most of it is the replication step.
func Table1(cfg Config) error {
	cfg = cfg.withDefaults()
	t := newTable(cfg.Out, "Table 1: offline partition time (wall clock, scaled datasets)")
	t.row("dataset", "16 per page", "32 per page", "64 per page")
	for _, p := range []workload.Profile{workload.Criteo, workload.CriteoTB} {
		pr, err := prepare(cfg, p)
		if err != nil {
			return err
		}
		cells := []string{p.Name}
		for _, capacity := range []int{16, 32, 64} {
			start := time.Now()
			lay, err := placement.MaxEmbed(pr.graph, placement.Options{
				Capacity:         capacity,
				ReplicationRatio: 0.10,
				Seed:             cfg.Seed,
			})
			if err != nil {
				return err
			}
			elapsed := time.Since(start)
			if err := lay.Validate(); err != nil {
				return fmt.Errorf("experiments: table1 layout: %w", err)
			}
			cells = append(cells, elapsed.Round(time.Millisecond).String())
		}
		t.row(cells...)
	}
	t.flush()
	return nil
}

// Table2 reproduces Table 2: TCO of MaxEmbed at r=80% vs the SHP baseline
// for the CriteoTB table on Optane (P5800X) and NAND (PM1735) pricing. The
// relative performance is measured, not assumed: it is the CriteoTB QPS
// ratio of MaxEmbed(r=80%) over SHP from the serving simulation.
func Table2(cfg Config) error {
	cfg = cfg.withDefaults()
	pr, err := prepare(cfg, workload.CriteoTB)
	if err != nil {
		return err
	}
	so := defaultServing()
	baseLay, err := buildLayout(cfg, pr, placement.StrategySHP, 0)
	if err != nil {
		return err
	}
	base, err := serve(cfg, pr, baseLay, so)
	if err != nil {
		return err
	}
	meLay, err := buildLayout(cfg, pr, placement.StrategyMaxEmbed, 0.80)
	if err != nil {
		return err
	}
	me, err := serve(cfg, pr, meLay, so)
	if err != nil {
		return err
	}
	perf := me.QPS / base.QPS

	t := newTable(cfg.Out, "Table 2: TCO estimation (CriteoTB, measured performance ratio)")
	t.row("item", "baseline (SHP)", fmt.Sprintf("MaxEmbed (r=80%%, %.2fx perf)", perf))
	for _, drive := range []tco.DrivePricing{tco.P5800X, tco.PM1735} {
		b, err := tco.Config{
			TableGB: tco.CriteoTBTableGB, ReplicationRatio: 0,
			RelativePerformance: 1, Drive: drive,
		}.Estimate()
		if err != nil {
			return err
		}
		m, err := tco.Config{
			TableGB: tco.CriteoTBTableGB, ReplicationRatio: 0.8,
			RelativePerformance: perf, Drive: drive,
		}.Estimate()
		if err != nil {
			return err
		}
		t.row(fmt.Sprintf("total cost (%s)", drive.Name),
			fmt.Sprintf("$%.2f", b.TotalUSD), fmt.Sprintf("$%.2f", m.TotalUSD))
		t.row(fmt.Sprintf("perf/cost (%s)", drive.Name),
			"1.00x", fmt.Sprintf("%.2fx", m.PerfPerDollar))
	}
	t.row("embedding table",
		fmt.Sprintf("%.0f GB", tco.CriteoTBTableGB),
		fmt.Sprintf("%.0f GB", tco.CriteoTBTableGB*1.8))
	t.flush()
	return nil
}
