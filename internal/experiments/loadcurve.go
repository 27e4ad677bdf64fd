package experiments

import (
	"fmt"

	"maxembed/internal/embedding"
	"maxembed/internal/placement"
	"maxembed/internal/serving"
	"maxembed/internal/ssd"
	"maxembed/internal/workload"
)

// LoadCurve is a supplementary experiment beyond the paper's figures: the
// serving view of MaxEmbed's gain. Queries arrive open-loop at a fixed
// offered rate; tail latency stays flat until the system's capacity knee
// and then grows without bound. Because replication cuts page reads per
// query, the MaxEmbed deployment's knee sits at a higher offered load than
// the SHP baseline's — the same +x% that Fig 10 reports as closed-loop
// throughput, seen as SLO headroom.
func LoadCurve(cfg Config) error {
	cfg = cfg.withDefaults()
	pr, err := prepare(cfg, workload.Criteo)
	if err != nil {
		return err
	}
	type variant struct {
		name  string
		strat placement.Strategy
		r     float64
	}
	variants := []variant{
		{"SHP", placement.StrategySHP, 0},
		{"ME(r=80%)", placement.StrategyMaxEmbed, 0.80},
	}
	engines := make(map[string]*serving.Engine, len(variants))
	var baseCapacity float64
	for _, v := range variants {
		lay, err := buildLayout(cfg, pr, v.strat, v.r)
		if err != nil {
			return err
		}
		dev, err := ssd.NewDevice(ssd.P5800X)
		if err != nil {
			return err
		}
		eng, err := serving.New(serving.Config{
			Layout:       lay,
			Device:       dev,
			CacheEntries: lay.NumKeys / 10,
			AdmitAll:     true,
			IndexLimit:   10,
			Pipeline:     true,
			VectorBytes:  embedding.BytesPerVector(cfg.Dim),
		})
		if err != nil {
			return err
		}
		if err := eng.WarmCache(pr.history.Queries); err != nil {
			return err
		}
		engines[v.name] = eng
		if v.name == "SHP" {
			// Closed-loop capacity of the baseline anchors the sweep.
			res, err := serving.Run(eng, pr.eval.Queries, cfg.Workers)
			if err != nil {
				return err
			}
			baseCapacity = res.QPS
		}
	}

	t := newTable(cfg.Out, "Load curve (supplementary): p99 latency (µs) vs offered load, Criteo")
	t.row("offered / SHP capacity", "SHP p99", "ME(r=80%) p99", "SHP sat.", "ME sat.")
	for _, frac := range []float64{0.50, 0.70, 0.85, 0.95, 1.05} {
		offered := frac * baseCapacity
		cells := []string{fmt.Sprintf("%.0f%% (%.0f qps)", frac*100, offered)}
		sat := map[string]bool{}
		for _, v := range variants {
			res, err := serving.RunOpenLoop(engines[v.name], pr.eval.Queries, cfg.Workers, offered)
			if err != nil {
				return err
			}
			cells = append(cells, fmt.Sprintf("%.1f", float64(res.Latency.P99NS)/1e3))
			sat[v.name] = res.Saturated
		}
		cells = append(cells, fmt.Sprintf("%v", sat["SHP"]), fmt.Sprintf("%v", sat["ME(r=80%)"]))
		t.row(cells...)
	}
	t.flush()
	return nil
}
