package experiments

import (
	"fmt"

	"maxembed/internal/placement"
	"maxembed/internal/ssd"
	"maxembed/internal/workload"
)

// Fig17a reproduces Figure 17a: effective bandwidth vs replication ratio
// for embedding dimensions 32, 64, 128 on Alibaba-iFashion. Paper: larger
// vectors fit fewer embeddings per page, so SHP alone does worse and
// replication helps relatively more; effective bandwidth always rises with
// r.
func Fig17a(cfg Config) error {
	cfg = cfg.withDefaults()
	sweep := []float64{0, 0.25, 0.50, 0.75}
	t := newTable(cfg.Out, "Figure 17a: effective bandwidth (MB/s) vs r, by embedding dimension")
	header := []string{"dim"}
	for _, r := range sweep {
		header = append(header, fmt.Sprintf("r=%.0f%%", r*100))
	}
	header = append(header, "r=75%/r=0")
	t.row(header...)
	for _, dim := range []int{32, 64, 128} {
		dimCfg := cfg
		dimCfg.Dim = dim
		pr, err := prepare(dimCfg, workload.AlibabaIFashion)
		if err != nil {
			return err
		}
		cells := []string{fmt.Sprintf("%d", dim)}
		var first, last float64
		for _, r := range sweep {
			strat := placement.StrategyMaxEmbed
			if r == 0 {
				strat = placement.StrategySHP
			}
			lay, err := buildLayout(dimCfg, pr, strat, r)
			if err != nil {
				return err
			}
			res, err := serve(dimCfg, pr, lay, defaultServing())
			if err != nil {
				return err
			}
			if r == 0 {
				first = res.EffectiveBandwidth
			}
			last = res.EffectiveBandwidth
			cells = append(cells, mbps(res.EffectiveBandwidth))
		}
		cells = append(cells, fmt.Sprintf("%.2fx", last/first))
		t.row(cells...)
	}
	t.flush()
	return nil
}

// Fig17b reproduces Figure 17b: effective bandwidth of vanilla, SHP, and
// MaxEmbed placements on different SSD types (P4510, P5800X, RAID-0 of two
// P5800X) on Alibaba-iFashion. Paper: the relative improvements are
// consistent across devices; only the absolute bandwidth scale differs.
// The RAID-0 point runs on a real two-device ssd.Array (independent
// per-shard queues, shard-aware replica placement).
func Fig17b(cfg Config) error {
	cfg = cfg.withDefaults()
	pr, err := prepare(cfg, workload.AlibabaIFashion)
	if err != nil {
		return err
	}
	type devEntry struct {
		name string
		prof ssd.Profile
		n    int // array member count (1 = single device)
	}
	devices := []devEntry{
		{ssd.P4510.Name, ssd.P4510, 1},
		{ssd.P5800X.Name, ssd.P5800X, 1},
		{"Array-2xP5800X", ssd.P5800X, 2},
	}
	type variant struct {
		name  string
		strat placement.Strategy
		r     float64
	}
	variants := []variant{
		{"vanilla", placement.StrategyVanilla, 0},
		{"SHP", placement.StrategySHP, 0},
		{"ME(r=40%)", placement.StrategyMaxEmbed, 0.40},
	}
	t := newTable(cfg.Out, "Figure 17b: effective bandwidth (MB/s) by SSD type")
	t.row("device", "vanilla", "SHP", "ME(r=40%)", "ME/SHP")
	for _, dev := range devices {
		cells := []string{dev.name}
		var shp, me float64
		for _, v := range variants {
			lay, err := buildLayoutOn(cfg, pr, v.strat, v.r, dev.n)
			if err != nil {
				return err
			}
			so := defaultServing()
			so.device = dev.prof
			so.devices = dev.n
			res, err := serve(cfg, pr, lay, so)
			if err != nil {
				return err
			}
			switch v.name {
			case "SHP":
				shp = res.EffectiveBandwidth
			case "ME(r=40%)":
				me = res.EffectiveBandwidth
			}
			cells = append(cells, mbps(res.EffectiveBandwidth))
		}
		cells = append(cells, fmt.Sprintf("%.2fx", me/shp))
		t.row(cells...)
	}
	t.flush()
	return nil
}
