package placement

import (
	"testing"

	"maxembed/internal/hypergraph"
	"maxembed/internal/layout"
	"maxembed/internal/selection"
	"maxembed/internal/workload"
)

// livePagesPerQuery replays queries through one-pass selection at the
// serving default k=10 and returns the mean pages selected per query — the
// number a partitioner exists to lower.
func livePagesPerQuery(tb testing.TB, lay *layout.Layout, queries [][]uint32) float64 {
	tb.Helper()
	sel := selection.NewSelector(selection.NewIndex(lay, 10))
	pages := 0
	for _, q := range queries {
		st, err := sel.OnePass(q, nil, nil)
		if err != nil {
			tb.Fatal(err)
		}
		pages += st.Pages
	}
	return float64(pages) / float64(len(queries))
}

// BenchmarkPartition sizes a base-partitioner change without a scratch
// program: both partitioners over the repo benchmark's two trace shapes
// (bench/workloads.go: Criteo ×0.4 and Amazon M2 ×1.0, seed 12, history
// half → layout, d = 15), bare and under MaxEmbed's replication at the
// bench's r = 0.2. ns/op and B/op are the offline cost; pages/query is the
// live half replayed through selection (lower is better).
func BenchmarkPartition(b *testing.B) {
	for _, tc := range []struct {
		name  string
		p     workload.Profile
		scale float64
	}{
		{"Criteo0.4", workload.Criteo, 0.4},
		{"AmazonM2", workload.AmazonM2, 1.0},
	} {
		tr, err := workload.GenerateSeeded(tc.p.Scaled(tc.scale), 12)
		if err != nil {
			b.Fatal(err)
		}
		hist, live := tr.Split(0.5)
		g, err := hypergraph.FromQueries(tr.NumItems, hist.Queries)
		if err != nil {
			b.Fatal(err)
		}
		for _, part := range []struct {
			name string
			id   Partitioner
		}{{"grown", PartitionerGrown}, {"shp", PartitionerSHP}} {
			for _, r := range []float64{0, 0.2} {
				strat, label := StrategySHP, "bare"
				if r > 0 {
					strat, label = StrategyMaxEmbed, "r0.2"
				}
				b.Run(tc.name+"/"+part.name+"/"+label, func(b *testing.B) {
					b.ReportAllocs()
					var lay *layout.Layout
					for i := 0; i < b.N; i++ {
						lay, err = Build(strat, g, Options{
							Capacity: 15, ReplicationRatio: r, Seed: 1, Partitioner: part.id,
						})
						if err != nil {
							b.Fatal(err)
						}
					}
					b.StopTimer()
					b.ReportMetric(livePagesPerQuery(b, lay, live.Queries), "pages/query")
				})
			}
		}
	}
}
