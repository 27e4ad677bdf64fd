package maxembed_test

// One benchmark per table and figure of the paper's evaluation (§8). Each
// bench runs the corresponding experiment driver end to end — trace
// synthesis, offline placement, online serving on the simulated device —
// at a reduced scale suitable for `go test -bench`. The full-size versions
// are run by `go run ./cmd/experiments`; EXPERIMENTS.md records their
// output against the paper's numbers.
//
// Benchmarks discard the table text (io.Discard) and report wall time of
// regenerating the artifact; use -benchtime=1x for a single regeneration.

import (
	"io"
	"testing"

	"maxembed"
	"maxembed/internal/experiments"
)

// benchScale keeps each regeneration within a benchmark-friendly budget.
const benchScale = 0.04

func benchConfig() experiments.Config {
	return experiments.Config{
		Out:     io.Discard,
		Scale:   benchScale,
		Workers: 4,
		Seed:    1,
	}
}

func runExperiment(b *testing.B, id string) {
	b.Helper()
	e, ok := experiments.ByID(id)
	if !ok {
		b.Fatalf("experiment %q not registered", id)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		// Fresh memo each iteration so the bench measures the full
		// pipeline, not a cache hit.
		experiments.ResetMemo()
		if err := e.Run(benchConfig()); err != nil {
			b.Fatal(err)
		}
	}
	experiments.ResetMemo()
}

func BenchmarkTable1(b *testing.B) { runExperiment(b, "table1") }
func BenchmarkTable2(b *testing.B) { runExperiment(b, "table2") }
func BenchmarkTable3(b *testing.B) { runExperiment(b, "table3") }
func BenchmarkFig3(b *testing.B)   { runExperiment(b, "fig3") }
func BenchmarkFig8(b *testing.B)   { runExperiment(b, "fig8") }
func BenchmarkFig9(b *testing.B)   { runExperiment(b, "fig9") }
func BenchmarkFig10(b *testing.B)  { runExperiment(b, "fig10") }
func BenchmarkFig11(b *testing.B)  { runExperiment(b, "fig11") }
func BenchmarkFig12(b *testing.B)  { runExperiment(b, "fig12") }
func BenchmarkFig13(b *testing.B)  { runExperiment(b, "fig13") }
func BenchmarkFig14(b *testing.B)  { runExperiment(b, "fig14") }
func BenchmarkFig15(b *testing.B)  { runExperiment(b, "fig15") }
func BenchmarkFig16(b *testing.B)  { runExperiment(b, "fig16") }
func BenchmarkFig17a(b *testing.B) { runExperiment(b, "fig17a") }
func BenchmarkFig17b(b *testing.B) { runExperiment(b, "fig17b") }

// BenchmarkLookup measures the end-to-end public-API lookup path (offline
// phase excluded): the per-query cost a downstream user of the library
// observes, in real (not virtual) time.
func BenchmarkLookup(b *testing.B) {
	trace, err := maxembed.GenerateTrace(maxembed.ProfileCriteo, 0.05)
	if err != nil {
		b.Fatal(err)
	}
	history, eval := trace.Split(0.5)
	db, err := maxembed.Open(trace.NumItems, history.Queries, maxembed.WithReplicationRatio(0.2))
	if err != nil {
		b.Fatal(err)
	}
	sess := db.NewSession()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sess.Lookup(eval.Queries[i%len(eval.Queries)]); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkOfflinePhase measures the full offline pipeline (hypergraph,
// base partitioning, connectivity-priority replication, page layout).
func BenchmarkOfflinePhase(b *testing.B) {
	trace, err := maxembed.GenerateTrace(maxembed.ProfileCriteo, 0.05)
	if err != nil {
		b.Fatal(err)
	}
	history, _ := trace.Split(0.5)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := maxembed.Open(trace.NumItems, history.Queries,
			maxembed.WithReplicationRatio(0.2), maxembed.TimingOnly()); err != nil {
			b.Fatal(err)
		}
	}
}
