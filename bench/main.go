// Command bench is the repo benchmark: it drives a separately started
// maxembed-server over the file backend with four traffic mixes and
// reports end-to-end and per-layer metrics by name. See README.md.
//
// Run it through bench/run.sh, which builds this harness and the server:
//
//	bash bench/run.sh --workload cold-json --seed 12 --seconds 12 --trace 0
//	bash bench/run.sh -out bench/results/BENCH_12.json      # all workloads, both kinds of run
//	bash bench/run.sh -compare A.json B.json
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"syscall"
)

func main() {
	var (
		cfg      runConfig
		workload = flag.String("workload", "", "run this workload only (default: all four)")
		trace    = flag.Int("trace", -1, "0: untraced run, end-to-end metrics; 1: traced run, per-layer metrics (default: both)")
		out      = flag.String("out", "", "write the full JSON document here (default: stdout)")
		compare  = flag.Bool("compare", false, "compare two documents given as arguments instead of running")
	)
	flag.StringVar(&cfg.serverBin, "server", ".bench_build/maxembed-server", "maxembed-server binary (run.sh builds it)")
	flag.StringVar(&cfg.tmpRoot, "tmp", ".bench_build", "directory for per-run scratch (trace file, shard files, server log)")
	flag.StringVar(&cfg.dataDir, "dir", "", "write shard files here instead of the scratch directory (point at NVMe)")
	flag.Int64Var(&cfg.seed, "seed", 12, "workload seed; reaches the trace generator only")
	flag.Float64Var(&cfg.seconds, "seconds", 12, "length of the measured phases of one run")
	flag.Float64Var(&cfg.scale, "scale", 1, "multiply every workload's trace scale (the self-test shrinks it)")
	flag.StringVar(&cfg.traceOut, "trace-out", "bench/results", "directory the traced run writes trace_<workload>.json to")
	flag.Parse()
	cfg.setups, cfg.replay, cfg.log = 3, 2000, os.Stderr

	if *compare {
		if flag.NArg() != 2 {
			fatal(errors.New("usage: bench -compare A.json B.json"))
		}
		ok, err := compareFiles(os.Stdout, flag.Arg(0), flag.Arg(1))
		if err != nil {
			fatal(err)
		}
		if !ok {
			os.Exit(1)
		}
		return
	}

	// SIGINT and SIGTERM cancel the run; every path below then stops the
	// server's process group and removes the scratch directory.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	run := specs
	if *workload != "" {
		s, ok := specByName(*workload)
		if !ok {
			fatal(fmt.Errorf("unknown workload %q", *workload))
		}
		run = []spec{s}
	}
	if *workload != "" && *trace >= 0 {
		// The driver's form: one workload, one kind of run, and the
		// contract's result object as the last line of stdout.
		res, err := runOne(ctx, cfg, run[0], *trace == 1)
		if err != nil {
			fatal(err)
		}
		printTable(cfg.log, res)
		line, err := json.Marshal(contractLine(res))
		if err != nil {
			fatal(err)
		}
		fmt.Printf("%s\n", line)
		return
	}

	doc := newDocument(cfg)
	for _, s := range run {
		for _, traced := range []bool{false, true} {
			if *trace >= 0 && traced != (*trace == 1) {
				continue
			}
			res, err := runOne(ctx, cfg, s, traced)
			if err != nil {
				fatal(err)
			}
			printTable(cfg.log, res)
			doc.add(res, traced)
		}
	}
	if err := doc.write(*out); err != nil {
		fatal(err)
	}
	if !doc.correct() {
		fatal(errors.New("some replies failed or were wrong; see fail_kinds in the document"))
	}
}

func runOne(ctx context.Context, cfg runConfig, s spec, traced bool) (*result, error) {
	if traced {
		return runTraced(ctx, cfg, s)
	}
	return runE2E(ctx, cfg, s)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "bench:", err)
	os.Exit(1)
}
