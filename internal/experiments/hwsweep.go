package experiments

import (
	"fmt"
	"os"
	"path/filepath"
	"time"

	"maxembed/internal/embedding"
	"maxembed/internal/placement"
	"maxembed/internal/serving"
	"maxembed/internal/ssd"
	"maxembed/internal/store"
)

// Hard budgets the sweep enforces. They are deliberately generous — the
// point is to catch structural regressions (per-read allocation storms,
// serialized I/O, a copy sneaking back into the hot path), not to bench
// the CI machine.
const (
	// hwHostBudgetNS bounds mean wall-clock time per page read of the
	// closed-loop file-backend run: submit + syscall + checksum verify +
	// ref assembly + accounting. Page-cache reads sit around 5–50µs and
	// real NVMe under 200µs, so 1ms of slack only trips on pathology.
	hwHostBudgetNS = 1_000_000
	// hwScalingFloor is the minimum throughput ratio widening the pread
	// pool must preserve: more workers may not help on a loaded single
	//-core runner, but they must never collapse throughput.
	hwScalingFloor = 0.5
)

// HWSweep is the real-hardware smoke sweep: the same trace and layout are
// served by the simulated device model and by the asynchronous file
// backend (io_uring or pread pool over O_DIRECT files where the filesystem
// allows), and the two runs are held to hard invariants rather than eyeballed:
//
//   - page-read parity — selection is deterministic and cacheless, so the
//     file run must read exactly the pages the simulator run reads;
//   - zero failed keys — real I/O must serve every key the layout holds;
//   - host overhead per read under budget (hwHostBudgetNS);
//   - submission batching — on io_uring a query's reads share one
//     io_uring_enter, so reads per enter must reach at least half the
//     trace's mean pages per query (skipped on the pread executor);
//   - pool-worker scaling — widening the pread pool must not collapse raw
//     read throughput (hwScalingFloor).
//
// Point the sweep's directory at an NVMe filesystem (MAXEMBED_HWSWEEP_DIR)
// to turn it into a real-hardware measurement; by default it runs on a
// temp dir, where page-cache service still exercises every code path.
func HWSweep(cfg Config) error {
	cfg = cfg.withDefaults()
	pr, err := prepare(cfg, overallProfiles()[0])
	if err != nil {
		return err
	}
	lay, err := buildLayout(cfg, pr, placement.StrategyMaxEmbed, 0.40)
	if err != nil {
		return err
	}
	syn, err := embedding.NewSynthesizer(cfg.Dim, cfg.Seed)
	if err != nil {
		return err
	}
	st, err := store.Build(lay, syn, cfg.PageSize)
	if err != nil {
		return err
	}

	dir := os.Getenv("MAXEMBED_HWSWEEP_DIR")
	if dir == "" {
		dir, err = os.MkdirTemp("", "maxembed-hwsweep-")
		if err != nil {
			return err
		}
		defer os.RemoveAll(dir)
	}
	path := filepath.Join(dir, "shard000.bin")
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if _, err := st.WriteTo(f); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}

	// Part 1: engine-level comparison, simulator vs file backend, on
	// identical queries with identical layouts and no cache.
	t := newTable(cfg.Out, "Hardware sweep: simulated device vs real async I/O (maxembed, 40% replicas, no cache)")
	t.row("backend", "executor", "direct", "pages read", "failed", "wall ms", "host µs/read", "read p-mean µs", "reads/enter")

	dev, err := ssd.NewDevice(ssd.P5800X)
	if err != nil {
		return err
	}
	simEng, err := serving.New(serving.Config{
		Layout: lay, Device: dev, Store: st, IndexLimit: 10, Pipeline: true,
	})
	if err != nil {
		return err
	}
	simRes, err := serving.Run(simEng, pr.eval.Queries, cfg.Workers)
	if err != nil {
		return err
	}
	t.row("simulated", "model", "-",
		fmt.Sprint(simRes.PagesRead), fmt.Sprint(simRes.FailedKeys), "-", "-", "-", "-")

	fs, _, err := store.OpenFileAuto(path)
	if err != nil {
		return err
	}
	fb, err := ssd.NewFileBackend([]*store.FileStore{fs}, ssd.FileBackendConfig{})
	if err != nil {
		return err
	}
	fileEng, err := serving.New(serving.Config{
		Layout: lay, Backend: fb, Store: st, IndexLimit: 10, Pipeline: true,
	})
	if err != nil {
		fb.Close()
		return err
	}
	start := time.Now()
	fileRes, err := serving.Run(fileEng, pr.eval.Queries, cfg.Workers)
	wall := time.Since(start)
	if err != nil {
		fb.Close()
		return err
	}
	lat := fb.ShardReadLatency(0)
	var meanReadNS float64
	if lat.Count > 0 {
		meanReadNS = float64(lat.SumNS) / float64(lat.Count)
	}
	hostNSPerRead := float64(wall.Nanoseconds()) / float64(max64(fileRes.PagesRead, 1))
	enters, ringed := fb.RingEnters()
	readsPerEnter, perEnterCell := 0.0, "-"
	if ringed {
		readsPerEnter = float64(fileRes.PagesRead) / float64(max64(enters, 1))
		perEnterCell = fmt.Sprintf("%.1f", readsPerEnter)
	}
	t.row("file", fb.ExecutorKind(), fmt.Sprint(fb.Direct()),
		fmt.Sprint(fileRes.PagesRead), fmt.Sprint(fileRes.FailedKeys),
		fmt.Sprintf("%.1f", float64(wall.Nanoseconds())/1e6),
		fmt.Sprintf("%.1f", hostNSPerRead/1e3),
		fmt.Sprintf("%.1f", meanReadNS/1e3), perEnterCell)
	t.flush()

	// Hard invariants. An experiment that fails here fails the run — they
	// double as the CI bench-smoke assertions.
	if fileRes.PagesRead != simRes.PagesRead {
		fb.Close()
		return fmt.Errorf("hwsweep: page-read parity broken: file backend read %d pages, simulator %d (same trace, same layout, no cache)",
			fileRes.PagesRead, simRes.PagesRead)
	}
	if fileRes.FailedKeys != 0 || simRes.FailedKeys != 0 {
		fb.Close()
		return fmt.Errorf("hwsweep: failed keys on a fault-free run: file %d, sim %d",
			fileRes.FailedKeys, simRes.FailedKeys)
	}
	if hostNSPerRead > hwHostBudgetNS {
		fb.Close()
		return fmt.Errorf("hwsweep: host overhead %.1fµs per read exceeds the %.0fµs budget",
			hostNSPerRead/1e3, float64(hwHostBudgetNS)/1e3)
	}
	if lat.Count == 0 {
		fb.Close()
		return fmt.Errorf("hwsweep: file backend recorded no measured read latency over %d reads", fileRes.PagesRead)
	}
	pagesPerQuery := float64(fileRes.PagesRead) / float64(len(pr.eval.Queries))
	if ringed && readsPerEnter < pagesPerQuery/2 {
		fb.Close()
		return fmt.Errorf("hwsweep: %.1f reads per io_uring_enter against %.1f pages per query: submissions are not batching",
			readsPerEnter, pagesPerQuery)
	}
	if err := fb.Close(); err != nil {
		return err
	}

	// Part 2: raw read throughput vs pread-pool width, straight through a
	// queue pair (no serving layer) so the sweep isolates the executor.
	t2 := newTable(cfg.Out, "Pool-worker scaling: raw page reads through the pread executor")
	t2.row("workers", "reads", "wall ms", "MB/s", "vs 1 worker")
	var base float64
	var tputs []float64
	widths := []int{1, 2, 4}
	for _, workers := range widths {
		tput, reads, wallMS, err := hwPoolThroughput(path, workers, cfg.PageSize)
		if err != nil {
			return err
		}
		ratio := "-"
		if base == 0 {
			base = tput
		} else {
			ratio = pct(tput / base)
		}
		tputs = append(tputs, tput)
		t2.row(fmt.Sprint(workers), fmt.Sprint(reads),
			fmt.Sprintf("%.1f", wallMS), fmt.Sprintf("%.0f", tput/1e6), ratio)
	}
	t2.flush()
	for i, tput := range tputs {
		if tput < base*hwScalingFloor {
			return fmt.Errorf("hwsweep: %d pool workers collapsed throughput to %.0f%% of 1 worker (floor %.0f%%)",
				widths[i], 100*tput/base, 100*hwScalingFloor)
		}
	}
	return nil
}

// hwPoolThroughput reads every page of the store file several times at a
// fixed queue depth through a pread pool of the given width and returns
// (bytes/sec, reads, wall ms).
func hwPoolThroughput(path string, workers, pageSize int) (float64, int64, float64, error) {
	fs, _, err := store.OpenFileAuto(path)
	if err != nil {
		return 0, 0, 0, err
	}
	fb, err := ssd.NewFileBackend([]*store.FileStore{fs}, ssd.FileBackendConfig{
		ForcePread:  true,
		PoolWorkers: workers,
	})
	if err != nil {
		return 0, 0, 0, err
	}
	defer fb.Close()
	const depth, passes = 16, 3
	q := fb.NewQueuePair()
	n := fb.NumPages()
	var reads int64
	var now int64
	start := time.Now()
	for pass := 0; pass < passes; pass++ {
		inflight := 0
		for p := 0; p < n; p++ {
			now = q.Submit(ssd.PageID(p), now)
			inflight++
			if inflight == depth {
				done, comps := q.Drain(now)
				now = done
				for _, c := range comps {
					if c.Err != nil {
						return 0, 0, 0, fmt.Errorf("hwsweep: page %d: %w", c.Page, c.Err)
					}
					reads++
					if c.Buf != nil {
						c.Buf.Release()
					}
				}
				inflight = 0
			}
		}
		done, comps := q.Drain(now)
		now = done
		for _, c := range comps {
			if c.Err != nil {
				return 0, 0, 0, fmt.Errorf("hwsweep: page %d: %w", c.Page, c.Err)
			}
			reads++
			if c.Buf != nil {
				c.Buf.Release()
			}
		}
	}
	wall := time.Since(start)
	tput := float64(reads) * float64(pageSize) / wall.Seconds()
	return tput, reads, float64(wall.Nanoseconds()) / 1e6, nil
}

func max64(a, b int64) int64 {
	if a > b {
		return a
	}
	return b
}
