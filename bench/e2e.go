package main

import (
	"context"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"time"
)

// runConfig is what one run of one workload needs besides the workload.
type runConfig struct {
	serverBin string
	tmpRoot   string // run directories are made and removed under it
	dataDir   string // shard files go here instead of the run directory when set
	seed      int64
	seconds   float64   // length of the measured phases, split between them
	scale     float64   // multiplies every workload's trace scale
	setups    int       // server set-ups per untraced run; setup_s is their median
	replay    int       // live queries the in-process traced replay covers
	traceOut  string    // span file of the traced run, "" for none
	log       io.Writer // human-readable progress and tables
}

// Windows are one second long: at the slowest frozen rate each holds
// ≥ 1 000 requests, so its p99 has ten samples beyond it. Phases shorter
// than one window (the self-test) are one window.
const windowLen = time.Second

// split cuts a phase of the given length into whole windows.
func split(length time.Duration) (window time.Duration, n int) {
	if length <= windowLen {
		return length, 1
	}
	return windowLen, int(length / windowLen)
}

// result is the outcome of one run of one workload, untraced or traced.
type result struct {
	Workload   string         `json:"workload"`
	Seed       int64          `json:"seed"`
	TableBytes int64          `json:"table_bytes"`
	CacheBytes int64          `json:"cache_bytes"`
	Executor   string         `json:"executor"`
	DirectIO   string         `json:"direct_io"`
	Attempted  int            `json:"attempted"`
	Failed     int            `json:"failed"`
	Verified   int            `json:"verified"`
	FailKinds  map[string]int `json:"fail_kinds,omitempty"`
	FirstFail  string         `json:"first_failure,omitempty"`
	Metrics    metricSet      `json:"metrics"`
}

func (r *result) correct() bool { return r.Failed == 0 && r.Verified > 0 }

func (r *result) account(phases ...*phase) {
	for _, p := range phases {
		r.Attempted += p.sent
		r.Failed += p.failed
		r.Verified += p.verified
		for kind, n := range p.failKinds {
			if r.FailKinds == nil {
				r.FailKinds = map[string]int{}
			}
			r.FailKinds[kind] += n
		}
		if r.FirstFail == "" {
			r.FirstFail = p.firstFail
		}
	}
}

// session is one workload's inputs on disk plus the server serving them.
type session struct {
	cfg       runConfig
	in        *inputs
	dir       string
	dataDir   string
	traceFile string
	srv       *serverProc
	gen       *loadgen
}

func openSession(cfg runConfig, s spec) (*session, error) {
	in, err := makeInputs(s, cfg.seed, cfg.scale)
	if err != nil {
		return nil, err
	}
	if err := os.MkdirAll(cfg.tmpRoot, 0o755); err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp(cfg.tmpRoot, "run-"+s.Name+"-")
	if err != nil {
		return nil, err
	}
	if dir, err = filepath.Abs(dir); err != nil {
		return nil, err
	}
	se := &session{cfg: cfg, in: in, dir: dir, dataDir: filepath.Join(dir, "data")}
	if cfg.dataDir != "" {
		se.dataDir = cfg.dataDir
	}
	if se.traceFile, err = in.writeHistory(dir); err != nil {
		se.close()
		return nil, err
	}
	return se, nil
}

// start brings a server up (stopping the previous one) and returns how
// long it took to turn healthy.
func (se *session) start(ctx context.Context) (time.Duration, error) {
	se.stop()
	srv, err := startServer(ctx, se.cfg.serverBin, se.in.spec, se.traceFile, se.dataDir, filepath.Join(se.dir, "server.log"))
	if err != nil {
		return 0, err
	}
	se.srv = srv
	se.gen = newLoadgen(se.in, srv.base, se.in.spec.Conns)
	if err := flushFiles(se.dataDir); err != nil {
		return 0, err
	}
	return srv.setup, nil
}

// flushFiles fsyncs the shard files the server has just written. The
// server does not, and an O_DIRECT read of a range whose pages are still
// dirty makes the kernel write them back first (1.6 ms a read on the
// reference sandbox against 0.1 ms after): without this the first minute
// of load would time the kernel's writeback instead of the read path.
func flushFiles(dir string) error {
	files, err := filepath.Glob(filepath.Join(dir, "*.bin"))
	if err != nil {
		return err
	}
	for _, name := range files {
		f, err := os.Open(name)
		if err != nil {
			return err
		}
		err = f.Sync()
		f.Close()
		if err != nil {
			return fmt.Errorf("flushing %s: %w", name, err)
		}
	}
	return nil
}

func (se *session) stop() {
	if se.gen != nil {
		se.gen.close()
		se.gen = nil
	}
	if se.srv != nil {
		se.srv.stop()
		se.srv = nil
	}
}

// close stops the server and removes everything the run wrote.
func (se *session) close() {
	se.stop()
	os.RemoveAll(se.dir)
}

// snapshot is the server's counters at one instant, read while no load is
// running.
type snapshot struct {
	stats serverStats
	prom  promMetrics
	mem   memStats
	use   procUsage
}

// snapshot also is where a cancelled run (SIGINT) and a dead server stop
// the workload: the load phases between two snapshots just end early.
func (se *session) snapshot(ctx context.Context) (snapshot, error) {
	var sn snapshot
	var err error
	if err = ctx.Err(); err != nil {
		return sn, err
	}
	if err = se.srv.alive(); err != nil {
		return sn, err
	}
	if sn.stats, err = se.srv.stats(); err != nil {
		return sn, err
	}
	if sn.prom, err = se.srv.metrics(); err != nil {
		return sn, err
	}
	if sn.mem, err = se.srv.memStats(); err != nil {
		return sn, err
	}
	sn.use, err = se.srv.usage()
	return sn, err
}

// warmUp runs the closed loop with every reply verified in full, so the
// cache fills and lazy set-up finishes before anything is timed.
func (se *session) warmUp(ctx context.Context) *phase {
	return se.gen.closedLoop(ctx, min(2*time.Second, secs(se.cfg.seconds/2)), true)
}

func secs(s float64) time.Duration { return time.Duration(s * float64(time.Second)) }

func (se *session) newResult() *result {
	kind, direct := se.srv.executor()
	return &result{
		Workload: se.in.spec.Name, Seed: se.cfg.seed,
		TableBytes: se.in.tableBytes(), CacheBytes: se.in.cacheBytes(),
		Executor: kind, DirectIO: direct,
		Metrics: metricSet{},
	}
}

// runE2E is the untraced run: it measures every end-to-end metric and
// nothing else, over a closed loop of cfg.seconds. Lookups per second and
// latency are not among them: on the reference sandbox the host slows the
// guest's CPUs by up to half for minutes at a time, which moves every
// wall-clock number by more than any bound could allow, so the traced run
// reports them ungated. What is gated is what a drift cannot move: counts
// per lookup, and the server's CPU time per lookup relative to the CPU
// time the load generator itself spends per request, which runs on the
// same CPUs at the same moment and does the same work on every commit.
func runE2E(ctx context.Context, cfg runConfig, s spec) (*result, error) {
	se, err := openSession(cfg, s)
	if err != nil {
		return nil, err
	}
	defer se.close()

	// Set-up is repeated and the median reported: one set-up is a single
	// two-second sample that a host stall moves by tens of percent.
	var setups []float64
	for i := 0; i < cfg.setups; i++ {
		d, err := se.start(ctx)
		if err != nil {
			return nil, err
		}
		setups = append(setups, d.Seconds())
	}
	res := se.newResult()
	warm := se.warmUp(ctx)

	before, err := se.snapshot(ctx)
	if err != nil {
		return nil, err
	}
	self0, err := readUsage(os.Getpid())
	if err != nil {
		return nil, err
	}
	closed := se.gen.closedLoop(ctx, secs(cfg.seconds), false)
	self1, err := readUsage(os.Getpid())
	if err != nil {
		return nil, err
	}
	after, err := se.snapshot(ctx)
	if err != nil {
		return nil, err
	}
	res.account(warm, closed)

	m := res.Metrics
	replies := float64(closed.ok())
	serverCPU, clientCPU := us(after.use.cpu-before.use.cpu), us(self1.cpu-self0.cpu)
	m["setup_s"] = windowed(setups, 0)
	// Device reads per reply rather than Σ stats.page_share: MXE1 frames
	// carry no stats, and with the server idle at both scrapes the two
	// are the same number.
	m.put("pages_per_lookup", ratio(float64(after.stats.Device.Reads-before.stats.Device.Reads), replies))
	m.put("cpu_per_lookup_rel", ratio(serverCPU, clientCPU))
	m.put("allocs_per_lookup", ratio(float64(after.mem.mallocs-before.mem.mallocs), replies))
	m.put("alloc_kb_per_lookup", ratio(float64(after.mem.totalAlloc-before.mem.totalAlloc)/1024, replies))
	m.put("resp_kb_per_lookup", ratio(float64(closed.respBytes)/1024, float64(closed.sent)))
	m.put("rss_mb", float64(after.use.hwmKB)/1024)
	if err := m.finish(endToEnd); err != nil {
		return nil, fmt.Errorf("%s: %w", s.Name, err)
	}
	fmt.Fprintf(cfg.log, "   (ungated, this run: %.0f lookups/s closed loop; CPU per lookup %.1f us server, %.1f us client)\n",
		replies/closed.elapsed.Seconds(), ratio(serverCPU, replies), ratio(clientCPU, replies))
	return res, nil
}
