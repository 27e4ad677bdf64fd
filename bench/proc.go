package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

const (
	healthPoll    = 20 * time.Millisecond
	healthTimeout = 120 * time.Second
)

// serverProc is one running maxembed-server: a separate process in its own
// process group, so that stop kills everything it may have started.
type serverProc struct {
	cmd     *exec.Cmd
	base    string // http://127.0.0.1:port
	logPath string
	exited  chan struct{} // closed once cmd.Wait has returned
	waitErr error
	// setup is exec → first 200 on /healthz.
	setup time.Duration
	hc    *http.Client
}

// freeAddr asks the kernel for an unused loopback port.
func freeAddr() (string, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	defer l.Close()
	return l.Addr().String(), nil
}

// startServer execs the server binary with the workload's flags and polls
// /healthz until it answers 200. A server that exits or stays unhealthy
// for healthTimeout fails with the tail of its log.
func startServer(ctx context.Context, bin string, s spec, traceFile, dataDir, logPath string) (*serverProc, error) {
	addr, err := freeAddr()
	if err != nil {
		return nil, fmt.Errorf("choosing a port: %w", err)
	}
	logf, err := os.Create(logPath)
	if err != nil {
		return nil, err
	}
	defer logf.Close() // the child holds its own descriptor
	cmd := exec.Command(bin, s.serverArgs(addr, traceFile, dataDir)...)
	cmd.Stdout, cmd.Stderr = logf, logf
	cmd.SysProcAttr = &syscall.SysProcAttr{Setpgid: true, Pdeathsig: syscall.SIGKILL}
	start := time.Now()
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("starting %s: %w", bin, err)
	}
	p := &serverProc{
		cmd:     cmd,
		base:    "http://" + addr,
		logPath: logPath,
		exited:  make(chan struct{}),
		hc:      &http.Client{Timeout: 10 * time.Second},
	}
	go func() {
		p.waitErr = cmd.Wait()
		close(p.exited)
	}()
	tick := time.NewTicker(healthPoll)
	defer tick.Stop()
	deadline := time.After(healthTimeout)
	for {
		if resp, err := p.hc.Get(p.base + "/healthz"); err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				p.setup = time.Since(start)
				return p, nil
			}
		}
		select {
		case <-tick.C:
		case <-p.exited:
			return nil, fmt.Errorf("server exited before turning healthy (%v); log tail:\n%s", p.waitErr, tail(logPath, 20))
		case <-deadline:
			p.stop()
			return nil, fmt.Errorf("server not healthy after %v; log tail:\n%s", healthTimeout, tail(logPath, 20))
		case <-ctx.Done():
			p.stop()
			return nil, ctx.Err()
		}
	}
}

// stop kills the server's process group and waits for the process to end.
func (p *serverProc) stop() {
	// The group id equals the pid (Setpgid); ESRCH after a natural exit
	// is fine.
	_ = syscall.Kill(-p.cmd.Process.Pid, syscall.SIGKILL)
	<-p.exited
}

// alive reports an error carrying the log tail when the server has died.
func (p *serverProc) alive() error {
	select {
	case <-p.exited:
		return fmt.Errorf("server died (%v); log tail:\n%s", p.waitErr, tail(p.logPath, 20))
	default:
		return nil
	}
}

// tail returns the last n lines of a file, or the read error as text.
func tail(path string, n int) string {
	b, err := os.ReadFile(path)
	if err != nil {
		return err.Error()
	}
	lines := strings.Split(strings.TrimRight(string(b), "\n"), "\n")
	if len(lines) > n {
		lines = lines[len(lines)-n:]
	}
	return strings.Join(lines, "\n")
}

// executor returns the I/O executor and O_DIRECT state the server logged
// when its file backend came online ("io_uring"/"pread", "true"/"false").
func (p *serverProc) executor() (kind, direct string) {
	b, _ := os.ReadFile(p.logPath)
	for _, line := range strings.Split(string(b), "\n") {
		if i := strings.Index(line, "executor="); i >= 0 {
			for _, f := range strings.Fields(line[i:]) {
				if v, ok := strings.CutPrefix(f, "executor="); ok {
					kind = v
				}
				if v, ok := strings.CutPrefix(f, "direct_io="); ok {
					direct = v
				}
			}
		}
	}
	return kind, direct
}

func (p *serverProc) get(path string) ([]byte, error) {
	resp, err := p.hc.Get(p.base + path)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, fmt.Errorf("GET %s: %w", path, err)
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET %s: status %d", path, resp.StatusCode)
	}
	return b, nil
}

// serverStats is the part of /v1/stats the benchmark reads.
type serverStats struct {
	Device struct {
		Reads     int64 `json:"reads"`
		BytesRead int64 `json:"bytes_read"`
	} `json:"device"`
	Shards []struct {
		Reads     int64 `json:"reads"`
		QueuePeak int64 `json:"queue_peak"`
	} `json:"shards"`
	Coact *struct {
		MeanMaxShardDepth float64 `json:"mean_max_shard_depth"`
	} `json:"coact"`
	Cache *struct {
		Hits      int64 `json:"hits"`
		Misses    int64 `json:"misses"`
		Evictions int64 `json:"evictions"`
	} `json:"cache"`
	Coalescer struct {
		Bypasses      int64   `json:"bypasses"`
		Shed          int64   `json:"shed"`
		MeanBatchSize float64 `json:"mean_batch_size"`
		WaitP50NS     int64   `json:"wait_p50_ns"`
		WaitP99NS     int64   `json:"wait_p99_ns"`
	} `json:"coalescer"`
}

func (p *serverProc) stats() (serverStats, error) {
	var st serverStats
	b, err := p.get("/v1/stats")
	if err != nil {
		return st, err
	}
	if err := json.Unmarshal(b, &st); err != nil {
		return st, fmt.Errorf("decoding /v1/stats: %w", err)
	}
	return st, nil
}

// promMetrics is the part of /metrics the benchmark reads: the backend
// read-latency histogram summed over shards (cumulative counts by upper
// bound in seconds).
type promMetrics struct {
	latBounds []float64 // ascending, +Inf last
	latCum    []int64
}

func (p *serverProc) metrics() (promMetrics, error) {
	var pm promMetrics
	b, err := p.get("/metrics")
	if err != nil {
		return pm, err
	}
	cum := map[float64]int64{}
	sc := bufio.NewScanner(bytes.NewReader(b))
	for sc.Scan() {
		name, val, _ := strings.Cut(sc.Text(), " ")
		if !strings.HasPrefix(name, "maxembed_backend_read_latency_seconds_bucket{") {
			continue
		}
		_, le, ok := strings.Cut(name, `le="`)
		if !ok {
			continue
		}
		bound, err := strconv.ParseFloat(strings.TrimSuffix(le, `"}`), 64)
		if err != nil {
			continue
		}
		n, _ := strconv.ParseInt(val, 10, 64)
		cum[bound] += n
	}
	for bound := range cum {
		pm.latBounds = append(pm.latBounds, bound)
	}
	sort.Float64s(pm.latBounds)
	for _, bound := range pm.latBounds {
		pm.latCum = append(pm.latCum, cum[bound])
	}
	return pm, nil
}

// latencyQuantile returns the q-quantile, in microseconds, of the reads
// the histogram gained between two scrapes: the upper bound of the bucket
// the quantile falls in (the last finite bound for the overflow bucket).
func latencyQuantile(before, after promMetrics, q float64) float64 {
	n := len(after.latCum)
	if n == 0 || len(before.latCum) != n {
		return 0
	}
	total := after.latCum[n-1] - before.latCum[n-1]
	if total <= 0 {
		return 0
	}
	rank := max(int64(float64(total)*q+0.5), 1)
	for i := 0; i < n-1; i++ {
		if after.latCum[i]-before.latCum[i] >= rank {
			return after.latBounds[i] * 1e6
		}
	}
	return after.latBounds[max(n-2, 0)] * 1e6 // the +Inf bucket
}

// memStats is the runtime.MemStats dump at the foot of
// /debug/pprof/allocs?debug=1.
type memStats struct {
	mallocs, totalAlloc, numGC int64
	pauseNS                    []int64 // circular buffer of recent pauses
}

func (p *serverProc) memStats() (memStats, error) {
	var m memStats
	b, err := p.get("/debug/pprof/allocs?debug=1")
	if err != nil {
		return m, err
	}
	found := 0
	sc := bufio.NewScanner(bytes.NewReader(b))
	sc.Buffer(make([]byte, 0, 1<<20), 1<<24)
	for sc.Scan() {
		name, val, ok := strings.Cut(sc.Text(), " = ")
		if !ok {
			continue
		}
		switch name {
		case "# Mallocs":
			m.mallocs, _ = strconv.ParseInt(val, 10, 64)
			found++
		case "# TotalAlloc":
			m.totalAlloc, _ = strconv.ParseInt(val, 10, 64)
			found++
		case "# NumGC":
			m.numGC, _ = strconv.ParseInt(val, 10, 64)
			found++
		case "# PauseNs":
			for _, f := range strings.Fields(strings.Trim(val, "[]")) {
				n, _ := strconv.ParseInt(f, 10, 64)
				m.pauseNS = append(m.pauseNS, n)
			}
		}
	}
	if found != 3 {
		return m, errors.New("allocs profile carries no MemStats dump")
	}
	return m, nil
}

// gcPauseMS sums the pauses of the collections that ran between two
// dumps. The runtime keeps the last len(pauseNS) pauses; older ones of a
// longer interval are not counted.
func gcPauseMS(before, after memStats) float64 {
	n := int64(len(after.pauseNS))
	if n == 0 {
		return 0
	}
	var sum int64
	for gc := max(before.numGC, after.numGC-n) + 1; gc <= after.numGC; gc++ {
		sum += after.pauseNS[(gc+n-1)%n]
	}
	return float64(sum) / 1e6
}

// procUsage reads the server's CPU time and memory from /proc.
type procUsage struct {
	cpu          time.Duration // utime + stime
	rssKB, hwmKB int64
}

func (p *serverProc) usage() (procUsage, error) {
	return readUsage(p.cmd.Process.Pid)
}

func readUsage(pid int) (procUsage, error) {
	var u procUsage
	dir := filepath.Join("/proc", strconv.Itoa(pid))
	stat, err := os.ReadFile(filepath.Join(dir, "stat"))
	if err != nil {
		return u, err
	}
	// Fields after the parenthesised command name; utime and stime are
	// fields 14 and 15 of the line, so 11 and 12 after the ") ".
	i := bytes.LastIndexByte(stat, ')')
	f := strings.Fields(string(stat[i+1:]))
	if i < 0 || len(f) < 13 {
		return u, fmt.Errorf("unexpected /proc/%d/stat", pid)
	}
	ut, _ := strconv.ParseInt(f[11], 10, 64)
	st, _ := strconv.ParseInt(f[12], 10, 64)
	const clockTick = 100 // USER_HZ, fixed at 100 on Linux
	u.cpu = time.Duration(ut+st) * time.Second / clockTick
	status, err := os.ReadFile(filepath.Join(dir, "status"))
	if err != nil {
		return u, err
	}
	for _, line := range strings.Split(string(status), "\n") {
		name, val, _ := strings.Cut(line, ":")
		kb, _ := strconv.ParseInt(strings.TrimSuffix(strings.TrimSpace(val), " kB"), 10, 64)
		switch name {
		case "VmRSS":
			u.rssKB = kb
		case "VmHWM":
			u.hwmKB = kb
		}
	}
	return u, nil
}
