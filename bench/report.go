package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"runtime"
	"strings"
)

// contractResult is the object the driver reads from the last line of
// stdout: the metrics of the kind of run it asked for, value and unit
// only.
type contractResult struct {
	Correct   bool                      `json:"correct"`
	Attempted int                       `json:"attempted"`
	Failed    int                       `json:"failed"`
	Metrics   map[string]contractMetric `json:"metrics"`
}

type contractMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func contractLine(r *result) contractResult {
	c := contractResult{Correct: r.correct(), Attempted: r.Attempted, Failed: r.Failed,
		Metrics: map[string]contractMetric{}}
	for name, m := range r.Metrics {
		c.Metrics[name] = contractMetric{Value: m.Value, Unit: m.Unit}
	}
	return c
}

// defsOf returns the catalogue the result's metrics came from, in order.
func defsOf(r *result) []metricDef {
	if _, ok := r.Metrics[endToEnd[0].Name]; ok {
		return endToEnd
	}
	return perLayer
}

// printTable writes the human-readable table of one run: every metric by
// name with its unit, and for windowed metrics the window count, the
// smallest per-window sample count and the window spread.
func printTable(w io.Writer, r *result) {
	fmt.Fprintf(w, "\n== %s  seed=%d  executor=%s direct_io=%s  table=%.1f MiB cache=%.1f MiB\n",
		r.Workload, r.Seed, r.Executor, r.DirectIO, float64(r.TableBytes)/(1<<20), float64(r.CacheBytes)/(1<<20))
	fmt.Fprintf(w, "   attempted=%d failed=%d verified=%d correct=%v\n", r.Attempted, r.Failed, r.Verified, r.correct())
	if r.FirstFail != "" {
		fmt.Fprintf(w, "   failures %v, first: %s\n", r.FailKinds, r.FirstFail)
	}
	for _, d := range defsOf(r) {
		m := r.Metrics[d.Name]
		fmt.Fprintf(w, "   %-34s %14.4f %-10s", d.Name, m.Value, d.Unit)
		if len(m.Windows) > 1 {
			fmt.Fprintf(w, " median of %d windows, spread %.1f%%", len(m.Windows), 100*m.spread())
			if m.MinSamples > 0 {
				fmt.Fprintf(w, ", ≥%d samples each", m.MinSamples)
			}
		}
		fmt.Fprintln(w)
	}
}

// document is the full output of a run over several workloads: a header
// that says what machine and build the numbers belong to, and per
// workload the untraced and the traced result.
type document struct {
	Header    header           `json:"header"`
	Workloads []*workloadEntry `json:"workloads"`
}

type header struct {
	GitSHA     string  `json:"git_sha"`
	Seed       int64   `json:"seed"`
	Seconds    float64 `json:"seconds"`
	Scale      float64 `json:"scale"`
	NumCPU     int     `json:"nproc"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	GoVersion  string  `json:"go_version"`
	Kernel     string  `json:"kernel"`
	// Executor and DirectIO are what the server's file backend reported;
	// documents that differ in either measure different I/O paths and
	// are not comparable.
	Executor string `json:"executor"`
	DirectIO string `json:"direct_io"`
}

type workloadEntry struct {
	Name       string  `json:"name"`
	TableBytes int64   `json:"table_bytes"`
	CacheBytes int64   `json:"cache_bytes"`
	EndToEnd   *result `json:"end_to_end,omitempty"`
	PerLayer   *result `json:"per_layer,omitempty"`
}

func newDocument(cfg runConfig) *document {
	h := header{
		GitSHA: "unknown", Seed: cfg.seed, Seconds: cfg.seconds, Scale: cfg.scale,
		NumCPU: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), GoVersion: runtime.Version(),
	}
	if b, err := exec.Command("git", "rev-parse", "HEAD").Output(); err == nil {
		h.GitSHA = strings.TrimSpace(string(b))
	}
	if b, err := os.ReadFile("/proc/sys/kernel/osrelease"); err == nil {
		h.Kernel = strings.TrimSpace(string(b))
	}
	return &document{Header: h}
}

func (d *document) add(r *result, traced bool) {
	d.Header.Executor, d.Header.DirectIO = r.Executor, r.DirectIO
	var e *workloadEntry
	for _, w := range d.Workloads {
		if w.Name == r.Workload {
			e = w
		}
	}
	if e == nil {
		e = &workloadEntry{Name: r.Workload, TableBytes: r.TableBytes, CacheBytes: r.CacheBytes}
		d.Workloads = append(d.Workloads, e)
	}
	if traced {
		e.PerLayer = r
	} else {
		e.EndToEnd = r
	}
}

func (d *document) correct() bool {
	for _, w := range d.Workloads {
		for _, r := range []*result{w.EndToEnd, w.PerLayer} {
			if r != nil && !r.correct() {
				return false
			}
		}
	}
	return true
}

// write encodes the document to path, or to stdout when path is empty.
func (d *document) write(path string) error {
	b, err := json.MarshalIndent(d, "", "  ")
	if err != nil {
		return err
	}
	b = append(b, '\n')
	if path == "" {
		_, err = os.Stdout.Write(b)
		return err
	}
	return os.WriteFile(path, b, 0o644)
}

func readDocument(path string) (*document, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var d document
	if err := json.Unmarshal(b, &d); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &d, nil
}
