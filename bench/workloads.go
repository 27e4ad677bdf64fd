package main

import (
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strconv"

	"maxembed/internal/embedding"
	"maxembed/internal/workload"
)

// Settings shared by every workload. The placement/synthesizer seed is the
// server's own and fixed, so the client can recompute any vector; the
// workload seed only ever reaches the trace generator.
const (
	serverSeed  = 1
	embedDim    = 64
	replication = 0.2
	indexLimit  = 10
	// verifyEvery is the deterministic sample of timed replies that is
	// decoded in full and compared with the synthesizer (query index mod
	// verifyEvery == 0); every reply gets the cheap structural checks.
	verifyEvery = 8
)

// spec is one traffic mix: a trace shape, the server configuration it is
// served under and the reply encoding the client asks for.
type spec struct {
	Name string
	Why  string
	// Profile and Scale shape the trace (Scale multiplies the profile's
	// items, queries and communities).
	Profile workload.Profile
	Scale   float64
	// Cache is the server's -cache fraction; BatchMax its -batch-max
	// (1 = isolated Worker.LookupCtx, no coalescer); Devices its -devices.
	Cache    float64
	BatchMax int
	Devices  int
	// Binary asks for MXE1 frames instead of JSON.
	Binary bool
	// Conns is the number of keep-alive connections the one client process
	// drives, in the closed and the open loop alike.
	Conns int
	// RateLo and RateHi are the open-loop arrival rates (requests/s) of
	// the traced run, frozen from the seed commit at about 0.4× and 0.75×
	// of its closed-loop throughput; see README.md. They are never
	// recomputed at run time: a fixed rate is what makes latency
	// comparable across commits.
	RateLo, RateHi float64
}

// criteoScale cuts the Criteo trace so that a server set-up takes about
// two seconds: the contract's cap on a run leaves room for three set-ups
// and the load only at that size.
const criteoScale = 0.4

// specs lists the four workloads in the order they run.
//
// Connections: four (two per CPU of the reference box) where the server
// serialises lookups itself or has no cache: with two, the coalescer locks
// into one of two stable rhythms for a whole run (both requests in one
// batch every time, or strictly alternating), 45% apart in lookups/s and
// in CPU per lookup. One for hot-short-iso, the only workload with a DRAM
// cache under concurrent isolated workers: there the seed commit drops a
// key from about one 200 reply in a million (Worker.Lookup probes the
// cache with Get and the selector's skip function probes it again with
// Contains; a concurrent Put in between makes the key neither a hit nor a
// read), and a workload on which operations fail cannot be gated.
var specs = []spec{
	{
		Name:    "cold-json",
		Why:     "no DRAM cache, coalesced, JSON: every key goes to SSD, so selection, ssd, store, the coalescer and the JSON encoder do the work",
		Profile: workload.Criteo, Scale: criteoScale,
		Cache: 0, BatchMax: 8, Devices: 1, Binary: false, Conns: 4,
		RateLo: 1000, RateHi: 1700,
	},
	{
		Name:    "cached-bin",
		Why:     "10% DRAM cache, coalesced, MXE1: cache hits and miss-fill evictions halve SSD work and the binary encoder replaces JSON",
		Profile: workload.Criteo, Scale: criteoScale,
		Cache: 0.1, BatchMax: 8, Devices: 1, Binary: true, Conns: 4,
		RateLo: 1100, RateHi: 2000,
	},
	{
		Name:    "hot-short-iso",
		Why:     "short skewed queries, 30% cache, no coalescer, JSON: fixed per-request cost dominates and I/O-path changes should not show",
		Profile: workload.AmazonM2, Scale: 1.0,
		Cache: 0.3, BatchMax: 1, Devices: 1, Binary: false, Conns: 1,
		RateLo: 1100, RateHi: 2000,
	},
	{
		Name:    "sharded-cold",
		Why:     "no cache, no coalescer, four shard files, MXE1: per-shard rings, MultiQueue merge and shard-aware placement carry the load",
		Profile: workload.Criteo, Scale: criteoScale,
		Cache: 0, BatchMax: 1, Devices: 4, Binary: true, Conns: 4,
		RateLo: 1200, RateHi: 2300,
	},
}

func specByName(name string) (spec, bool) {
	for _, s := range specs {
		if s.Name == name {
			return s, true
		}
	}
	return spec{}, false
}

// serverArgs returns the maxembed-server flags of the workload.
func (s spec) serverArgs(addr, traceFile, dataDir string) []string {
	return []string{
		"-addr", addr,
		"-trace", traceFile,
		"-backend", "file:" + dataDir,
		"-pprof",
		"-seed", strconv.Itoa(serverSeed),
		"-ratio", fmt.Sprint(replication),
		"-k", strconv.Itoa(indexLimit),
		"-record-last", "0",
		"-cache", fmt.Sprint(s.Cache),
		"-batch-max", strconv.Itoa(s.BatchMax),
		"-devices", strconv.Itoa(s.Devices),
	}
}

// inputs is everything a run derives from (workload, seed): the history
// half the server builds its placement from and the live half the client
// sends, with request bodies and expected key counts precomputed so the
// timed loop does no encoding work.
type inputs struct {
	spec     spec
	numItems int
	history  *workload.Trace
	live     [][]uint32
	bodies   [][]byte // JSON request body per live query
	distinct []int    // distinct keys per live query
	syn      *embedding.Synthesizer
}

// makeInputs generates the trace for (spec, seed) at scale×spec.Scale and
// splits it in half: history for the server, live for the load.
func makeInputs(s spec, seed int64, scale float64) (*inputs, error) {
	tr, err := workload.GenerateSeeded(s.Profile.Scaled(s.Scale*scale), seed)
	if err != nil {
		return nil, fmt.Errorf("generating %s trace: %w", s.Name, err)
	}
	hist, live := tr.Split(0.5)
	if len(live.Queries) == 0 {
		return nil, fmt.Errorf("%s: trace at scale %g has no live queries", s.Name, s.Scale*scale)
	}
	syn, err := embedding.NewSynthesizer(embedDim, serverSeed)
	if err != nil {
		return nil, err
	}
	in := &inputs{spec: s, numItems: tr.NumItems, history: hist, live: live.Queries, syn: syn}
	in.bodies = make([][]byte, len(in.live))
	in.distinct = make([]int, len(in.live))
	var scratch []uint32
	for i, q := range in.live {
		b := append(make([]byte, 0, 16+8*len(q)), `{"keys":[`...)
		for j, k := range q {
			if j > 0 {
				b = append(b, ',')
			}
			b = strconv.AppendUint(b, uint64(k), 10)
		}
		in.bodies[i] = append(b, ']', '}')
		scratch = append(scratch[:0], q...)
		sort.Slice(scratch, func(a, b int) bool { return scratch[a] < scratch[b] })
		n := 0
		for j, k := range scratch {
			if j == 0 || k != scratch[j-1] {
				n++
			}
		}
		in.distinct[i] = n
	}
	return in, nil
}

// writeHistory encodes the history half into dir and returns the file the
// server is pointed at. The server never sees the seed or the live half.
func (in *inputs) writeHistory(dir string) (string, error) {
	path := filepath.Join(dir, "history.trace")
	f, err := os.Create(path)
	if err != nil {
		return "", err
	}
	if err := in.history.Encode(f); err != nil {
		f.Close()
		return "", fmt.Errorf("encoding history trace: %w", err)
	}
	if err := f.Close(); err != nil {
		return "", err
	}
	return path, nil
}

// tableBytes and cacheBytes size the embedding table and the DRAM cache of
// the workload, for the run header.
func (in *inputs) tableBytes() int64 {
	return int64(in.numItems) * int64(embedding.BytesPerVector(embedDim))
}

func (in *inputs) cacheBytes() int64 {
	return int64(in.spec.Cache*float64(in.numItems)) * int64(embedding.BytesPerVector(embedDim))
}
