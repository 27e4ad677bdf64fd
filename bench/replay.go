package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"time"

	"maxembed"
	"maxembed/internal/cache"
	"maxembed/internal/embedding"
	"maxembed/internal/hypergraph"
	"maxembed/internal/metrics"
	"maxembed/internal/placement"
	"maxembed/internal/selection"
	"maxembed/internal/server"
	"maxembed/internal/ssd"
	"maxembed/internal/store"
)

// span is one timed call into a layer. Spans of one query share Query;
// Parent is the ID of the span that caused this one, 0 for a root.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Name   string `json:"name"`
	Query  int    `json:"query"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer keeps spans in memory until the run ends.
type tracer struct {
	Workload string `json:"workload"`
	Seed     int64  `json:"seed"`
	Queries  int    `json:"queries"` // live queries each pass replayed
	Spans    []span `json:"spans"`
	epoch    time.Time
}

// begin opens a span and returns its ID.
func (t *tracer) begin(name string, query, parent int) int {
	t.Spans = append(t.Spans, span{ID: len(t.Spans) + 1, Parent: parent, Name: name, Query: query,
		Start: int64(time.Since(t.epoch))})
	return len(t.Spans)
}

func (t *tracer) end(id int) { t.Spans[id-1].End = int64(time.Since(t.epoch)) }

// perQueryUS returns the time the spans of one name took, in µs per
// replayed query.
func (t *tracer) perQueryUS(name string) float64 {
	var sum int64
	for i := range t.Spans {
		if t.Spans[i].Name == name {
			sum += t.Spans[i].End - t.Spans[i].Start
		}
	}
	return float64(sum) / 1e3 / float64(t.Queries)
}

// layerSpans are the calls Worker.Lookup makes, in its order.
var layerSpans = []string{spanProbe, spanSelect, spanSubmit, spanDrain, spanExtract, spanFill}

// layersUS is the time per query the layer-by-layer pass spent inside the
// layers' own functions.
func (t *tracer) layersUS() float64 {
	sum := 0.0
	for _, name := range layerSpans {
		sum += t.perQueryUS(name)
	}
	return sum
}

// printBreakdown writes the measured counterpart of the paper's Fig 15:
// where the time of one request goes, layer by layer. A layer's self time
// is its span minus the spans of the layers below it; measured from
// outside the program, that is a subtraction between passes.
func (t *tracer) printBreakdown(w io.Writer, overheadPct float64) {
	serve, lookup := t.perQueryUS(spanServe), t.perQueryUS(spanLookup)
	fmt.Fprintf(w, "   %s: time of one request by layer, %d queries replayed (recording spans cost %.1f%%):\n", t.Workload, t.Queries, overheadPct)
	row := func(name string, v float64) {
		fmt.Fprintf(w, "     %-42s %9.1f us %5.1f%%\n", name, v, 100*ratio(v, serve))
	}
	row("server self (decode, coalesce, encode)", serve-lookup)
	row("serving self (dedupe, plan, assemble)", lookup-t.layersUS())
	for _, name := range layerSpans {
		row(name, t.perQueryUS(name))
	}
	row(spanServe+" (total)", serve)
}

func (t *tracer) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	b, err := json.Marshal(t)
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}

// Span names: one per exported call the replay times.
const (
	spanServe   = "server.serve_http"
	spanLookup  = "serving.lookup"
	spanLayers  = "bench.layers" // root of one query's layer-by-layer pass
	spanProbe   = "cache.probe"
	spanSelect  = "selection.one_pass"
	spanSubmit  = "ssd.submit"
	spanDrain   = "ssd.drain"
	spanExtract = "store.verify_extract"
	spanFill    = "cache.put"
)

// discard is an http.ResponseWriter that counts the body and keeps nothing.
type discard struct {
	h      http.Header
	status int
	n      int64
}

func (d *discard) Header() http.Header         { return d.h }
func (d *discard) WriteHeader(status int)      { d.status = status }
func (d *discard) Write(b []byte) (int, error) { d.n += int64(len(b)); return len(b), nil }

const (
	pageSize = 4096
	// replayBlock is how many consecutive live queries one kind of call
	// gets before the replay moves on to the next kind.
	replayBlock = 64
	// batchSize is the coalescer's default -batch-max.
	batchSize = 8
	// recordsPerGoroutine sizes the metrics.Recorder microbenchmark.
	recordsPerGoroutine = 200_000
)

// openTimed opens the workload's configuration in this process over
// shard files in dataDir, after timing the build stages one by one:
// maxembed.Open runs the same three and open.rest_s is what it adds (file
// write, backend open, index build).
func openTimed(ctx context.Context, in *inputs, dataDir string, m metricSet) (*maxembed.DB, error) {
	s, hist := in.spec, in.history.Queries

	start := time.Now()
	g, err := hypergraph.FromQueries(in.numItems, hist)
	if err != nil {
		return nil, err
	}
	tGraph := time.Since(start)
	start = time.Now()
	lay, err := placement.Build(placement.StrategyMaxEmbed, g, placement.Options{
		Capacity:         embedding.PageCapacity(pageSize, embedDim),
		ReplicationRatio: replication,
		Seed:             serverSeed,
		Shards:           s.Devices,
	})
	if err != nil {
		return nil, err
	}
	tPlace := time.Since(start)
	start = time.Now()
	if s.Devices > 1 {
		_, err = store.BuildSharded(lay, in.syn, pageSize, s.Devices)
	} else {
		_, err = store.Build(lay, in.syn, pageSize)
	}
	if err != nil {
		return nil, err
	}
	tStore := time.Since(start)
	if err := ctx.Err(); err != nil {
		return nil, err
	}

	start = time.Now()
	db, err := maxembed.Open(in.numItems, hist,
		maxembed.WithReplicationRatio(replication),
		maxembed.WithCacheRatio(s.Cache),
		maxembed.WithIndexLimit(indexLimit),
		maxembed.WithSeed(serverSeed),
		maxembed.WithDevices(s.Devices),
		maxembed.WithFileBackend(dataDir))
	if err != nil {
		return nil, err
	}
	tOpen := time.Since(start)
	m.put("hypergraph.build_s", tGraph.Seconds())
	m.put("placement.build_s", tPlace.Seconds())
	m.put("store.build_s", tStore.Seconds())
	m.put("open.rest_s", (tOpen - tGraph - tPlace - tStore).Seconds())
	m.put("placement.replica_ratio", db.LayoutStats().ReplicationRatio)
	if err := flushFiles(dataDir); err != nil {
		db.Close()
		return nil, err
	}
	return db, nil
}

// replayInProcess opens the workload's configuration in this process over
// file-backed shards and replays live queries on one goroutine through
// each exported call the table in README.md lists: Session.Lookup without
// and with spans, Session.LookupBatch of 8 and Handler.ServeHTTP, and
// layer by layer through cache, selection, ssd and store on objects of
// the benchmark's own.
//
// The four engine calls share the engine's DRAM cache, so they cannot
// replay the same queries: whichever went second would find them cached.
// Instead the kinds take turns, one block of replayBlock fresh queries
// each, and so all see the same mix of queries at the same cache age. The
// layer-by-layer pass owns its cache; it follows every block to keep that
// cache in step with the engine's, but reads pages and is timed only on
// the blocks the traced Session.Lookup served: same keys, same cache age.
func replayInProcess(ctx context.Context, cfg runConfig, se *session, m metricSet) (*tracer, error) {
	in, s := se.in, se.in.spec
	db, err := openTimed(ctx, in, se.dataDir, m)
	if err != nil {
		return nil, err
	}
	defer db.Close()

	// cfg.replay queries per kind of call, in whole blocks, and whatever
	// the live half has left for warming up.
	blocks := min(cfg.replay, len(in.live)/8) / replayBlock * 4
	if blocks == 0 {
		return nil, fmt.Errorf("live half of %d queries is too short to replay", len(in.live))
	}
	timed, warm := in.live[:blocks*replayBlock], in.live[blocks*replayBlock:]
	nq := blocks / 4 * replayBlock // queries per kind
	tr := &tracer{Workload: s.Name, Seed: cfg.seed, Queries: nq, epoch: time.Now()}
	sess := db.NewSession()
	lp := newLayerPass(db, in)

	// Warm both caches in step, for nq queries and on until the engine's
	// cache is full, so the timed blocks see a cache in steady state.
	full := func() bool { c := db.Engine().Cache(); return c == nil || c.Len() >= c.Capacity() }
	for i, q := range warm {
		if i >= nq && full() {
			break
		}
		if _, err := sess.Lookup(q); err != nil {
			return nil, err
		}
		lp.touch(q)
	}

	opt := server.WithoutCoalescing()
	if s.BatchMax > 1 {
		opt = server.WithCoalescing(s.BatchMax, 250*time.Microsecond) // the server's -batch-wait default
	}
	h := server.NewDynamic(db.Handle(), db.Backend(), opt)
	defer h.Close()
	w := &discard{h: http.Header{}}

	var plain, traced, batched time.Duration
	var lookupMem, serveMem memDelta
	for b := 0; b < blocks; b++ {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		first := b * replayBlock
		block := timed[first : first+replayBlock]
		switch b % 4 {
		case 0: // Session.Lookup, no spans
			lookupMem.begin()
			start := time.Now()
			for _, q := range block {
				if _, err := sess.Lookup(q); err != nil {
					return nil, err
				}
			}
			plain += time.Since(start)
			lookupMem.end()
		case 1: // Session.Lookup, one span each
			start := time.Now()
			for i, q := range block {
				id := tr.begin(spanLookup, first+i, 0)
				_, err := sess.Lookup(q)
				tr.end(id)
				if err != nil {
					return nil, err
				}
			}
			traced += time.Since(start)
		case 2: // Session.LookupBatch, the coalescer's call
			start := time.Now()
			for i := 0; i+batchSize <= len(block); i += batchSize {
				if _, err := sess.LookupBatch(block[i : i+batchSize]); err != nil {
					return nil, err
				}
			}
			batched += time.Since(start)
		case 3: // Handler.ServeHTTP into a discarding writer
			reqs := make([]*http.Request, len(block))
			for i := range block {
				reqs[i] = httptest.NewRequest(http.MethodPost, "/v1/lookup", bytes.NewReader(in.bodies[first+i]))
				if s.Binary {
					reqs[i].Header.Set("Accept", "application/octet-stream")
				}
			}
			serveMem.begin()
			for i, req := range reqs {
				w.status = 0
				clear(w.h)
				id := tr.begin(spanServe, first+i, 0)
				h.ServeHTTP(w, req)
				tr.end(id)
				if w.status != http.StatusOK {
					return nil, fmt.Errorf("ServeHTTP of live query %d: status %d", first+i, w.status)
				}
			}
			serveMem.end()
		}
		for i, q := range block {
			if b%4 != 1 {
				lp.touch(q)
			} else if err := lp.run(tr, first+i, q); err != nil {
				return nil, err
			}
		}
	}

	serve, lookup := tr.perQueryUS(spanServe), tr.perQueryUS(spanLookup)
	n := float64(nq)
	m.put("bench.trace_overhead_pct", 100*float64(traced-plain)/float64(plain))
	m.put("serving.allocs_per_lookup", float64(lookupMem.mallocs)/n)
	m.put("serving.bytes_per_lookup", float64(lookupMem.bytes)/n)
	m.put("serving.batch_us_per_query", us(batched)/n)
	m.put("server.allocs_per_req", float64(serveMem.mallocs)/n)
	m.put("server.resp_bytes", float64(w.n)/n)
	m.put("server.serve_us", serve)
	m.put("server.self_us", serve-lookup)
	m.put("serving.lookup_us", lookup)
	m.put("serving.self_us", lookup-tr.layersUS())
	m.put("selection.ns_per_query", float64(lp.selectNS)/n)
	m.put("selection.invert_scans_per_query", float64(lp.invertScans)/n)
	m.put("cache.get_ns", ratio(float64(lp.probeNS), float64(lp.gets)))
	m.put("cache.put_ns", ratio(float64(lp.fillNS), float64(lp.puts)))
	m.put("ssd.submit_ns_per_read", ratio(float64(lp.submitNS), float64(lp.reads)))
	m.put("ssd.drain_wait_us_per_query", float64(lp.drainNS)/1e3/n)
	m.put("store.verify_extract_ns_per_key", ratio(float64(lp.extractNS), float64(lp.extracted)))
	m.put("metrics.record_ns", recordNS())
	return tr, nil
}

// memDelta sums heap allocations over several begin/end intervals.
type memDelta struct {
	mallocs, bytes uint64
	at             runtime.MemStats
}

func (d *memDelta) begin() { runtime.ReadMemStats(&d.at) }

func (d *memDelta) end() {
	var now runtime.MemStats
	runtime.ReadMemStats(&now)
	d.mallocs += now.Mallocs - d.at.Mallocs
	d.bytes += now.TotalAlloc - d.at.TotalAlloc
}

// layerPass replays queries layer by layer, outside the engine: the
// benchmark's own cache of the workload's capacity, a Selector over the
// engine's index, a queue pair of the engine's backend and the store's
// slot verifier, called in the order Worker.Lookup calls them.
type layerPass struct {
	cache *cache.Cache[uint32, []float32]
	sel   *selection.Selector
	qp    ssd.QueuePair
	lay   [][]uint32 // keys per page, for the slot count of a page image

	seen, hit []int32 // == epoch: key was probed / was a cache hit in this query
	epoch     int32
	pages     []selection.PageID
	pageAt    map[selection.PageID]int
	covOff    []int // covered[covOff[i]:covOff[i+1]] are the keys page i serves
	covered   []uint32
	payloads  []kv
	now       int64 // virtual clock handed to the queue pair

	probeNS, selectNS, submitNS, drainNS, extractNS, fillNS int64
	gets, puts, reads, extracted, invertScans               int64
}

func newLayerPass(db *maxembed.DB, in *inputs) *layerPass {
	eng := db.Engine()
	lp := &layerPass{
		sel:  selection.NewSelector(eng.Index()),
		qp:   ssd.NewQueuePairFor(db.Backend()),
		lay:  eng.Layout().Pages,
		seen: make([]int32, in.numItems), hit: make([]int32, in.numItems),
		pageAt: map[selection.PageID]int{},
	}
	if n := int(in.spec.Cache * float64(in.numItems)); n > 0 {
		lp.cache = cache.New[uint32, []float32](n, cache.Uint32Hasher)
	}
	return lp
}

// run replays one query layer by layer, recording a root span and one
// child per layer call and adding the durations to the totals.
func (lp *layerPass) run(tr *tracer, qi int, query []uint32) error {
	root := tr.begin(spanLayers, qi, 0)
	defer tr.end(root)
	timed := func(name string, total *int64, f func()) {
		id := tr.begin(name, qi, root)
		f()
		tr.end(id)
		*total += tr.Spans[id-1].End - tr.Spans[id-1].Start
	}
	lp.epoch++
	if lp.cache != nil {
		timed(spanProbe, &lp.probeNS, func() {
			for _, k := range query {
				if lp.seen[k] == lp.epoch {
					continue
				}
				lp.seen[k] = lp.epoch
				lp.gets++
				if _, ok := lp.cache.Get(k); ok {
					lp.hit[k] = lp.epoch
				}
			}
		})
	}
	var st selection.Stats
	var err error
	timed(spanSelect, &lp.selectNS, func() {
		lp.pages, lp.covOff, lp.covered = lp.pages[:0], append(lp.covOff[:0], 0), lp.covered[:0]
		st, err = lp.sel.OnePass(query, func(k uint32) bool { return lp.hit[k] == lp.epoch },
			func(p selection.PageID, covered []uint32, _ selection.Stats) {
				lp.pages = append(lp.pages, p)
				lp.covered = append(lp.covered, covered...)
				lp.covOff = append(lp.covOff, len(lp.covered))
			})
	})
	if err != nil {
		return err
	}
	timed(spanSubmit, &lp.submitNS, func() {
		for _, p := range lp.pages {
			lp.now = lp.qp.Submit(p, lp.now)
		}
	})
	var comps []ssd.Completion
	timed(spanDrain, &lp.drainNS, func() { lp.now, comps = lp.qp.Drain(lp.now) })
	clear(lp.pageAt)
	for i, p := range lp.pages {
		lp.pageAt[p] = i
	}
	lp.payloads = lp.payloads[:0]
	timed(spanExtract, &lp.extractNS, func() {
		for _, c := range comps {
			if c.Err != nil || c.Buf == nil {
				err = fmt.Errorf("read of page %d failed: %v", c.Page, c.Err)
				continue
			}
			img := c.Buf.Bytes()
			i := lp.pageAt[c.Page]
			for _, k := range lp.covered[lp.covOff[i]:lp.covOff[i+1]] {
				off, found, verr := store.VerifySlotInImage(img, embedDim, k, len(lp.lay[c.Page]))
				if verr != nil || !found {
					err = fmt.Errorf("page %d does not verify key %d: %v", c.Page, k, verr)
					continue
				}
				if lp.cache != nil {
					lp.payloads = append(lp.payloads, kv{k, append([]byte(nil), img[off:off+4*embedDim]...)})
				}
			}
			c.Buf.Release()
		}
	})
	if err != nil {
		return err
	}
	lp.reads += int64(len(lp.pages))
	lp.extracted += int64(len(lp.covered))
	lp.invertScans += int64(st.InvertScans)
	if lp.cache != nil {
		// The engine decodes a miss into a vector of its own and hands it
		// to the cache; the decode is the benchmark's here, so only Put
		// is timed.
		vecs := make([][]float32, len(lp.payloads))
		for i, p := range lp.payloads {
			vecs[i], _ = embedding.DecodeVector(p.payload, embedDim, nil)
		}
		timed(spanFill, &lp.fillNS, func() {
			for i, p := range lp.payloads {
				lp.cache.Put(p.key, vecs[i])
			}
		})
		lp.puts += int64(len(lp.payloads))
	}
	return nil
}

// kv is one verified slot on its way into the cache.
type kv struct {
	key     uint32
	payload []byte
}

// touch moves the cache the way run would, without reading or timing
// anything: every distinct key is probed and a miss is filled.
func (lp *layerPass) touch(query []uint32) {
	if lp.cache == nil {
		return
	}
	lp.epoch++
	for _, k := range query {
		if lp.seen[k] == lp.epoch {
			continue
		}
		lp.seen[k] = lp.epoch
		if _, ok := lp.cache.Get(k); !ok {
			lp.cache.Put(k, nil)
		}
	}
}

// recordNS times metrics.Recorder.Record called from one goroutine per
// CPU at once, the way request goroutines call it.
func recordNS() float64 {
	var rec metrics.Recorder
	workers := runtime.NumCPU()
	var wg sync.WaitGroup
	start := time.Now()
	for g := 0; g < workers; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := int64(0); i < recordsPerGoroutine; i++ {
				rec.Record(i)
			}
		}()
	}
	wg.Wait()
	return float64(time.Since(start)) / float64(recordsPerGoroutine)
}
