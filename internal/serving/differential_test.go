package serving

import (
	"bytes"
	"fmt"
	"slices"
	"testing"

	"maxembed/internal/layout"
	"maxembed/internal/placement"
	"maxembed/internal/ssd"
	"maxembed/internal/store"
)

// backendPair is one layout behind both backends — a simulated array and
// shard files read with real I/O — with the same faults on each: shard 0
// declared failed and, when corrupt is set, every read of one page on a
// live shard delivering a damaged image.
type backendPair struct {
	sim, file *Engine
	corrupt   layout.PageID
}

// corruptPageModel flags every read of one (shard-local) page as corrupted
// in flight.
type corruptPageModel struct{ local ssd.PageID }

func (m corruptPageModel) Judge(_ int64, p ssd.PageID) ssd.Fault {
	return ssd.Fault{Corrupt: p == m.local}
}

func (f *fixture) backendPair(t *testing.T, corrupt bool, mutate func(*Config)) backendPair {
	t.Helper()
	const shards = 3
	sh, err := store.BuildSharded(f.lay, f.syn, 4096, shards)
	if err != nil {
		t.Fatal(err)
	}
	arr := mustTestArray(t, ssd.P5800X, shards)
	bp := backendPair{}
	if corrupt {
		// The home page of the first traced key that lives off shard 0: a
		// page the trace certainly reads.
		for _, k := range f.trace.Queries[0] {
			if s, _ := arr.ShardOf(f.lay.Home[k]); s != 0 {
				bp.corrupt = f.lay.Home[k]
				break
			}
		}
		// The file backend reads what is on disk, so its shard file gets
		// the page with every slot damaged; the host store is put back.
		flip := func() {
			for i := range f.lay.Pages[bp.corrupt] {
				if err := sh.CorruptSlot(bp.corrupt, i); err != nil {
					t.Fatal(err)
				}
			}
		}
		flip()
		defer flip()
		s, local := arr.ShardOf(bp.corrupt)
		arr.SetShardFaultModel(s, corruptPageModel{local})
	}
	fb := fileBackendOver(t, sh, ssd.FileBackendConfig{})
	arr.FailShard(0)
	fb.FailShard(0)
	over := func(be ssd.Backend) *Engine {
		cfg := Config{Layout: f.lay, Backend: be, Store: sh, Pipeline: true}
		if mutate != nil {
			mutate(&cfg)
		}
		e, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		return e
	}
	bp.sim, bp.file = over(arr), over(fb)
	return bp
}

// servedQuery is one query's outcome, copied out of worker scratch.
type servedQuery struct {
	keys, failed []Key
	payloads     []byte // the views' bytes, in keys order
	pages        int
}

// serveTrace runs queries through one worker of e — isolated Lookups, or
// LookupBatch over groups of batch — checking every payload against the
// synthesizer on the way.
func (f *fixture) serveTrace(t *testing.T, e *Engine, queries [][]Key, batch int) []servedQuery {
	t.Helper()
	w := e.NewWorker()
	var out []servedQuery
	var want []float32
	collect := func(r Result) {
		sq := servedQuery{
			keys:   slices.Clone(r.Keys),
			failed: slices.Clone(r.FailedKeys),
			pages:  r.Stats.PagesRead,
		}
		for i, k := range r.Keys {
			want = f.syn.Vector(k, want[:0])
			if got := r.AppendVector(i, nil); !slices.Equal(got, want) {
				t.Fatalf("query %d key %d: payload differs from the source table", len(out), k)
			}
			sq.payloads = append(sq.payloads, r.Refs[i].Payload...)
		}
		out = append(out, sq)
	}
	for from := 0; from < len(queries); from += batch {
		if batch == 1 {
			res, err := w.Lookup(queries[from])
			if err != nil {
				t.Fatal(err)
			}
			collect(res)
			continue
		}
		br, err := w.LookupBatch(queries[from:min(from+batch, len(queries))])
		if err != nil {
			t.Fatal(err)
		}
		for _, r := range br.PerQuery {
			collect(r)
		}
	}
	return out
}

// TestSimAndFileResultsIdentical is the differential behind "one read
// path": the same layout, trace and faults through the simulator and
// through real file I/O must give the same answer in every observable —
// key order, failed keys, payload bytes, pages read and the cache's own
// counters — cacheless and cached, isolated and batched. Both cache sizes
// fill within a few queries, so admission is compared with free slots and
// without.
func TestSimAndFileResultsIdentical(t *testing.T) {
	f := newFixture(t, placement.StrategyMaxEmbed, 0.3)
	queries := f.trace.Queries[:320]
	for _, cacheShare := range []float64{0, 0.1, 0.02} {
		for _, batch := range []int{1, 8} {
			t.Run(fmt.Sprintf("cache=%v/batch=%d", cacheShare, batch), func(t *testing.T) {
				bp := f.backendPair(t, true, func(c *Config) {
					c.CacheEntries = int(cacheShare * float64(f.trace.NumItems))
				})
				sim := f.serveTrace(t, bp.sim, queries, batch)
				file := f.serveTrace(t, bp.file, queries, batch)
				for qi := range sim {
					s, fl := sim[qi], file[qi]
					if !slices.Equal(s.keys, fl.keys) || !slices.Equal(s.failed, fl.failed) {
						t.Fatalf("query %d: keys %v failed %v on the simulator, %v / %v on files",
							qi, s.keys, s.failed, fl.keys, fl.failed)
					}
					if !bytes.Equal(s.payloads, fl.payloads) {
						t.Fatalf("query %d: payload bytes differ", qi)
					}
					if s.pages != fl.pages {
						t.Fatalf("query %d: %d pages read on the simulator, %d on files", qi, s.pages, fl.pages)
					}
				}
				if cacheShare > 0 {
					ss, fs := bp.sim.Cache().Stats(), bp.file.Cache().Stats()
					if ss != fs {
						t.Fatalf("cache stats %+v on the simulator, %+v on files", ss, fs)
					}
					if ss.Evictions == 0 || ss.Bypassed == 0 {
						t.Fatalf("cache stats %+v: the cache never ran full", ss)
					}
				}
				for name, e := range map[string]*Engine{"sim": bp.sim, "file": bp.file} {
					if e.Recovery.Corruptions.Load() == 0 || e.Recovery.ShardReroutes.Load() == 0 {
						t.Fatalf("%s: %d corruptions of page %d, %d reroutes: the faults were not exercised",
							name, e.Recovery.Corruptions.Load(), bp.corrupt, e.Recovery.ShardReroutes.Load())
					}
				}
			})
		}
	}
}

// TestRerouteNeverPlansAPageTwice: with a shard failed, a key rerouted to a
// page the plan already reads must join that read. Planned twice, the page
// came back as two completions for one plan slot — one redundant read on
// the simulator; on a multi-shard file backend one buffer leaked and the
// other was released twice, which panicked the next lookup.
func TestRerouteNeverPlansAPageTwice(t *testing.T) {
	f := newFixture(t, placement.StrategyMaxEmbed, 0.5)
	bp := f.backendPair(t, false, nil)
	var pages [2]int
	for side, e := range []*Engine{bp.sim, bp.file} {
		w := e.NewWorker()
		var want []float32
		for qi, q := range f.trace.Queries[:400] {
			res, err := w.Lookup(q)
			if err != nil {
				t.Fatal(err)
			}
			seen := map[layout.PageID]bool{}
			for _, pe := range w.plan {
				if seen[pe.page] {
					t.Fatalf("engine %d query %d: page %d planned twice", side, qi, pe.page)
				}
				seen[pe.page] = true
			}
			if len(res.FailedKeys) != 0 || len(res.Keys) != res.Stats.DistinctKeys {
				t.Fatalf("engine %d query %d: %d of %d keys served, failed %v",
					side, qi, len(res.Keys), res.Stats.DistinctKeys, res.FailedKeys)
			}
			for i, k := range res.Keys {
				want = f.syn.Vector(k, want[:0])
				if !slices.Equal(res.AppendVector(i, nil), want) {
					t.Fatalf("engine %d query %d key %d: wrong payload", side, qi, k)
				}
			}
			pages[side] += res.Stats.PagesRead
		}
		if e.Recovery.ShardReroutes.Load() == 0 {
			t.Fatalf("engine %d: no reroutes with a failed shard", side)
		}
	}
	if pages[0] != pages[1] {
		t.Fatalf("%d pages read on the simulator, %d on files", pages[0], pages[1])
	}
}
