package serving

import "slices"

// BatchStats describes the combined pass of one coalesced batch lookup.
type BatchStats struct {
	// Queries is the number of queries coalesced into the batch.
	Queries int
	// SharedKeys counts distinct keys requested by more than one query of
	// the batch — the cross-query duplication §8.2 attributes batching's
	// bandwidth gains to.
	SharedKeys int
	// SharedPageReads counts page reads whose covered keys span more than
	// one query, i.e. reads the batch amortized across queries.
	SharedPageReads int
	// Combined is the single combined pass's stats: key, page, fault, and
	// software-time totals over the whole batch. Its latency is every
	// member query's latency (the batch completes as one unit on the
	// virtual clock).
	Combined QueryStats
}

// LatencyNS returns the batch's end-to-end virtual latency.
func (s BatchStats) LatencyNS() int64 { return s.Combined.LatencyNS() }

// BatchResult is the outcome of one coalesced batch lookup.
type BatchResult struct {
	// PerQuery[i] is query i's scattered result: exactly its distinct keys
	// (payload views for the ones served, FailedKeys for the ones that were
	// not),
	// equal to what an isolated Lookup of the same query returns modulo
	// cache state. Per-query stats attribute the shared work: PagesRead
	// counts pages that served at least one of the query's keys, PageShare
	// apportions shared reads fractionally, and latency is the batch
	// completion time. Recovery totals (Retries, ReadFaults, Corruptions,
	// ReplicaRescues) and SoloKeys are accounted batch-wide in
	// Stats.Combined, not per query. PerQuery itself and every slice in it
	// alias worker memory reused by the next lookup, each result's Refs
	// views included (Hold them to keep them longer).
	PerQuery []Result
	// Stats aggregates the combined pass.
	Stats BatchStats
}

// Per-key scatter flags (one byte per batch-distinct key).
const (
	kfFailed   uint8 = 1 << iota // key exhausted recovery
	kfHit                        // served from DRAM cache
	kfFallback                   // served by host-store read-through
)

// scatterScratch holds LookupBatch's reusable scatter state. Keys are
// interned to dense ids (keyIdx) so everything else is flat arrays —
// ownership is a CSR (ownOff/ownFlat) rather than a map of slices — and a
// steady-state batch allocates nothing.
type scatterScratch struct {
	keyIdx   map[Key]int32 // batch-distinct key → dense id
	ids      []int32       // dense id per entry of distinct
	ownCnt   []int32       // CSR: owners per dense id (counting pass)
	ownOff   []int32       // CSR: ownFlat[ownOff[id]:ownOff[id+1]]
	ownFlat  []int32       // CSR: owning query indexes, ascending
	cursor   []int32       // CSR fill cursors
	refIdx   []int32       // dense id → index into union.Keys, -1 unserved
	flags    []uint8       // dense id → kf* bits
	distinct []Key         // per-query distinct keys, flattened
	bounds   []int         // distinct[bounds[i]:bounds[i+1]] is query i's keys
	touch    []int32       // queries touched by the page being attributed
	flatKeys []Key
	flatRefs []SlotRef
	flatFail []Key
	pagesFor []int
	shareFor []float64
	hitsFor  []int
	failFor  []int
	fbFor    []int
	depthFor []int // per-query max-shard depth over its touched pages
	shardCnt []int // depth scratch: query-major [qi*numShards+s] counts
}

// resize returns s with length n, reusing its storage when that is large
// enough; zero clears the reused elements (a fresh slice is zero anyway).
func resize[T any](s []T, n int, zero bool) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	s = s[:n]
	if zero {
		clear(s)
	}
	return s
}

// LookupBatch serves several queries as one coalesced lookup: a single
// combined dedupe → cache probe → page selection → pipelined-read pass
// runs over the union of the queries' keys, so co-located and replicated
// embeddings are shared across queries (§8.2's cross-query duplication),
// and the outcome is scattered back per query — each query receives
// exactly its keys, its own FailedKeys, and attributed stats. All queries
// complete at the batch's completion time on the worker's virtual clock,
// and each records one latency sample. A batch of one degenerates to
// Lookup (no batching overhead on light traffic).
func (w *Worker) LookupBatch(queries [][]Key) (BatchResult, error) {
	var br BatchResult
	br.Stats.Queries = len(queries)
	switch len(queries) {
	case 0:
		return br, nil
	case 1:
		res, err := w.Lookup(queries[0])
		if err != nil {
			return br, err
		}
		w.perQuery = append(w.perQuery[:0], res)
		br.PerQuery = w.perQuery
		br.Stats.Combined = res.Stats
		return br, nil
	}

	w.batchBuf = w.batchBuf[:0]
	for _, q := range queries {
		w.batchBuf = append(w.batchBuf, q...)
	}
	union, err := w.lookupCombined(w.batchBuf, false)
	if err != nil {
		return br, err
	}
	union.Stats.BatchSize = len(queries)
	union.Stats.PageShare = float64(union.Stats.PagesRead)
	br.Stats.Combined = union.Stats

	br.Stats.SharedKeys = w.internOwners(queries)
	w.markOutcomes(union)
	br.Stats.SharedPageReads = w.attributePages(len(queries))
	br.PerQuery = w.scatterResults(queries, union)
	return br, nil
}

// internOwners interns each batch-distinct key to a dense id and builds the
// ownership CSR — which queries asked for each id — recording every member
// query's distinct keys with the history recorder on the way. w.seen is
// free again after lookupCombined and is reused for per-query dedup.
// Returns the number of keys more than one query asked for.
func (w *Worker) internOwners(queries [][]Key) (sharedKeys int) {
	sc := &w.scatter
	if sc.keyIdx == nil {
		sc.keyIdx = make(map[Key]int32, len(w.distinct))
	}
	clear(sc.keyIdx)
	sc.distinct = sc.distinct[:0]
	sc.ids = sc.ids[:0]
	sc.bounds = append(sc.bounds[:0], 0)
	nDist := 0
	for qi, q := range queries {
		clear(w.seen)
		for _, k := range q {
			if _, dup := w.seen[k]; dup {
				continue
			}
			w.seen[k] = false
			sc.distinct = append(sc.distinct, k)
			id, ok := sc.keyIdx[k]
			if !ok {
				id = int32(nDist)
				nDist++
				sc.keyIdx[k] = id
			}
			sc.ids = append(sc.ids, id)
		}
		sc.bounds = append(sc.bounds, len(sc.distinct))
		if rec := w.eng.cfg.Recorder; rec != nil {
			rec.Record(sc.distinct[sc.bounds[qi]:sc.bounds[qi+1]])
		}
	}

	// Count, prefix-sum, fill (query order, so each id's owner list is
	// ascending and deterministic).
	sc.ownCnt = resize(sc.ownCnt, nDist, true)
	for _, id := range sc.ids {
		sc.ownCnt[id]++
	}
	sc.ownOff = resize(sc.ownOff, nDist+1, true)
	for id, c := range sc.ownCnt {
		sc.ownOff[id+1] = sc.ownOff[id] + c
		if c > 1 {
			sharedKeys++
		}
	}
	sc.ownFlat = resize(sc.ownFlat, len(sc.ids), false)
	sc.cursor = resize(sc.cursor, nDist, true)
	for qi := range queries {
		for _, id := range sc.ids[sc.bounds[qi]:sc.bounds[qi+1]] {
			sc.ownFlat[sc.ownOff[id]+sc.cursor[id]] = int32(qi)
			sc.cursor[id]++
		}
	}
	return sharedKeys
}

// markOutcomes records each dense id's outcome in the combined pass: where
// its view sits in the union result (-1 = unserved) and its
// failed/hit/fallback flags.
func (w *Worker) markOutcomes(union Result) {
	sc := &w.scatter
	sc.refIdx = resize(sc.refIdx, len(sc.ownCnt), false)
	for i := range sc.refIdx {
		sc.refIdx[i] = -1
	}
	sc.flags = resize(sc.flags, len(sc.ownCnt), true)
	for i, k := range union.Keys {
		sc.refIdx[sc.keyIdx[k]] = int32(i)
	}
	for _, k := range union.FailedKeys {
		sc.flags[sc.keyIdx[k]] |= kfFailed
	}
	for _, k := range w.hitKeys {
		sc.flags[sc.keyIdx[k]] |= kfHit
	}
	for _, k := range w.fbKeys {
		// Keys the reroute sent to host-store read-through never touched a
		// page read; keys the store also failed carry kfFailed already.
		if id := sc.keyIdx[k]; sc.flags[id]&kfFailed == 0 {
			sc.flags[id] |= kfFallback
		}
	}
}

// attributePages charges each planned read to every query one of its
// covered keys belongs to, apportioned 1/q across those q queries so shares
// sum back to the batch total — a shared page that *failed* is still a read
// each sharer caused, so it is apportioned the same way (its keys are
// attributed through the kfFailed flag, not here). The same walk
// accumulates each query's per-shard read counts for its MaxShardDepth:
// the depth of a member query is over the pages that served (or failed)
// its keys, not the whole batch plan. Returns the number of reads whose
// keys spanned more than one query.
func (w *Worker) attributePages(nQueries int) (sharedReads int) {
	e, sc := w.eng, &w.scatter
	sc.pagesFor = resize(sc.pagesFor, nQueries, true)
	sc.shareFor = resize(sc.shareFor, nQueries, true)
	sc.depthFor = resize(sc.depthFor, nQueries, true)
	sc.shardCnt = resize(sc.shardCnt, nQueries*e.numShards, true)
	for _, pe := range w.plan {
		sc.touch = sc.touch[:0]
		for _, k := range w.coveredFlat[pe.from:pe.to] {
			id := sc.keyIdx[k]
			for _, qi := range sc.ownFlat[sc.ownOff[id]:sc.ownOff[id+1]] {
				if !slices.Contains(sc.touch, qi) {
					sc.touch = append(sc.touch, qi)
				}
			}
		}
		if len(sc.touch) > 1 {
			sharedReads++
		}
		share := 1 / float64(len(sc.touch))
		shard, _ := e.be.ShardOf(pe.page)
		for _, qi := range sc.touch {
			sc.pagesFor[qi]++
			sc.shareFor[qi] += share
			cnt := &sc.shardCnt[int(qi)*e.numShards+shard]
			*cnt++
			sc.depthFor[qi] = max(sc.depthFor[qi], *cnt)
		}
	}
	return sharedReads
}

// scatterResults carves each query's Result out of the union: it sizes the
// flat result arrays exactly, then hands every query a window of them
// (exact capacity keeps the backing arrays stable, so earlier windows never
// go stale), in the query's own distinct-key order, and closes its stats.
func (w *Worker) scatterResults(queries [][]Key, union Result) []Result {
	sc := &w.scatter
	sc.hitsFor = resize(sc.hitsFor, len(queries), true)
	sc.failFor = resize(sc.failFor, len(queries), true)
	sc.fbFor = resize(sc.fbFor, len(queries), true)
	totServed, totFailed := 0, 0
	for qi := range queries {
		for _, id := range sc.ids[sc.bounds[qi]:sc.bounds[qi+1]] {
			f := sc.flags[id]
			if f&kfFailed != 0 {
				sc.failFor[qi]++
				totFailed++
				continue
			}
			if f&kfHit != 0 {
				sc.hitsFor[qi]++
			}
			if f&kfFallback != 0 {
				sc.fbFor[qi]++
			}
			if sc.refIdx[id] >= 0 {
				totServed++
			}
		}
	}
	sc.flatKeys = resize(sc.flatKeys, totServed, false)[:0]
	sc.flatRefs = resize(sc.flatRefs, totServed, false)[:0]
	sc.flatFail = resize(sc.flatFail, totFailed, false)[:0]

	w.perQuery = resize(w.perQuery, len(queries), false)
	for qi := range queries {
		keyFrom, failFrom := len(sc.flatKeys), len(sc.flatFail)
		d := sc.distinct[sc.bounds[qi]:sc.bounds[qi+1]]
		for j, k := range d {
			id := sc.ids[sc.bounds[qi]+j]
			if sc.flags[id]&kfFailed != 0 {
				sc.flatFail = append(sc.flatFail, k)
			} else if ri := sc.refIdx[id]; ri >= 0 {
				sc.flatKeys = append(sc.flatKeys, k)
				sc.flatRefs = append(sc.flatRefs, union.Refs[ri])
			}
		}
		r := Result{
			Stats: QueryStats{
				Keys:           len(queries[qi]),
				DistinctKeys:   len(d),
				CacheHits:      sc.hitsFor[qi],
				PagesRead:      sc.pagesFor[qi],
				MaxShardDepth:  sc.depthFor[qi],
				FailedKeys:     sc.failFor[qi],
				Degraded:       sc.failFor[qi] > 0,
				StoreFallbacks: sc.fbFor[qi],
				// SSD-served keys exclude DRAM hits, failures, and host-store
				// read-through alike, matching the combined pass's accounting
				// (fallback payloads never crossed the device).
				UsefulFromSSD: len(d) - sc.hitsFor[qi] - sc.failFor[qi] - sc.fbFor[qi],
				Generation:    union.Stats.Generation,
				StartNS:       union.Stats.StartNS,
				EndNS:         union.Stats.EndNS,
			},
			Keys: sc.flatKeys[keyFrom:len(sc.flatKeys):len(sc.flatKeys)],
			Refs: sc.flatRefs[keyFrom:len(sc.flatRefs):len(sc.flatRefs)],
		}
		w.finish(&r.Stats, len(queries), sc.shareFor[qi])
		if failFrom < len(sc.flatFail) {
			r.FailedKeys = sc.flatFail[failFrom:len(sc.flatFail):len(sc.flatFail)]
		}
		w.perQuery[qi] = r
	}
	return w.perQuery
}

// RunBatched is Run with cross-request micro-batching: queries are grouped
// into batches of batchSize and each batch is served as one coalesced
// LookupBatch, with batches interleaved round-robin across workers. It is
// the closed-loop harness behind the batchsweep experiment — widening the
// per-pass key set raises valid embeddings per read and effective
// bandwidth (§8.2). batchSize ≤ 1 degenerates to Run.
func RunBatched(e *Engine, queries [][]Key, batchSize, workers int) (RunResult, error) {
	if batchSize <= 1 {
		return Run(e, queries, workers)
	}
	if workers < 1 {
		workers = 1
	}
	e.resetRunState()
	ws := make([]*Worker, workers)
	for i := range ws {
		ws[i] = e.NewWorker()
	}
	var res RunResult
	lats := make([]int64, 0, len(queries))
	for bi := 0; bi*batchSize < len(queries); bi++ {
		from := bi * batchSize
		to := min(from+batchSize, len(queries))
		br, err := ws[bi%workers].LookupBatch(queries[from:to])
		if err != nil {
			return res, err
		}
		st := br.Stats.Combined
		res.Queries += int64(br.Stats.Queries)
		res.Keys += int64(st.Keys)
		res.PagesRead += int64(st.PagesRead)
		res.UsefulKeys += int64(st.UsefulFromSSD)
		res.SoloKeys += int64(st.SoloKeys)
		res.CacheHits += int64(st.CacheHits)
		res.SortNS += st.SortNS
		res.SelectNS += st.SelectNS
		res.OtherSoftNS += st.OtherSoftNS
		res.SSDWaitNS += st.SSDWaitNS
		res.RecoveryNS += st.RecoveryNS
		res.Retries += int64(st.Retries)
		res.ReplicaRescues += int64(st.ReplicaRescues)
		res.Corruptions += int64(st.Corruptions)
		res.SharedKeys += int64(br.Stats.SharedKeys)
		res.SharedPageReads += int64(br.Stats.SharedPageReads)
		for _, r := range br.PerQuery {
			lats = append(lats, r.Stats.LatencyNS())
			res.FailedKeys += int64(r.Stats.FailedKeys)
			if r.Stats.Degraded {
				res.DegradedQueries++
			}
		}
	}
	finalizeRun(e, &res, ws, lats)
	return res, nil
}
