package serving

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
	// (vectors for the ones served, FailedKeys for the ones that were not),
	// equal to what an isolated Lookup of the same query returns modulo
	// cache state. Per-query stats attribute the shared work: PagesRead
	// counts pages that served at least one of the query's keys, PageShare
	// apportions shared reads fractionally, and latency is the batch
	// completion time. Recovery totals (Retries, ReadFaults, Corruptions,
	// ReplicaRescues) are accounted batch-wide in Stats.Combined, not per
	// query. PerQuery itself and every slice in it alias worker memory
	// reused by the next lookup; on real-I/O backends each result's Refs
	// views follow the same lifetime (Retain to hold longer).
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
	keyIdx    map[Key]int32 // batch-distinct key → dense id
	ids       []int32       // dense id per entry of distinct
	ownCnt    []int32       // CSR: owners per dense id (counting pass)
	ownOff    []int32       // CSR: ownFlat[ownOff[id]:ownOff[id+1]]
	ownFlat   []int32       // CSR: owning query indexes, ascending
	cursor    []int32       // CSR fill cursors
	vecIdx    []int32       // dense id → index into union.Keys, -1 unserved
	flags     []uint8       // dense id → kf* bits
	distinct  []Key         // per-query distinct keys, flattened
	bounds    []int         // distinct[bounds[i]:bounds[i+1]] is query i's keys
	touch     []int32       // queries touched by the page being attributed
	flatKeys  []Key
	flatVecs  [][]float32
	flatRefs  []SlotRef
	flatFail  []Key
	pagesFor  []int
	shareFor  []float64
	hitsFor   []int
	servedFor []int
	failFor   []int
	fbFor     []int
	depthFor  []int // per-query max-shard depth over its touched pages
	shardCnt  []int // depth scratch: query-major [qi*numShards+s] counts
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
		if cap(w.perQuery) < 1 {
			w.perQuery = make([]Result, 0, 8)
		}
		w.perQuery = append(w.perQuery[:0], res)
		br.PerQuery = w.perQuery
		br.Stats.Combined = res.Stats
		return br, nil
	}

	total := 0
	for _, q := range queries {
		total += len(q)
	}
	if cap(w.batchBuf) < total {
		w.batchBuf = make([]Key, 0, total)
	}
	w.batchBuf = w.batchBuf[:0]
	for _, q := range queries {
		w.batchBuf = append(w.batchBuf, q...)
	}
	union, err := w.lookupCombined(w.batchBuf, false)
	if err != nil {
		return br, err
	}
	e := w.eng
	union.Stats.BatchSize = len(queries)
	union.Stats.PageShare = float64(union.Stats.PagesRead)
	br.Stats.Combined = union.Stats

	// Ownership pass: intern each batch-distinct key to a dense id and
	// record, per (query, distinct key) pair, which query owns it. w.seen
	// is free again after lookupCombined; reuse it for per-query dedup.
	sc := &w.scatter
	if sc.keyIdx == nil {
		sc.keyIdx = make(map[Key]int32, union.Stats.DistinctKeys)
	}
	clear(sc.keyIdx)
	sc.distinct = sc.distinct[:0]
	sc.ids = sc.ids[:0]
	sc.bounds = append(sc.bounds[:0], 0)
	nDist := int32(0)
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
				id = nDist
				nDist++
				sc.keyIdx[k] = id
			}
			sc.ids = append(sc.ids, id)
		}
		sc.bounds = append(sc.bounds, len(sc.distinct))
		if e.cfg.Recorder != nil {
			e.cfg.Recorder.Record(sc.distinct[sc.bounds[qi]:sc.bounds[qi+1]])
		}
	}

	// Build the ownership CSR: count, prefix-sum, fill (query order, so
	// each id's owner list is ascending and deterministic).
	sc.ownCnt = resizeInt32s(sc.ownCnt, int(nDist))
	for _, id := range sc.ids {
		sc.ownCnt[id]++
	}
	for _, c := range sc.ownCnt {
		if c > 1 {
			br.Stats.SharedKeys++
		}
	}
	sc.ownOff = resizeInt32s(sc.ownOff, int(nDist)+1)
	for id, c := range sc.ownCnt {
		sc.ownOff[id+1] = sc.ownOff[id] + c
	}
	if cap(sc.ownFlat) < len(sc.ids) {
		sc.ownFlat = make([]int32, len(sc.ids))
	}
	sc.ownFlat = sc.ownFlat[:len(sc.ids)]
	sc.cursor = resizeInt32s(sc.cursor, int(nDist))
	for qi := range queries {
		for _, id := range sc.ids[sc.bounds[qi]:sc.bounds[qi+1]] {
			sc.ownFlat[sc.ownOff[id]+sc.cursor[id]] = int32(qi)
			sc.cursor[id]++
		}
	}

	// Per-key outcome: where each dense id's vector sits in the union
	// result (-1 = unserved) and its failed/hit/fallback flags.
	sc.vecIdx = resizeInt32s(sc.vecIdx, int(nDist))
	for i := range sc.vecIdx {
		sc.vecIdx[i] = -1
	}
	sc.flags = resizeBytes(sc.flags, int(nDist))
	for i, k := range union.Keys {
		if id, ok := sc.keyIdx[k]; ok {
			sc.vecIdx[id] = int32(i)
		}
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

	// Page attribution: each planned read is charged to every query one of
	// its covered keys belongs to, and apportioned 1/q across those q
	// queries so shares sum back to the batch total — a shared page that
	// *failed* is still a read each sharer caused, so it is apportioned the
	// same way (its keys are attributed through sc.failed, not here).
	// The same walk accumulates each query's per-shard read counts for its
	// MaxShardDepth: the depth of a member query is over the pages that
	// served (or failed) its keys, not the whole batch plan.
	sc.pagesFor = resizeInts(sc.pagesFor, len(queries))
	sc.shareFor = resizeFloats(sc.shareFor, len(queries))
	sc.depthFor = resizeInts(sc.depthFor, len(queries))
	sc.shardCnt = resizeInts(sc.shardCnt, len(queries)*e.numShards)
	for _, pe := range w.plan {
		sc.touch = sc.touch[:0]
		for _, k := range w.coveredFlat[pe.from:pe.to] {
			id := sc.keyIdx[k]
			for _, qi := range sc.ownFlat[sc.ownOff[id]:sc.ownOff[id+1]] {
				if !containsQ(sc.touch, qi) {
					sc.touch = append(sc.touch, qi)
				}
			}
		}
		if len(sc.touch) == 0 {
			continue
		}
		if len(sc.touch) > 1 {
			br.Stats.SharedPageReads++
		}
		share := 1 / float64(len(sc.touch))
		shard, _ := e.be.ShardOf(pe.page)
		for _, qi := range sc.touch {
			sc.pagesFor[qi]++
			sc.shareFor[qi] += share
			cnt := &sc.shardCnt[int(qi)*e.numShards+shard]
			*cnt++
			if *cnt > sc.depthFor[qi] {
				sc.depthFor[qi] = *cnt
			}
		}
	}

	// Scatter: size the flat result arrays exactly, then carve per-query
	// windows out of them (exact capacity keeps the backing arrays stable,
	// so earlier windows never go stale).
	sc.hitsFor = resizeInts(sc.hitsFor, len(queries))
	sc.servedFor = resizeInts(sc.servedFor, len(queries))
	sc.failFor = resizeInts(sc.failFor, len(queries))
	sc.fbFor = resizeInts(sc.fbFor, len(queries))
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
			if sc.vecIdx[id] >= 0 {
				sc.servedFor[qi]++
				totServed++
			}
		}
	}
	sc.flatKeys = resizeKeys(sc.flatKeys, totServed)[:0]
	sc.flatVecs = resizeVecs(sc.flatVecs, totServed)[:0]
	sc.flatFail = resizeKeys(sc.flatFail, totFailed)[:0]
	withRefs := union.Refs != nil
	if withRefs {
		sc.flatRefs = resizeRefs(sc.flatRefs, totServed)[:0]
	}

	if cap(w.perQuery) < len(queries) {
		w.perQuery = make([]Result, len(queries))
	}
	w.perQuery = w.perQuery[:len(queries)]
	br.PerQuery = w.perQuery
	for qi := range queries {
		keyFrom, failFrom := len(sc.flatKeys), len(sc.flatFail)
		d := sc.distinct[sc.bounds[qi]:sc.bounds[qi+1]]
		for j, k := range d {
			id := sc.ids[sc.bounds[qi]+j]
			if sc.flags[id]&kfFailed != 0 {
				sc.flatFail = append(sc.flatFail, k)
				continue
			}
			if vi := sc.vecIdx[id]; vi >= 0 {
				sc.flatKeys = append(sc.flatKeys, k)
				sc.flatVecs = append(sc.flatVecs, union.Vectors[vi])
				if withRefs {
					sc.flatRefs = append(sc.flatRefs, union.Refs[vi])
				}
			}
		}
		st := QueryStats{
			Keys:           len(queries[qi]),
			DistinctKeys:   len(d),
			CacheHits:      sc.hitsFor[qi],
			PagesRead:      sc.pagesFor[qi],
			PageShare:      sc.shareFor[qi],
			MaxShardDepth:  sc.depthFor[qi],
			BatchSize:      len(queries),
			FailedKeys:     sc.failFor[qi],
			Degraded:       sc.failFor[qi] > 0,
			StoreFallbacks: sc.fbFor[qi],
			// SSD-served keys exclude DRAM hits, failures, and host-store
			// read-through alike, matching the combined pass's accounting
			// (fallback vectors never crossed the device).
			UsefulFromSSD: len(d) - sc.hitsFor[qi] - sc.failFor[qi] - sc.fbFor[qi],
			Generation:    union.Stats.Generation,
			StartNS:       union.Stats.StartNS,
			EndNS:         union.Stats.EndNS,
		}
		if st.Degraded {
			e.Recovery.DegradedQueries.Inc()
			e.Recovery.FailedKeys.Add(int64(st.FailedKeys))
		}
		e.SpreadDepth.Add(st.MaxShardDepth)
		e.Latency.Record(st.LatencyNS())
		r := Result{
			Stats:   st,
			Keys:    sc.flatKeys[keyFrom:len(sc.flatKeys):len(sc.flatKeys)],
			Vectors: sc.flatVecs[keyFrom:len(sc.flatVecs):len(sc.flatVecs)],
		}
		if withRefs {
			r.Refs = sc.flatRefs[keyFrom:len(sc.flatRefs):len(sc.flatRefs)]
		}
		if failFrom < len(sc.flatFail) {
			r.FailedKeys = sc.flatFail[failFrom:len(sc.flatFail):len(sc.flatFail)]
		}
		br.PerQuery[qi] = r
	}
	return br, nil
}

// containsQ reports whether qs contains qi.
func containsQ(qs []int32, qi int32) bool {
	for _, q := range qs {
		if q == qi {
			return true
		}
	}
	return false
}

func resizeInts(s []int, n int) []int {
	if cap(s) < n {
		return make([]int, n)
	}
	s = s[:n]
	for i := range s {
		s[i] = 0
	}
	return s
}

func resizeFloats(s []float64, n int) []float64 {
	if cap(s) < n {
		return make([]float64, n)
	}
	s = s[:n]
	for i := range s {
		s[i] = 0
	}
	return s
}

func resizeInt32s(s []int32, n int) []int32 {
	if cap(s) < n {
		return make([]int32, n)
	}
	s = s[:n]
	for i := range s {
		s[i] = 0
	}
	return s
}

func resizeBytes(s []uint8, n int) []uint8 {
	if cap(s) < n {
		return make([]uint8, n)
	}
	s = s[:n]
	for i := range s {
		s[i] = 0
	}
	return s
}

func resizeRefs(s []SlotRef, n int) []SlotRef {
	if cap(s) < n {
		return make([]SlotRef, n)
	}
	return s[:n]
}

func resizeKeys(s []Key, n int) []Key {
	if cap(s) < n {
		return make([]Key, n)
	}
	return s[:n]
}

func resizeVecs(s [][]float32, n int) [][]float32 {
	if cap(s) < n {
		return make([][]float32, n)
	}
	return s[:n]
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
			res.FailedKeys += int64(r.Stats.FailedKeys)
			if r.Stats.Degraded {
				res.DegradedQueries++
			}
		}
	}
	finalizeRun(e, &res, ws)
	return res, nil
}
