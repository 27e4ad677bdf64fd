package serving

import (
	"context"
	"fmt"

	"maxembed/internal/layout"
	"maxembed/internal/ssd"
)

// ScrubbableStore is a PageSource whose slots can be individually
// verified and repaired in place — the at-rest image a scrubber patrols.
// *store.Store and *store.Sharded implement it; payload-less and
// file-backed sources do not and cannot be scrubbed.
type ScrubbableStore interface {
	PageSource
	// SlotBytes returns the raw bytes of slot i on page p (aliasing the
	// image; position-independent, so valid as repair source elsewhere).
	SlotBytes(p layout.PageID, i int) ([]byte, error)
	// PutSlotBytes overwrites slot i of page p with one slot's bytes.
	PutSlotBytes(p layout.PageID, i int, src []byte) error
	// VerifySlot checks slot i of page p against its stored checksum,
	// returning the slot's key.
	VerifySlot(p layout.PageID, i int) (layout.Key, error)
}

// ScrubConfig parameterizes one scrub sweep.
type ScrubConfig struct {
	// PagesPerSec is the token-bucket rate limit in pages per virtual
	// second; the scrubber never reads faster than this, which is what
	// keeps serving traffic's tail latency intact while the sweep shares
	// the drives. Default 10000 (≈ 40 MB/s of 4 KiB pages).
	PagesPerSec float64
	// Repair enables in-place repair of corrupt slots from a replica of
	// the same key on another page (default). DetectOnly turns the sweep
	// into a pure audit.
	DetectOnly bool
	// Progress, when set, is invoked after every scanned page with the
	// cumulative scanned count and the total page population — the hook
	// the operational surface reports live progress through.
	Progress func(scanned, total int)
}

// ScrubReport summarizes one sweep.
type ScrubReport struct {
	// PagesScanned is the number of pages read and slot-verified;
	// PagesSkipped were on failed/rebuilding shards (their content is the
	// rebuilder's problem); PagesUnread hit a device read fault and could
	// not be verified this sweep.
	PagesScanned int `json:"pages_scanned"`
	PagesSkipped int `json:"pages_skipped"`
	PagesUnread  int `json:"pages_unread"`
	// SlotsVerified is the number of occupied slots checksummed.
	SlotsVerified int `json:"slots_verified"`
	// ReadFaults counts device-level faults the sweep's own reads hit.
	ReadFaults int `json:"read_faults"`
	// LatentSlots counts slots whose stored checksum did not verify —
	// silent at-rest corruption found before any query tripped on it.
	LatentSlots int `json:"latent_slots"`
	// RepairedSlots of those were rewritten from a verified replica slot;
	// UnrepairableSlots had no intact replica anywhere.
	RepairedSlots     int `json:"repaired_slots"`
	UnrepairableSlots int `json:"unrepairable_slots"`
	// PerShardLatent breaks LatentSlots down by owning shard.
	PerShardLatent []int `json:"per_shard_latent,omitempty"`
	// StartNS/EndNS bound the sweep on the scrubber's virtual clock.
	StartNS int64 `json:"-"`
	EndNS   int64 `json:"-"`
}

// DurationNS returns the sweep's virtual duration.
func (r ScrubReport) DurationNS() int64 { return r.EndNS - r.StartNS }

// Scrub sweeps every page of the engine's layout once: each page is read
// through the backend's queue pairs at the configured token-bucket rate
// (so the sweep contends for the same channels and buses as serving
// traffic, but never floods them), every occupied slot is verified
// against its CRC32C, and corrupt slots are repaired from a verified
// replica of the same key on a live shard. Latent-error counts are
// credited to the owning shard's health account; read outcomes feed the
// shard fault windows like any other read. Pages on failed or rebuilding
// shards are skipped.
//
// The engine's store must be a ScrubbableStore. Scrub is synchronous in
// virtual time and safe to run concurrently with serving workers.
func Scrub(ctx context.Context, e *Engine, cfg ScrubConfig) (ScrubReport, error) {
	var rep ScrubReport
	scr, ok := e.cfg.Store.(ScrubbableStore)
	if !ok {
		return rep, fmt.Errorf("serving: store %T is not scrubbable", e.cfg.Store)
	}
	if cfg.PagesPerSec <= 0 {
		cfg.PagesPerSec = 10000
	}
	lay := e.cfg.Layout
	be := e.be
	hr, _ := be.(ssd.HealthReporter)
	arr, _ := be.(*ssd.Array)

	mq := ssd.NewMultiQueue(be)
	t := be.Frontier()
	rep.StartNS = t
	rep.PerShardLatent = make([]int, be.NumShards())
	interval := int64(1e9 / cfg.PagesPerSec)
	pace := t

	total := lay.NumPages()
	for p := 0; p < total; p++ {
		if err := ctx.Err(); err != nil {
			rep.EndNS = t
			return rep, err
		}
		page := layout.PageID(p)
		shard, _ := be.ShardOf(page)
		if hr != nil && !hr.ShardState(shard).Live() {
			rep.PagesSkipped++
			continue
		}

		// Pace the sweep: consecutive page reads start at least one rate
		// interval apart on the contended clock, with no catch-up bursts —
		// a sweep slowed by serving traffic stays slowed rather than
		// flooding the drives to get back on schedule.
		if t < pace {
			t = pace
		}
		pace = t + interval
		issue := mq.Submit(page, t)
		done, comps := mq.Drain(issue)
		t = done
		var comp ssd.Completion
		if len(comps) > 0 {
			comp = comps[0]
		}
		if comp.Err != nil || comp.Corrupt {
			// The sweep's own read faulted; the page stays unverified this
			// sweep (and the fault has already entered the shard's window).
			rep.ReadFaults++
			rep.PagesUnread++
			if cfg.Progress != nil {
				cfg.Progress(rep.PagesScanned+rep.PagesUnread, total)
			}
			continue
		}

		keys := lay.Pages[p]
		rep.PagesScanned++
		rep.SlotsVerified += len(keys)
		for i, k := range keys {
			if _, err := scr.VerifySlot(page, i); err == nil {
				continue
			}
			rep.LatentSlots++
			rep.PerShardLatent[shard]++
			if arr != nil {
				arr.NoteLatent(shard, 1)
			}
			if cfg.DetectOnly {
				continue
			}
			if t2, ok := repairSlot(e, scr, mq, page, i, k, shard, hr, t); ok {
				t = t2
				rep.RepairedSlots++
			} else {
				rep.UnrepairableSlots++
			}
		}
		if cfg.Progress != nil {
			cfg.Progress(rep.PagesScanned+rep.PagesUnread, total)
		}
	}
	rep.EndNS = t
	return rep, nil
}

// repairSlot rewrites the corrupt slot i (key k) of page p from the first
// replica page holding a verified copy of k, charging the donor read and
// the owner's page rewrite. Returns the advanced clock and whether a
// repair happened.
func repairSlot(e *Engine, scr ScrubbableStore, mq *ssd.MultiQueue, p layout.PageID, i int, k Key, shard int, hr ssd.HealthReporter, t int64) (int64, bool) {
	lay := e.cfg.Layout
	for _, cand := range e.idx.Candidates(k) {
		if cand == p {
			continue
		}
		if cs, _ := e.be.ShardOf(cand); hr != nil && !hr.ShardState(cs).Live() {
			continue
		}
		j := slotIndexOf(lay.Pages[cand], k)
		if j < 0 {
			continue
		}
		if _, err := scr.VerifySlot(cand, j); err != nil {
			continue // donor is rotten too; keep looking
		}
		src, err := scr.SlotBytes(cand, j)
		if err != nil {
			continue
		}
		// Charge the donor page read and the owner's rewrite: repair is IO.
		issue := mq.Submit(cand, t)
		done, comps := mq.Drain(issue)
		t = done
		if len(comps) > 0 && (comps[0].Err != nil || comps[0].Corrupt) {
			continue // donor read faulted in flight; keep looking
		}
		_, local := e.be.ShardOf(p)
		t = e.be.Shard(shard).Write(local, t)
		if err := scr.PutSlotBytes(p, i, src); err != nil {
			return t, false
		}
		return t, true
	}
	return t, false
}

// slotIndexOf returns k's slot index within one page's key list, or -1.
func slotIndexOf(keys []Key, k Key) int {
	for i, kk := range keys {
		if kk == k {
			return i
		}
	}
	return -1
}
