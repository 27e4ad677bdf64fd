package serving

import (
	"context"
	"fmt"
	"slices"

	"maxembed/internal/layout"
	"maxembed/internal/ssd"
)

// RebuildConfig parameterizes a live shard rebuild onto the hot spare.
type RebuildConfig struct {
	// PagesPerSec is the pacing limit on the rebuild stream in pages per
	// virtual second — the rebuild-rate knob that trades MTTR against
	// tail-latency impact on serving traffic sharing the surviving
	// drives. Consecutive pages start at least 1/PagesPerSec apart on the
	// rebuilder's clock with no catch-up bursts: when contention makes a
	// page slower than the budget, the lost time is not made back, so the
	// instantaneous I/O rate never exceeds the cap. Default 50000
	// (≈ 200 MB/s of 4 KiB pages).
	PagesPerSec float64
	// Progress, when set, is invoked at least once per streamed page — and
	// again between paced donor reads within a page — with the cumulative
	// page count, the shard's local page population, and the rebuilder's
	// virtual clock. The clock is always the next instant the rebuild will
	// submit I/O at, which lets a caller co-simulate serving traffic
	// deterministically against the repair window (the rebuildsweep
	// experiment paces closed-loop workers off it); the operational
	// surface just reports the counts.
	Progress func(copied, total int, nowNS int64)
}

// RebuildReport summarizes one rebuild.
type RebuildReport struct {
	// Shard is the rebuilt member index; LocalPages its page population.
	Shard      int `json:"shard"`
	LocalPages int `json:"local_pages"`
	// FromSource pages were read intact off the failing device itself;
	// FromReplicas were reconstructed by reading replica pages on
	// surviving shards; FromStore fell back to host-side
	// re-materialization from the pristine store image (no device read —
	// the offline builder's copy) because some key on the page had no
	// live replica.
	FromSource   int `json:"from_source"`
	FromReplicas int `json:"from_replicas"`
	FromStore    int `json:"from_store"`
	// SourceReadFaults counts failed reads against the failing device
	// during the rebuild (each also feeds its fault window).
	SourceReadFaults int `json:"source_read_faults"`
	// StartNS/EndNS bound the rebuild on its virtual clock; the
	// difference is the mean-time-to-repair the rebuildsweep experiment
	// measures.
	StartNS int64 `json:"-"`
	EndNS   int64 `json:"-"`
}

// DurationNS returns the rebuild's virtual duration (the MTTR).
func (r RebuildReport) DurationNS() int64 { return r.EndNS - r.StartNS }

// RebuildShard streams shard failed's local pages onto the array's hot
// spare and swaps the spare into the stripe, returning the NEW array with
// redundancy restored. For each page it tries the failing device first
// (partial failures often leave most pages readable), falls back to
// replica pages on surviving shards, and finally to the host's store
// image. Writes to the spare are token-bucket rate-limited so the rebuild
// shares the drives with serving traffic at a bounded tail-latency cost.
//
// The shard is claimed via MarkRebuilding (so selection keeps routing
// around it and two rebuilders cannot race); on success the swap is
// atomic from the caller's perspective — the caller must then build a new
// engine over the returned array and publish it through the Swappable
// generation machinery, exactly like a layout refresh. On error or
// cancellation the shard is returned to the failed state and the spare is
// left attached.
func RebuildShard(ctx context.Context, e *Engine, failed int, cfg RebuildConfig) (*ssd.Array, RebuildReport, error) {
	var rep RebuildReport
	arr, ok := e.be.(*ssd.Array)
	if !ok {
		return nil, rep, fmt.Errorf("serving: backend %T is not a rebuildable array", e.be)
	}
	if failed < 0 || failed >= arr.NumShards() {
		return nil, rep, fmt.Errorf("serving: rebuild shard %d of %d", failed, arr.NumShards())
	}
	spare := arr.Spare()
	if spare == nil {
		return nil, rep, fmt.Errorf("serving: rebuild shard %d: no hot spare attached", failed)
	}
	if cfg.PagesPerSec <= 0 {
		cfg.PagesPerSec = 50000
	}
	if !arr.MarkRebuilding(failed) {
		return nil, rep, fmt.Errorf("serving: shard %d is already rebuilding", failed)
	}

	lay := e.cfg.Layout
	numPages := lay.NumPages()
	t := arr.Frontier()
	rep.Shard = failed
	rep.StartNS = t
	interval := int64(1e9 / cfg.PagesPerSec)

	var pageBuf []byte
	if e.cfg.Store != nil {
		pageBuf = make([]byte, e.cfg.Store.PageSize())
	}
	totalLocal := localPagesOf(arr, failed, numPages)
	tick := func(now int64) {
		if cfg.Progress != nil {
			cfg.Progress(rep.LocalPages, totalLocal, now)
		}
	}
	for local := layout.PageID(0); ; local++ {
		global := arr.GlobalOf(failed, local)
		if int(global) >= numPages {
			break
		}
		if err := ctx.Err(); err != nil {
			arr.FailShard(failed) // release the claim; still broken
			rep.EndNS = t
			return nil, rep, err
		}
		rep.LocalPages++
		pageStart := t

		// Try the failing device itself: a shard declared failed on its
		// fault window may still return most pages.
		done, fault := arr.Shard(failed).ReadDetailed(local, t)
		t = done
		if fault.Err == nil && !fault.Corrupt {
			rep.FromSource++
		} else {
			rep.SourceReadFaults++
			if done, ok := readReplicas(e, arr, failed, global, t, interval, tick); ok {
				t = done
				rep.FromReplicas++
			} else {
				// No live replica covers every key of this page: the host
				// re-materializes it from the pristine store image the
				// offline build left behind. No device read is charged —
				// only the spare write below.
				if pageBuf != nil {
					if err := e.cfg.Store.ReadPage(global, pageBuf); err != nil {
						arr.FailShard(failed)
						rep.EndNS = t
						return nil, rep, fmt.Errorf("serving: rebuild page %d: %w", global, err)
					}
				}
				rep.FromStore++
			}
		}

		t = spare.Write(local, t)
		// Pace the stream: the next page may not start before this page's
		// start plus the rate interval, measured on the contended clock, so
		// the rebuild never bursts past its budget. Applying the floor here
		// — before Progress fires — means the reported clock is the next
		// submission instant, and a co-simulated serving flow can fill the
		// idle gap before the rebuild claims any device time in it.
		if floor := pageStart + interval; t < floor {
			t = floor
		}
		tick(t)
	}

	nb, err := arr.SwapShard(failed, nil)
	if err != nil {
		arr.FailShard(failed)
		rep.EndNS = t
		return nil, rep, err
	}
	rep.EndNS = t
	return nb, rep, nil
}

// readReplicas reconstructs global page g's content from replica pages on
// live shards: every key of the page must have a candidate page on a live
// shard other than failed, and each distinct donor page is charged one
// read. The donor reads are spread evenly across the page's pacing
// interval rather than issued back-to-back — with tick fired at each paced
// submission instant — so a replica-heavy page never bursts a multi-read
// shadow into co-running serving traffic. Reports the advanced clock and
// whether reconstruction succeeded.
func readReplicas(e *Engine, arr *ssd.Array, failed int, g layout.PageID, t, interval int64, tick func(int64)) (int64, bool) {
	lay := e.cfg.Layout
	var donors []layout.PageID
	for _, k := range lay.Pages[g] {
		found := layout.PageID(0)
		ok := false
		for _, cand := range e.idx.Candidates(k) {
			if cand == g {
				continue
			}
			cs, _ := arr.ShardOf(cand)
			if cs == failed || !arr.ShardState(cs).Live() {
				continue
			}
			found, ok = cand, true
			break
		}
		if !ok {
			return t, false
		}
		if !slices.Contains(donors, found) {
			donors = append(donors, found)
		}
	}
	spacing := int64(0)
	if len(donors) > 0 {
		spacing = interval / int64(len(donors)+1)
	}
	for i, d := range donors {
		if i > 0 {
			// Let a co-simulated serving flow fill the paced gap before
			// this donor read claims device time in it.
			tick(t)
		}
		start := t
		ds, dl := arr.ShardOf(d)
		done, fault := arr.Shard(ds).ReadDetailed(dl, t)
		t = done
		if fault.Err != nil || fault.Corrupt {
			// A donor faulted mid-reconstruction; let the caller fall back
			// to the host store rather than chaining recovery here.
			return t, false
		}
		if floor := start + spacing; t < floor {
			t = floor
		}
	}
	return t, true
}

// localPagesOf returns shard i's local page population under the array's
// striping of numPages global pages.
func localPagesOf(arr *ssd.Array, i, numPages int) int {
	n := arr.NumShards()
	return (numPages - i + n - 1) / n
}
