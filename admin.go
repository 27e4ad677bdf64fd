package maxembed

import (
	"context"
	"errors"
	"fmt"

	"maxembed/internal/serving"
	"maxembed/internal/ssd"
)

// Shard health, scrubbing, and live rebuild: the operational face of a
// multi-device DB. A failed shard is routed around by the serving layer
// (per-shard health windows), rebuilt onto the hot spare, and the
// repaired array hot-swapped into the serving handle exactly like a
// layout refresh — lookups never stop, they just pay replica-read and
// rebuild-interference costs until redundancy is restored.

// ScrubConfig parameterizes a background scrub sweep.
type ScrubConfig = serving.ScrubConfig

// ScrubReport summarizes one scrub sweep.
type ScrubReport = serving.ScrubReport

// RebuildConfig parameterizes a live shard rebuild.
type RebuildConfig = serving.RebuildConfig

// RebuildReport summarizes one shard rebuild; DurationNS is the MTTR.
type RebuildReport = serving.RebuildReport

// ShardHealthInfo is one shard's health snapshot.
type ShardHealthInfo = ssd.ShardHealthInfo

// array returns the DB's backend as a health-tracked array, or an error
// on a single-device DB (one shard: nothing to fail over to).
func (db *DB) array() (*ssd.Array, error) {
	db.mu.Lock()
	defer db.mu.Unlock()
	arr, ok := db.backend.(*ssd.Array)
	if !ok {
		return nil, fmt.Errorf("maxembed: %T is not a multi-device array (open WithDevices)", db.backend)
	}
	return arr, nil
}

// spareProfile picks the device profile for a hot spare. Homogeneous
// arrays get the member profile; tiered arrays get the slowest tier's —
// the cheapest device that can hold any shard's data. Rebuilding a fast
// shard onto a dense spare temporarily shrinks the fast tier (SwapShard
// re-derives tiers from the new member mix); the next Refresh re-tiers
// pages around the changed geometry.
func (db *DB) spareProfile() ssd.Profile {
	if len(db.cfg.tiers) == 0 {
		return db.cfg.device
	}
	tr := db.backend.(ssd.TierReporter)
	return tr.Tier(tr.NumTiers() - 1).Profile
}

// armSpare attaches the hot spare and the auto-rebuild hook Open's
// options asked for. Called once at the end of Open.
func (db *DB) armSpare() error {
	if !db.cfg.hotSpare {
		return nil
	}
	arr, ok := db.backend.(*ssd.Array)
	if !ok {
		return nil // single device: nothing to rebuild onto
	}
	spare, err := ssd.NewDevice(db.spareProfile())
	if err != nil {
		return fmt.Errorf("maxembed: hot spare: %w", err)
	}
	if err := arr.AttachSpare(spare); err != nil {
		return fmt.Errorf("maxembed: hot spare: %w", err)
	}
	if db.cfg.autoRebuild {
		// The hook survives rebuilds: SwapShard carries it onto the
		// repaired array, so a later failure of any shard re-fires it.
		arr.OnFail(func(shard int) { db.autoRebuildShard(shard) })
	}
	return nil
}

// autoRebuildShard is the OnFail hook body: one self-healing rebuild,
// serialized with admin-triggered rebuilds by RebuildShard itself.
func (db *DB) autoRebuildShard(shard int) {
	// Self-healing runs on the OnFail goroutine with no originating
	// request to inherit a context from; it must outlive whichever
	// lookup happened to observe the failure.
	//lint:allow ctxflow background repair owns its own lifetime
	_, err := db.RebuildShard(context.Background(), shard,
		RebuildConfig{PagesPerSec: db.cfg.rebuildRate})
	if err != nil {
		db.autoErrors.Add(1)
		return
	}
	db.autoRebuilds.Add(1)
}

// AutoRebuilds reports how many self-healing rebuilds have completed and
// how many failed (for example because the spare was already consumed).
func (db *DB) AutoRebuilds() (done, errors int64) {
	return db.autoRebuilds.Load(), db.autoErrors.Load()
}

// ShardHealth returns per-shard health snapshots, or nil on a
// single-device DB (which has no per-shard health machinery).
func (db *DB) ShardHealth() []ShardHealthInfo {
	arr, err := db.array()
	if err != nil {
		return nil
	}
	return arr.ShardHealths()
}

// AttachSpare installs a fresh hot spare (same profile as the members)
// after a rebuild consumed the previous one.
func (db *DB) AttachSpare() error {
	arr, err := db.array()
	if err != nil {
		return err
	}
	spare, err := ssd.NewDevice(db.spareProfile())
	if err != nil {
		return fmt.Errorf("maxembed: spare: %w", err)
	}
	return arr.AttachSpare(spare)
}

// FailShard is the chaos hook: it makes every future read against the
// shard fail (total device loss) and declares the shard failed so the
// serving layer routes around it immediately. With WithAutoRebuild a
// rebuild onto the hot spare starts in the background.
func (db *DB) FailShard(shard int) error {
	arr, err := db.array()
	if err != nil {
		return err
	}
	if shard < 0 || shard >= arr.NumShards() {
		return fmt.Errorf("maxembed: FailShard(%d) of %d shards", shard, arr.NumShards())
	}
	arr.SetShardFaultModel(shard, ssd.AlwaysFail{})
	arr.FailShard(shard)
	return nil
}

// RebuildShard streams the failed shard's pages onto the hot spare,
// swaps the spare into the stripe, and hot-swaps a new engine over the
// repaired array into the serving handle. Live sessions pick it up at
// their next query boundary; the returned report's DurationNS is the
// mean-time-to-repair. Rebuilds are serialized; a concurrent attempt on
// another shard waits here rather than racing for the single spare.
func (db *DB) RebuildShard(ctx context.Context, shard int, cfg RebuildConfig) (RebuildReport, error) {
	db.rebuildMu.Lock()
	defer db.rebuildMu.Unlock()
	eng := db.handle.Engine()
	nb, rep, err := serving.RebuildShard(ctx, eng, shard, cfg)
	if err != nil {
		return rep, fmt.Errorf("maxembed: rebuild shard %d: %w", shard, err)
	}
	db.mu.Lock()
	defer db.mu.Unlock()
	old := db.backend
	db.backend = nb
	eng2, err := serving.New(db.engineConfig(db.lay, db.src))
	if err != nil {
		db.backend = old
		return rep, fmt.Errorf("maxembed: rebuild engine: %w", err)
	}
	if _, err := db.handle.Swap(eng2); err != nil {
		db.backend = old
		return rep, fmt.Errorf("maxembed: rebuild swap: %w", err)
	}
	return rep, nil
}

// Scrub runs one sweep of the background scrubber: every page on a live
// shard is read at the configured low-priority rate, each occupied slot's
// stored checksum is verified against the store image, and latent (at
// rest) corruption is repaired from cross-shard replicas unless
// cfg.DetectOnly is set. Sweeps are serialized.
//
// Simulator-only: the sweep verifies and rewrites slots of an in-memory
// table image, and a file-backed DB (WithFileBackend) has none — its shard
// files are the only copy, read-only once written — so Scrub returns an
// error there. A damaged slot on disk is still caught, by the checksum of
// whichever lookup reads it.
func (db *DB) Scrub(ctx context.Context, cfg ScrubConfig) (ScrubReport, error) {
	if db.cfg.fileDir != "" {
		return ScrubReport{}, errors.New("maxembed: Scrub is not supported on a file backend (no in-memory table image to patrol or repair; the shard files are the only copy)")
	}
	db.scrubMu.Lock()
	defer db.scrubMu.Unlock()
	return serving.Scrub(ctx, db.handle.Engine(), cfg)
}

// ScrubNow runs one scrub sweep with default settings.
func (db *DB) ScrubNow(ctx context.Context) (ScrubReport, error) {
	return db.Scrub(ctx, ScrubConfig{})
}
