// Command maxembed-server runs the MaxEmbed embedding store as an HTTP
// service: the offline phase at startup, then lookups over a JSON API.
//
//	maxembed-server -profile Criteo -scale 0.1 -ratio 0.2 -addr :8080
//	curl -s localhost:8080/v1/lookup -d '{"keys":[1,2,3]}'
//	curl -s localhost:8080/v1/stats
//
// With -trace, a previously generated trace file seeds the placement
// instead of a synthetic profile.
package main

import (
	"context"
	"flag"
	"log"
	"net"
	"os"
	"os/signal"
	"runtime/debug"
	"strings"
	"syscall"

	"maxembed"
	"maxembed/internal/server"
	"maxembed/internal/ssd"
	"maxembed/internal/workload"
)

func main() {
	addr := flag.String("addr", ":8080", "listen address")
	backend := flag.String("backend", "sim", "read backend: \"sim\" (simulated device model) or \"file:DIR\" (real async I/O over shard files written under DIR; point DIR at an NVMe filesystem to exercise hardware)")
	pprofOn := flag.Bool("pprof", false, "expose Go profiling under /debug/pprof/ (off by default)")
	profile := flag.String("profile", "Criteo", "dataset profile for the synthetic history")
	scale := flag.Float64("scale", 0.1, "profile scale multiplier")
	tracePath := flag.String("trace", "", "seed placement from this trace file instead of a profile")
	strategy := flag.String("strategy", "maxembed", "placement strategy")
	ratio := flag.Float64("ratio", 0.2, "replication ratio r")
	cacheRatio := flag.Float64("cache", 0.1, "DRAM cache fraction")
	indexLimit := flag.Int("k", 10, "index-shrinking limit")
	devices := flag.Int("devices", 1, "independent SSDs to stripe the layout over (RAID-0 at page granularity)")
	tierFast := flag.Int("tier-fast", 0, "fast-tier (P5800X-class) shards of a heterogeneous array (0 disables tiering)")
	tierDense := flag.Int("tier-dense", 0, "dense-tier (P4510-class) shards backing -tier-fast (required with it)")
	coact := flag.Bool("coact", false, "co-activation-aware shard placement: despread co-activated pages across SSDs (multi-device only)")
	tierPins := flag.Int("tier-pins", 0, "pin this many hottest keys permanently in DRAM")
	tierShadow := flag.Bool("tier-shadow", false, "attach shadow (ghost) caches that measure the DRAM miss-rate curve")
	seed := flag.Int64("seed", 1, "placement seed")
	faultError := flag.Float64("fault-error", 0, "injected per-read error probability (chaos testing)")
	faultTimeout := flag.Float64("fault-timeout", 0, "injected per-read stuck-command probability")
	faultCorrupt := flag.Float64("fault-corrupt", 0, "injected per-read payload-corruption probability")
	faultSeed := flag.Int64("fault-seed", 1, "fault-injection schedule seed")
	batchMax := flag.Int("batch-max", 8, "max lookups coalesced into one batch (≤1 disables coalescing)")
	recordLast := flag.Int("record-last", 65536, "served queries kept as refresh history (0 disables recording and refresh)")
	refreshInterval := flag.Duration("refresh-interval", 0, "background layout-refresh period (0 disables the loop; POST /v1/refresh still works)")
	refreshMinQueries := flag.Int64("refresh-min-queries", 1024, "recorded queries required before a background refresh fires")
	hotSpare := flag.Bool("hot-spare", false, "attach a hot-spare device for shard rebuilds (multi-device only)")
	autoRebuildRate := flag.Float64("auto-rebuild-rate", 0, "auto-rebuild failed shards onto the spare at this pages/sec (0 = manual rebuild only; implies -hot-spare)")
	shardTolerance := flag.Float64("shard-tolerance", 0.5, "fraction of shards that may be dead before /healthz reports unhealthy")
	flag.Parse()

	var history *maxembed.Trace
	if *tracePath != "" {
		f, err := os.Open(*tracePath)
		if err != nil {
			log.Fatal(err)
		}
		history, err = workload.Decode(f)
		f.Close()
		if err != nil {
			log.Fatal(err)
		}
	} else {
		p, ok := workload.ProfileByName(*profile)
		if !ok {
			log.Fatalf("unknown profile %q", *profile)
		}
		var err error
		history, err = maxembed.GenerateTrace(p, *scale)
		if err != nil {
			log.Fatal(err)
		}
	}

	fileDir := ""
	switch {
	case *backend == "sim":
	case strings.HasPrefix(*backend, "file:"):
		fileDir = strings.TrimPrefix(*backend, "file:")
		if fileDir == "" {
			log.Fatal("-backend=file: needs a directory, e.g. -backend=file:/mnt/nvme/maxembed")
		}
	default:
		log.Fatalf("unknown -backend %q (want \"sim\" or \"file:DIR\")", *backend)
	}

	log.Printf("building placement: %d items, %d history queries, strategy=%s r=%.0f%%",
		history.NumItems, history.NumQueries(), *strategy, *ratio*100)
	opts := []maxembed.Option{
		maxembed.WithStrategy(maxembed.Strategy(*strategy)),
		maxembed.WithReplicationRatio(*ratio),
		maxembed.WithCacheRatio(*cacheRatio),
		maxembed.WithIndexLimit(*indexLimit),
		maxembed.WithSeed(*seed),
	}
	tiered := *tierFast > 0
	if fileDir != "" {
		if tiered {
			log.Fatal("-backend=file is incompatible with -tier-fast/-tier-dense (the tier model is simulator-only)")
		}
		if *faultError > 0 || *faultTimeout > 0 || *faultCorrupt > 0 {
			log.Fatal("-backend=file is incompatible with fault injection (simulator-only)")
		}
		if *hotSpare || *autoRebuildRate > 0 {
			log.Fatal("-backend=file is incompatible with -hot-spare/-auto-rebuild-rate (simulator-only)")
		}
		opts = append(opts, maxembed.WithFileBackend(fileDir))
		log.Printf("file backend: real async I/O over shard files under %s", fileDir)
	}
	if tiered {
		if *tierDense <= 0 {
			log.Fatal("-tier-fast requires -tier-dense (the dense shards backing the fast tier)")
		}
		if *devices > 1 {
			log.Fatal("-tier-fast and -devices are mutually exclusive; the tier specs set the stripe width")
		}
		opts = append(opts, maxembed.WithTiers(
			maxembed.TierSpec{Profile: maxembed.DeviceP5800X, Devices: *tierFast},
			maxembed.TierSpec{Profile: maxembed.DeviceP4510, Devices: *tierDense},
		))
		log.Printf("tiered array: %d×%s + %d×%s; hottest pages up-tier, re-tiered at refresh",
			*tierFast, maxembed.DeviceP5800X.Name, *tierDense, maxembed.DeviceP4510.Name)
	} else if *devices > 1 {
		opts = append(opts, maxembed.WithDevices(*devices))
		log.Printf("striping across %d devices (shard-aware replica placement, per-shard queue pairs)", *devices)
	}
	if *coact {
		if !tiered && *devices <= 1 {
			log.Fatal("-coact requires a multi-device array (-devices > 1 or -tier-fast/-tier-dense)")
		}
		opts = append(opts, maxembed.WithCoActivationPlacement())
		log.Printf("co-activation-aware shard placement: despread pass at build and every refresh")
	}
	if tiered || *devices > 1 {
		if *autoRebuildRate > 0 {
			opts = append(opts, maxembed.WithAutoRebuild(*autoRebuildRate))
			log.Printf("hot spare attached; auto-rebuild armed at %.0f pages/sec", *autoRebuildRate)
		} else if *hotSpare {
			opts = append(opts, maxembed.WithHotSpare())
			log.Printf("hot spare attached; rebuild via POST /v1/shards/{i}/rebuild")
		}
	}
	if *tierPins > 0 {
		opts = append(opts, maxembed.WithDRAMPins(*tierPins))
		log.Printf("pinning the %d hottest keys in DRAM", *tierPins)
	}
	if *tierShadow {
		opts = append(opts, maxembed.WithShadowCache())
		log.Printf("shadow caches attached; miss-rate curve on /v1/stats")
	}
	if *recordLast > 0 {
		opts = append(opts, maxembed.WithHistoryRecording(*recordLast))
	}
	if *faultError > 0 || *faultTimeout > 0 || *faultCorrupt > 0 {
		log.Printf("fault injection armed: error=%.3f timeout=%.3f corrupt=%.3f seed=%d",
			*faultError, *faultTimeout, *faultCorrupt, *faultSeed)
		opts = append(opts, maxembed.WithFaultInjection(maxembed.FaultConfig{
			Seed:          *faultSeed,
			ReadErrorProb: *faultError,
			TimeoutProb:   *faultTimeout,
			CorruptProb:   *faultCorrupt,
		}))
	}
	db, err := maxembed.Open(history.NumItems, history.Queries, opts...)
	if err != nil {
		log.Fatal(err)
	}
	if fb, ok := db.Backend().(*ssd.FileBackend); ok {
		log.Printf("file backend online: executor=%s direct_io=%v shards=%d",
			fb.ExecutorKind(), fb.Direct(), fb.NumShards())
	}
	ls := db.LayoutStats()
	log.Printf("layout ready: %d pages, %.1f%% replica slots", ls.NumPages, ls.ReplicationRatio*100)

	srvOpts := []server.Option{server.WithCoalescing(*batchMax, 0)}
	if *batchMax <= 1 {
		srvOpts = []server.Option{server.WithoutCoalescing()}
		log.Printf("request coalescing disabled")
	} else {
		log.Printf("request coalescing: up to %d lookups per batch", *batchMax)
	}
	if fileDir != "" {
		log.Printf("layout refresh unavailable on the file backend (on-disk pages would go stale)")
	} else if *recordLast > 0 {
		if *refreshInterval > 0 {
			srvOpts = append(srvOpts, server.WithRefreshLoop(db, *refreshInterval, *refreshMinQueries))
			log.Printf("layout refresh: every %v once ≥%d queries recorded (history window %d)",
				*refreshInterval, *refreshMinQueries, *recordLast)
		} else {
			srvOpts = append(srvOpts, server.WithRefresh(db))
			log.Printf("layout refresh: on demand via POST /v1/refresh (history window %d)", *recordLast)
		}
	} else {
		log.Printf("history recording disabled; layout refresh unavailable")
	}
	if *pprofOn {
		srvOpts = append(srvOpts, server.WithPprof())
		log.Printf("pprof endpoints on /debug/pprof/")
	}
	if *devices > 1 {
		srvOpts = append(srvOpts, server.WithShardFailTolerance(*shardTolerance))
		if fileDir != "" {
			log.Printf("scrub and shard fail/rebuild unavailable on the file backend (simulator-only; the shard files are the only copy of the table)")
		} else {
			srvOpts = append(srvOpts, server.WithShardAdmin(db), server.WithScrub(db))
			log.Printf("shard admin online: POST /v1/scrub, /v1/shards/{i}/fail, /v1/shards/{i}/rebuild (tolerance %.0f%% dead shards)", *shardTolerance*100)
		}
	}
	if tiered || *devices > 1 {
		// The spread report is nil until a despread pass runs (it always
		// does on tiered arrays, and on striped ones with -coact).
		srvOpts = append(srvOpts, server.WithSpreadReport(db))
	}
	h := server.NewDynamic(db.Handle(), db.Backend(), srvOpts...)
	// The offline phase is over. Its garbage is heap the runtime keeps
	// resident against a GC goal set while the build was allocating, and a
	// server that allocates nothing per lookup neither reuses it nor runs the
	// collection that would lower the goal: it would stay in the resident set
	// for good, a few MiB more or less from one start to the next. Collect
	// and return it once, before the first connection.
	debug.FreeOSMemory()
	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		log.Fatal(err)
	}
	// SIGINT or SIGTERM starts the shutdown; once it has, a second one kills
	// the process the default way.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	context.AfterFunc(ctx, stop)
	log.Printf("serving on %s", ln.Addr())
	if err := serve(ctx, ln, h, db, server.DefaultLimits); err != nil {
		log.Print(err)
		os.Exit(1)
	}
}
