GO ?= go

.PHONY: build test race race-stress alloc-guard smoke vet vet-tool lint staticcheck bench bench-check verify experiments

build:
	$(GO) build ./...

test:
	$(GO) test ./...

vet:
	$(GO) vet ./...

# Builds the domain-specific analyzer suite (internal/analyzers) into a
# vettool binary and prints its path; `lint` and CI consume it via
# `go vet -vettool`.
vet-tool:
	@$(GO) build -o bin/maxembed-vet ./cmd/maxembed-vet
	@echo "$(CURDIR)/bin/maxembed-vet"

# maxembed's own invariants: injected clocks in the deterministic core,
# typed atomics, pool discipline, no blocking work under mutexes, no
# fresh root contexts on the request path (see DESIGN.md §14).
lint:
	$(GO) build -o bin/maxembed-vet ./cmd/maxembed-vet
	$(GO) vet -vettool=$(CURDIR)/bin/maxembed-vet ./...

# Runs staticcheck when it is on PATH (CI installs it; local toolchains
# may not have it) and is a no-op with a notice otherwise.
staticcheck:
	@if command -v staticcheck >/dev/null 2>&1; then \
		staticcheck ./...; \
	else \
		echo "staticcheck not installed; skipping (go install honnef.co/go/tools/cmd/staticcheck@latest)"; \
	fi

race:
	$(GO) test -race ./...

# The concurrent seams, explicitly and repeatedly under the race detector.
# `race` covers these once as part of the full suite; race-stress reruns
# each row of the table (a -run pattern, then the packages it applies to)
# with -count=3 to shake out interleavings. `#` lines describe the rows
# under them.
define RACE_SEAMS
# Multi-device: shard fault isolation, the striped-array serving path and
# the array hot-swap-under-load hammer.
TestShardFaultIsolation|TestShardQueuePeaksAcrossRun|TestBackendOneShardMatchesDevice ./internal/serving
TestMultiDeviceHotSwapUnderLoad|TestMultiDeviceOpenAndLookup .
# Repair: scrub + rebuild + admin endpoints, the DB-level
# fail/rebuild/auto-rebuild paths and the chaos soak (coalesced HTTP load
# against concurrent shard failure, live rebuild, layout refreshes and a
# scrub sweep).
Scrub|Rebuild ./internal/serving ./internal/server
TestScrubFailRebuildDB|TestAutoRebuild|TestChaosSoak .
# The tiered hierarchy: heterogeneous arrays and tier accounting,
# shadow-cache simulation, the tier-placement pass and the DB-level
# re-tier-at-refresh path under concurrent lookups.
Tier|Shadow|Retier|Discount ./internal/ssd ./internal/cache ./internal/placement ./internal/server
TestTiered|TestRefreshRetier .
# Co-activation placement: shard-spread scoring, the despread pass and its
# composition with Retier, per-query max-shard-depth accounting (single and
# batched) and the DB-level refresh-during-rebuild hot-swap path.
Despread|Spread|TopForSet|MaxShardDepth|LookupBatch ./internal/placement ./internal/hypergraph ./internal/serving
TestCoActivationPlacementOption|TestRefreshDuringFastShardRebuild .
# Real I/O: the async backend's ring lending (ring-full, one ring over four
# fds, ring lifetime and retire, concurrent queue pairs, read errors, reads
# asked of a closed backend on both executors — all TestFileBackend…),
# pread-pool and freelist paths, held-view lifetimes across recycled
# buffers, the server's lease/encode handoff and the public WithFileBackend
# surface (shard files as the only copy, slots damaged on disk, a lookup
# after Close — a hang there is what the -timeout below is for).
TestFile|TestPageBuf|TestPread|TestUring|TestLookupBinary|TestLookupJSONOverFileBackend|TestMetricsBackendLatencyHistogram ./internal/ssd ./internal/serving ./internal/server
TestFileBackend .
# The one read path on both backends: the simulator-vs-file differential
# and the reroute-dedupe regression.
TestSimAndFileResultsIdentical|TestRerouteNeverPlansAPageTwice ./internal/serving
# Cache admission with workers contending for one tiny cache (evicting,
# gated and never-evicting inserts interleaved, the frequency sketch counted
# and halved underneath, probes that touch and probes that do not), and the
# server binary's serve function: deadlines, and SIGTERM with a lookup in
# flight.
TestConcurrentGatedInserts|TestConcurrentAccess ./internal/cache
TestConcurrentCachedLookups|TestAdmission ./internal/serving
TestServe ./cmd/maxembed-server
# The server's connection loop beside net/http: the differential over its
# seeds (replayed bytes, pipelining, the scripted peer read by net/http's
# background reader), each limit, the hand-over in mid-connection, the
# shutdown orders (idle closed, busy finished, grace run out; with SIGTERM,
# hand-overs in flight and the store's descriptors in the TestServe row
# above), and the coalescer forming batches from what queued.
TestConn|TestServeShutdown|FuzzConnVsNetHTTP|TestCoalesc ./internal/server
endef
export RACE_SEAMS

race-stress:
	@echo "$$RACE_SEAMS" | grep -v '^#' | while read -r pattern pkgs; do \
		echo "$(GO) test -race -count=3 -timeout 3m -run '$$pattern' $$pkgs"; \
		$(GO) test -race -count=3 -timeout 3m -run "$$pattern" $$pkgs || exit 1; \
	done

# The read path's hard allocation gate: once warm, a lookup (single and
# batched) must allocate nothing at all, over the real-I/O backend and over
# the simulator with a store (they run the same code), without a DRAM
# cache and with one that is offered keys on every call; so must the cache's
# own Get/Put/PutIfRoom/PutIfHotter mix, sketch included, over a fill and
# in steady state, and the slab behind it, the two histograms every
# lookup records into (metrics.Recorder, metrics.IntHist), and the
# /v1/lookup JSON codec (request decode and reply encode at 0, the whole
# net/http handler at a small constant independent of key count) and a
# whole request through the server's connection loop, read to write, JSON
# and MXE1, isolated and coalesced. CI runs this as the bench-smoke gate,
# with one pass of the evicting-Put, gated-Put and codec benchmarks for
# their B/op.
alloc-guard:
	$(GO) test -count=1 -run 'TestRecorderBounded|TestIntHistAddZeroAllocs' -v ./internal/metrics
	$(GO) test -count=1 -run 'TestFileBackendLookupZeroAllocs|TestFileBackendBatchZeroAllocs' -v ./internal/serving
	$(GO) test -count=1 -run 'TestCacheHitPathAllocs|TestCachePutAllocBudget|TestCacheFillAllocBudget|TestSlabCarvesAndRecycles' -v ./internal/cache
	$(GO) test -run '^$$' -bench 'BenchmarkCachePutEvict|BenchmarkCachePutIfHotter' -benchtime=1x -benchmem ./internal/cache
	$(GO) test -count=1 -run 'TestHandlerLookupSteadyStateAllocs|TestConnLookupZeroAllocs|TestDecodeLookupKeysZeroAllocs|TestEncodeJSONZeroAllocs' -v ./internal/server
	$(GO) test -run '^$$' -bench 'BenchmarkEncodeJSON|BenchmarkDecodeLookupKeys' -benchtime=1x -benchmem ./internal/server

# The end-to-end smokes CI runs on top of the suite, one per row: an
# experiment whose hard assertions live inside the experiment itself, or
# one -benchtime=1x pass of a package's benchmarks matching a pattern,
# which keeps them buildable and lands their numbers in the log for
# trend-eyeballing. `#` lines describe the rows under them.
define SMOKES
# Fails a shard mid-run, rebuilds it onto the hot spare under co-simulated
# serving load, and asserts redundancy restored, zero hard-failed keys and
# a bounded p99.
experiment rebuildsweep
# The hotness-tier sweep's equal-budget claims: shadow-chosen DRAM within
# 10% of the best swept size, tiered beating all-dense on served bandwidth
# and cost per kQPS, the fast tier over-serving its stripe share, all-fast
# storage alone exceeding the budget.
experiment tiersweep
# The despread pass lowers the scored and live per-query max-shard depth
# and the open-loop p99 at 80% of blind-striping capacity, with pages read
# unchanged and effective bandwidth within noise.
experiment coactsweep
# Page-read parity between the simulator and the file backend on identical
# traces, zero failed keys, host overhead per read under budget, on
# io_uring at least half a query's pages per io_uring_enter, pool-worker
# throughput that never collapses.
experiment hwsweep
# Frequency-gated page-cost cache admission never reads more than 1% above
# the paper's admit-everything LRU in any (profile, cache ratio) cell and at
# least 20% less on Criteo at a 10% cache.
experiment admitsweep
# The same cache after a popularity shift and after a cold scan of the
# history: back at or below admit-everything within two cache capacities of
# lookups, within 5% of its own steady state by the end of the run.
experiment shiftsweep
# The default base partitioner (co-appearance page growth) against the
# paper's SHP on all five profiles: no more pages per live query bare or
# replicated, at least 8% fewer on Criteo, no longer to build.
experiment partitioners
# The simulator read path: timing-only, with a store, batched.
bench WorkerLookup(Timing|Full|Batch) ./internal/serving
# The striped array at 1, 2 and 4 shards.
bench WorkerLookupSharded ./internal/serving
# One pass over real file I/O (io_uring or the pread pool).
bench WorkerLookupFileBackend ./internal/serving
# Concurrent clients against the HTTP layer, isolated and coalesced, through
# net/http's handler interface and through the server's own connection loop
# (the Conn variants): reads per request beside ns/op and allocs/op.
bench ServerLookup(Isolated|Coalesced)(Conn)? ./internal/server
endef
export SMOKES

smoke:
	@echo "$$SMOKES" | grep -v '^#' | while read -r kind what pkg; do \
		case $$kind in \
		experiment) set -- -count=1 -run "TestAllExperimentsRun/$$what\$$" ./internal/experiments ;; \
		bench) set -- -run '^$$' -bench "$$what\$$" -benchtime=1x -benchmem $$pkg ;; \
		esac; \
		echo "$(GO) test $$*"; \
		$(GO) test "$$@" || exit 1; \
	done

bench:
	$(GO) test -bench=. -benchmem ./...

# The repo benchmark's harness (bench/, BENCHMARK.json) is a module of its
# own, outside `go build ./...`, `lint` and the suite, and it compiles
# against internal packages: an API change here can break it unseen. This
# vets it and runs its short tests; it runs no workload.
bench-check:
	cd bench && $(GO) vet ./... && $(GO) test -short ./...

# The full pre-merge gate: static checks (including the repo's own
# analyzer suite), build (the benchmark harness included), and the test
# suite under the race detector (the serving engine and HTTP layer are
# concurrent).
verify: vet lint staticcheck build bench-check race race-stress alloc-guard

experiments:
	$(GO) run ./cmd/experiments
