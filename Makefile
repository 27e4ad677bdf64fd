GO ?= go

.PHONY: build test race race-shard race-rebuild race-tier race-coact race-file alloc-guard vet vet-tool lint staticcheck bench verify experiments

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

# The multi-device fault and hot-swap seams, explicitly and repeatedly under
# the race detector: shard fault isolation, the striped-array serving path,
# and the array hot-swap-under-load hammer. `race` covers these once as part
# of the full suite; this target reruns them with -count to shake out
# interleavings.
race-shard:
	$(GO) test -race -count=3 -run 'TestShardFaultIsolation|TestShardQueuePeaksAcrossRun|TestBackendOneShardMatchesDevice' ./internal/serving
	$(GO) test -race -count=3 -run 'TestMultiDeviceHotSwapUnderLoad|TestMultiDeviceOpenAndLookup' .

# The repair seams under the race detector: scrub + rebuild + admin
# endpoints, the DB-level fail/rebuild/auto-rebuild paths, and the chaos
# soak (coalesced HTTP load against concurrent shard failure, live
# rebuild, layout refreshes, and a scrub sweep).
race-rebuild:
	$(GO) test -race -count=3 -run 'Scrub|Rebuild' ./internal/serving ./internal/server
	$(GO) test -race -count=3 -run 'TestScrubFailRebuildDB|TestAutoRebuild|TestChaosSoak' .

# The tiered-hierarchy seams under the race detector: heterogeneous
# array construction and tier accounting, shadow-cache simulation, the
# tier-placement pass, and the DB-level re-tier-at-refresh path under
# concurrent lookups.
race-tier:
	$(GO) test -race -count=3 -run 'Tier|Shadow|Retier|Discount' ./internal/ssd ./internal/cache ./internal/placement ./internal/server
	$(GO) test -race -count=3 -run 'TestTiered|TestRefreshRetier' .

# The co-activation-placement seams under the race detector: shard-spread
# scoring, the despread pass and its composition with Retier, per-query
# max-shard-depth accounting (single and batched), and the DB-level
# refresh-during-rebuild hot-swap path.
race-coact:
	$(GO) test -race -count=3 -run 'Despread|Spread|TopForSet|MaxShardDepth|LookupBatch' ./internal/placement ./internal/hypergraph ./internal/serving
	$(GO) test -race -count=3 -run 'TestCoActivationPlacementOption|TestRefreshDuringFastShardRebuild' .

# The real-I/O seams under the race detector: the async backend's ring
# lending (ring-full, one ring over four fds, ring lifetime and retire,
# concurrent queue pairs, read errors — all TestFileBackend…), pread-pool
# and freelist paths, zero-copy ref lifetimes across retained buffers, the
# server's lease/encode handoff, and the public WithFileBackend surface.
race-file:
	$(GO) test -race -count=3 -run 'TestFile|TestPageBuf|TestPread|TestUring|TestLookupBinary|TestLookupJSONOverFileBackend|TestMetricsBackendLatencyHistogram' ./internal/ssd ./internal/serving ./internal/server
	$(GO) test -race -count=3 -run 'TestFileBackend' .

# The read path's hard allocation gate: once warm, a lookup (single and
# batched) over the real-I/O backend must allocate nothing at all, without
# a DRAM cache and with one that evicts on every call; so must the cache's
# own Get/Put mix and the slab behind it, and the /v1/lookup JSON codec
# (request decode and reply encode at 0, the whole handler at a small
# constant independent of key count). CI runs this as the bench-smoke gate,
# with one pass of the evicting-Put and codec benchmarks for their B/op.
alloc-guard:
	$(GO) test -count=1 -run 'TestFileBackendLookupZeroAllocs|TestFileBackendBatchZeroAllocs' -v ./internal/serving
	$(GO) test -count=1 -run 'TestCacheHitPathAllocs|TestCachePutAllocBudget|TestSlabCarvesAndRecycles' -v ./internal/cache
	$(GO) test -run '^$$' -bench 'BenchmarkCachePutEvict|BenchmarkSegmentedPutEvict' -benchtime=1x -benchmem ./internal/cache
	$(GO) test -count=1 -run 'TestHandlerLookupSteadyStateAllocs|TestDecodeLookupKeysZeroAllocs|TestEncodeJSONZeroAllocs' -v ./internal/server
	$(GO) test -run '^$$' -bench 'BenchmarkEncodeJSON|BenchmarkDecodeLookupKeys' -benchtime=1x -benchmem ./internal/server

bench:
	$(GO) test -bench=. -benchmem ./...

# The full pre-merge gate: static checks (including the repo's own
# analyzer suite), build, and the test suite under the race detector
# (the serving engine and HTTP layer are concurrent).
verify: vet lint staticcheck build race race-shard race-rebuild race-tier race-coact race-file alloc-guard

experiments:
	$(GO) run ./cmd/experiments
