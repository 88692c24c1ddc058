GO ?= go
CRASH_SEED ?= 1

# Pinned companion linter versions (single source of truth; CI installs
# them via lint-tools). shiftsplitvet itself is built from this tree and
# needs no install; staticcheck and govulncheck are skipped with a notice
# when the binary is absent, so `make lint` also works offline.
STATICCHECK_VERSION ?= 2023.1.7
GOVULNCHECK_VERSION ?= v1.1.3

.PHONY: all build test race vet lint lint-json lint-fix-check lint-tools fmt-check crash-campaign chaos-smoke fuzz-smoke bench-smoke bench-check loc ci clean

all: build test

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

vet:
	$(GO) vet ./...

# Fail if any file is not gofmt-clean.
fmt-check:
	@out=$$(gofmt -l .); \
	if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; \
	fi

# The repo's own invariant suite, eleven analyzers (journalwrite,
# storageerr, scratchescape, maprangefloat, lockedstore, batchio, errclass,
# ctxflow, lockorder, atomicfield, resourceleak; DESIGN §9), then the
# pinned external linters when present.
lint:
	$(GO) run ./cmd/shiftsplitvet ./...
	@if command -v staticcheck >/dev/null 2>&1; then \
		staticcheck ./...; \
	else \
		echo "lint: staticcheck $(STATICCHECK_VERSION) not on PATH; skipping (make lint-tools installs it)"; \
	fi
	@if command -v govulncheck >/dev/null 2>&1; then \
		govulncheck ./...; \
	else \
		echo "lint: govulncheck $(GOVULNCHECK_VERSION) not on PATH; skipping (make lint-tools installs it)"; \
	fi

# Machine-readable vet run: the full finding list lands in
# shiftsplitvet.json (CI archives it as an artifact). The target fails
# only on load errors (exit 2) so the artifact is produced even when
# findings exist; lint-fix-check is the gate.
lint-json:
	@$(GO) run ./cmd/shiftsplitvet -json ./... > shiftsplitvet.json; \
	status=$$?; \
	if [ $$status -ge 2 ]; then cat shiftsplitvet.json; exit $$status; fi; \
	count=$$(grep -o '"count": [0-9]*' shiftsplitvet.json | grep -o '[0-9]*'); \
	echo "lint-json: wrote shiftsplitvet.json ($$count finding(s))"

# Guard: the tree stays diagnostic-clean — every shiftsplitvet finding is
# either fixed or explicitly suppressed with //shiftsplitvet:ignore.
lint-fix-check:
	@$(GO) run ./cmd/shiftsplitvet -json ./... > shiftsplitvet.json; \
	status=$$?; \
	if [ $$status -eq 1 ]; then \
		echo "lint-fix-check: tree is not diagnostic-clean (fix the findings or suppress with //shiftsplitvet:ignore <analyzer> -- reason):"; \
		cat shiftsplitvet.json; \
		exit 1; \
	elif [ $$status -ge 2 ]; then \
		cat shiftsplitvet.json; exit $$status; \
	fi; \
	echo "lint-fix-check: clean"

# Install the pinned external linters (needs network; CI runs this).
lint-tools:
	$(GO) install honnef.co/go/tools/cmd/staticcheck@$(STATICCHECK_VERSION)
	$(GO) install golang.org/x/vuln/cmd/govulncheck@$(GOVULNCHECK_VERSION)

# The crash campaigns kill maintenance batches at every physical write
# index and require recovery to a checksum-clean pre- or post-batch state;
# the versioned ones (a flip, a whole-domain write, a given-up epoch) and
# the upgrade at open of each v1 fixture (its writes, syncs and renames)
# visit every index once per fate of the caught writes.
# CRASH_SEED pins the tear/drop RNG for reproducible failures. The
# failed-write campaign fails every public Store write at every device
# read and write and requires the pre-call state,
# or after a failed commit the pre- or post-call one.
crash-campaign:
	SHIFTSPLIT_CRASH_SEED=$(CRASH_SEED) $(GO) test -v \
		-run 'TestCrashCampaignDurable|TestCrashCampaignMappedStore|TestCrashCampaignBatchedCommit|TestAppenderCrashDuringAppendIsAtomic|TestGroupCommitCrash|TestExpandingGroupCrash|TestEpochFlipCrashCampaign|TestWholeDomainWriteCrashCampaign|TestUpgradeCrashCampaign|TestGivenUpEpochCrashCampaign|TestShadowFlipStates|TestFailedWriteCampaign' \
		./internal/storage/ ./internal/appender/ .

# The chaos harness drives a real HTTP serving process through a
# healthy → faulted → recovered arc (EIO, latency, silent bit rot on the
# medium and in flight) and asserts the robustness contract: answers are
# never silently wrong, every rotted block is quarantined, and the store
# converges back to healthy. Runs under -race: it is as much a
# concurrency test as a fault test.
chaos-smoke:
	$(GO) test -race -run 'TestChaosSmoke' -v ./internal/chaos/

# The fast request decoders must accept nothing encoding/json rejects and
# decode every body they take to the same values, bit for bit. The unit
# tests replay fixed seeds and a seeded property test; this runs both
# fuzzers for a while on every ci so new inputs, not only the seeds, check
# that agreement (each fuzz target needs its own go test run).
fuzz-smoke:
	$(GO) test -run '^$$' -fuzz '^FuzzIngestDecoding$$' -fuzztime 10s ./internal/server/
	$(GO) test -run '^$$' -fuzz '^FuzzRequestDecoding$$' -fuzztime 10s ./internal/server/

# A quick pass over the maintenance benchmarks (worker-count sweeps for
# the chunked transforms, the appender's aligned and unaligned campaigns)
# with -benchmem, so CI catches
# per-coefficient allocation regressions in the flat kernels and gross
# slowdowns without a full benchmark run; the end-to-end record is
# `bash bench/run.sh` (its maintain, mixed_rw and ingest rows cover the
# write paths). TestAllocBudget is the hard allocation gate: it fails
# outright when ChunkedStandard/ChunkedNonStandard/Appender allocs/op
# drift >20% past the budgets in internal/transform/allocgate_test.go.
# Serve-during-maintenance and group-commit amortization are gated by
# deterministic tests that `make race` runs:
# TestQueriesProgressDuringWedgedFlip and TestIngestHTTPAmortization
# (internal/server).
# TestMergeBlockAllocBudget is the same kind of gate for one MergeBlock on a
# versioned store, and BenchmarkVersionedFlip reports (ungated) what one
# epoch flip costs as the logical space grows 256x: ns/op and B/op should
# stay flat apart from one slice header per remap-table page.
# BenchmarkAppendBatchGroup is one 16-slab ingest group merged and sealed on
# a journaled store pair, BenchmarkExpand one domain doubling; their
# allocation gate is TestExpandAllocBudget, which runs with the unit tests.
# TestHandlerAllocBudget gates the HTTP request path: a warm point or
# range-sum request through ServeHTTP allocates its snapshot and nothing
# else (budget 2); BenchmarkHandlerPoint/RangeSum report the same path's
# ns/op and allocs/op on both forms. TestIngestDecodeAllocBudget gates the
# ingest route's decoding of the benchmark harness's 16-slab NDJSON body
# (64 allocations: per line the values its slab adopts and the slab), and
# BenchmarkHandlerIngest reports that request through ServeHTTP, group
# commit on an in-memory appender included.
# TestDurableCommitAllocBudget gates a steady-state 9-block durable commit
# (the journal reuses its record slab); BenchmarkDurableCommit reports its
# cost, BenchmarkFrameVerify/v1 and /v2 the check one verified 2 KiB
# read pays in each on-media format, and BenchmarkFrameCodec the conversion
# between frame bytes and coefficients every device read and write pays,
# for one frame and for a 64-frame coalesced run (one copy per frame on a
# little-endian host; TestFrameCodecBitExact pins it bit for bit).
# BenchmarkExtractBox (a many-piece box of a 1024² store at TileBits 4, both
# forms), BenchmarkExtractBlock, BenchmarkR6PartialReconstruction and
# BenchmarkProgressiveRangeSum report the extraction and progressive read
# paths' ns/op, allocs/op and, for ExtractBox, blocks/op.
# TestColdRangeSumAllocBudget gates the cold read path: a range sum of
# either form through OpenServingOpts on a durable, versioned store, on the
# pread and on the mapped read leg, every block a cache miss, allocates its
# snapshot and nothing else (budget 1). BenchmarkRangeSumCold reports the
# same path's ns/op, allocs/op and blocks/op on the benchmark harness's
# query_cold setup (1024², TileBits 4, a cache of 1/16 of the blocks, its
# box distribution), std/pread and nonstd/mapped; add -cpuprofile to
# profile the cold path without bench/.
# BenchmarkRangeSumNonStandard reports the non-standard range-sum kernel's
# ns/op, allocs/op and blocks/op on the benchmark harness's geometry (1024²,
# TileBits 4, its box distribution) over an in-memory store.
# TestPointAllocBudget gates the single-block point kernels of both forms:
# a point allocates nothing, a batch only its result slice.
# BenchmarkStoreMergeBlock reports the maintain workload's kernel, a
# MergeBlock of a 16x16 chunk into a versioned in-memory 1024² store at
# TileBits 4 (SHIFT-SPLIT kernels, slot step, vectored apply, epoch flip),
# in each form, with its ns/op and allocs/op.
# BenchmarkReadTransform reports the whole-transform read-back (the
# benchmark harness's pre-warm), a 1024² store at TileBits 4 in each form:
# fetches in groups of 64 blocks, each frame scattered by per-dimension or
# per-level location tables, with its ns/op and allocs/op.
# BenchmarkStoreMaterialize reports the whole-layout writer, Materialize of
# a 1024² array at TileBits 4 in each form (in-memory transform, the
# SHIFT-SPLIT kernels and slot step over the whole domain, one vectored
# write of every block, the commit), on an in-memory store and on a
# durable, versioned one, with its ns/op and allocs/op.
bench-smoke:
	$(GO) test -run 'TestAllocBudget' -count=1 -v ./internal/transform/
	$(GO) test -run 'TestMergeBlockAllocBudget|TestColdRangeSumAllocBudget' -count=1 -v ./
	$(GO) test -run 'TestHandlerAllocBudget|TestIngestDecodeAllocBudget' -count=1 -v ./internal/server/
	$(GO) test -run 'TestMissAllocBudget' -count=1 -v ./internal/cache/
	$(GO) test -run 'TestDurableCommitAllocBudget' -count=1 -v ./internal/storage/
	$(GO) test -run '^$$' -bench 'BenchmarkHandlerPoint|BenchmarkHandlerRangeSum|BenchmarkHandlerIngest' -benchmem -benchtime 2000x ./internal/server/
	$(GO) test -run '^$$' -bench 'BenchmarkHandlerOLAP' -benchmem -benchtime 20x ./internal/server/
	$(GO) test -run '^$$' -bench 'BenchmarkVersionedFlip' -benchmem -benchtime 200x ./internal/storage/
	$(GO) test -run '^$$' -bench 'BenchmarkFrameVerify|BenchmarkDurableCommit|BenchmarkFrameCodec' -benchmem -benchtime 2000x ./internal/storage/
	$(GO) test -run '^$$' -bench 'BenchmarkChunkedStandard|BenchmarkChunkedNonStandard' \
		-benchmem -benchtime 3x ./internal/transform/
	$(GO) test -run '^$$' -bench 'BenchmarkAppender$$|BenchmarkAppendBatchGroup|BenchmarkExpand' -benchmem -benchtime 3x ./internal/appender/
	$(GO) test -run '^$$' -bench 'BenchmarkFileStoreRead|BenchmarkFileStoreWrite' \
		-benchmem -benchtime 3x ./internal/storage/
	$(GO) test -run '^$$' -bench 'BenchmarkMappedStoreRead|BenchmarkMappedVsFileWarmRead' \
		-benchmem -benchtime 3x ./internal/storage/
	$(GO) test -run '^$$' -bench 'BenchmarkTileFlush' -benchmem -benchtime 3x ./internal/tile/
	$(GO) test -run '^$$' -bench 'BenchmarkExtractBlock$$|BenchmarkExtractBox|BenchmarkR6PartialReconstruction|BenchmarkProgressiveRangeSum' \
		-benchmem -benchtime 20x ./
	$(GO) test -run '^$$' -bench 'BenchmarkRangeSumCold' -benchmem -benchtime 2000x ./
	$(GO) test -run '^$$' -bench 'BenchmarkStoreMergeBlock' -benchmem -benchtime 2000x ./
	$(GO) test -run '^$$' -bench 'BenchmarkStoreMaterialize' -benchmem -benchtime 5x ./
	$(GO) test -run '^$$' -bench 'BenchmarkReadTransform' -benchmem -benchtime 5x ./
	$(GO) test -run '^$$' -bench 'BenchmarkRangeSumNonStandard' -benchmem -benchtime 200x ./internal/query/
	$(GO) test -run 'TestPointAllocBudget' -count=1 -v ./internal/query/

# bench/ is its own module, so nothing above compiles it: a signature
# change in internal/tile or internal/storage would break the benchmark
# silently. Its tests include a smoke run of all five workloads.
bench-check:
	cd bench && $(GO) vet ./... && $(GO) test ./...

# Size of the product: tracked non-test Go outside bench/, as physical
# lines and as lines that are neither blank nor only a comment. Not part of
# ci; "fewer non-test lines" is judged on these two numbers.
LOC_FILES = git ls-files '*.go' | grep -v '_test.go$$' | grep -v '^bench/'
loc:
	@echo "physical lines:         $$($(LOC_FILES) | xargs cat | wc -l)"
	@echo "non-blank, non-comment: $$($(LOC_FILES) | xargs grep -H -v '^\s*$$' | grep -v '^[^:]*:\s*//' | wc -l)"

ci: fmt-check vet lint lint-fix-check build race crash-campaign chaos-smoke fuzz-smoke bench-check

clean:
	$(GO) clean ./...
