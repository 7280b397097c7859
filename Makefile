# rnascale build and verification targets.

GO ?= go

# Per-package coverage floors for the fault/recovery-critical
# packages (current actuals are ~85-92%; floors leave headroom).
# cloud's floor rose with the spot/serverless backends: the market
# walk, reclaim coupling and function billing must stay covered.
COVER_SPECS = internal/cloud:85 internal/pilot:80 internal/core:80

# Fuzz targets exercised by fuzz-smoke, as package:target: the parsers,
# and the seeded containment check against its reference.
FUZZ_TARGETS = internal/seq:FuzzParseFasta internal/seq:FuzzParseFastq internal/seq:FuzzParseSFA \
	internal/seq:FuzzForEachCanonical internal/assembler/contrail:FuzzParseRecord \
	internal/journal:FuzzScan internal/merge:FuzzDropContained
FUZZ_TIME ?= 10s

.PHONY: all build test vet lint lint-fixtures race cover fuzz-smoke sweep-determinism oracle-determinism journal-determinism overload-determinism check bench bench-gate bench-baseline bench-smoke clean

# Coverage profiles land here instead of littering the repo root.
BUILD_DIR = build

all: build

# build compiles everything, then asserts two dependency contracts:
# the rnavet analyzer stays stdlib-only with no network imports (the
# determinism gate must keep running on the offline single-CPU machine
# with just the toolchain), and the perf probe package stays
# stdlib-only (it is imported by every hot kernel, so a dependency
# added there is a dependency added everywhere).
build:
	$(GO) build ./...
	@nonstd=$$($(GO) list -deps -f '{{if not .Standard}}{{.ImportPath}}{{end}}' ./cmd/rnavet | grep -v '^rnascale' || true); \
	netdeps=$$($(GO) list -deps ./cmd/rnavet | grep -E '^net(/|$$)' || true); \
	if [ -n "$$nonstd$$netdeps" ]; then \
		echo "FAIL: cmd/rnavet must stay stdlib-only with no network imports:"; \
		echo "$$nonstd $$netdeps"; exit 1; \
	fi
	@perfdeps=$$($(GO) list -deps -f '{{if not .Standard}}{{.ImportPath}}{{end}}' ./internal/obs/perf | grep -v '^rnascale/internal/obs/perf$$' || true); \
	if [ -n "$$perfdeps" ]; then \
		echo "FAIL: internal/obs/perf must stay stdlib-only (it is linked into every kernel):"; \
		echo "$$perfdeps"; exit 1; \
	fi

test:
	$(GO) test ./...

vet:
	$(GO) vet ./...

# lint runs rnavet, the project's determinism, concurrency and
# durability analyzer (see internal/analysis): wall-clock reads in
# simulation packages, global math/rand usage, order-dependent
# emission from map iteration, wall-clock types on simulation APIs,
# unjoined goroutines, mutexes held across blocking operations,
# dropped durability errors, and unbounded metric label values. rnavet
# prints a one-line summary (checks run, files scanned, findings) and
# exits non-zero on any finding — including stale //rnavet:allow
# directives. The go-list snapshot is cached under $(BUILD_DIR) so
# repeated lints skip the go-tool walk when nothing changed.
lint:
	$(GO) run ./cmd/rnavet -cache $(BUILD_DIR)/rnavet-cache ./...

# lint-fixtures exercises the analyzer itself: the golden-fixture
# corpus for every check, the JSON schema golden, the go-list cache
# round-trip, and the awkward-package-shape loader tests. Run it after
# touching internal/analysis; regenerate goldens with `go test -update`.
lint-fixtures:
	$(GO) test ./internal/analysis

race:
	$(GO) test -race ./...

# cover enforces the per-package coverage floors on the packages the
# fault-injection and recovery paths live in.
cover:
	@mkdir -p $(BUILD_DIR)
	@for spec in $(COVER_SPECS); do \
		pkg=$${spec%%:*}; floor=$${spec##*:}; out=$(BUILD_DIR)/cover.$$(basename $$pkg).out; \
		$(GO) test -coverprofile=$$out ./$$pkg || exit 1; \
		pct=$$($(GO) tool cover -func=$$out | awk '/^total:/ {sub(/%/,"",$$3); print $$3}'); \
		echo "$$pkg coverage $$pct% (floor $$floor%)"; \
		awk -v p=$$pct -v f=$$floor 'BEGIN { exit (p+0 < f+0) ? 1 : 0 }' || \
			{ echo "FAIL: $$pkg coverage $$pct% below floor $$floor%"; exit 1; }; \
	done

# fuzz-smoke runs each fuzz target briefly; failures minimize
# into the target package's testdata/fuzz as regression inputs.
fuzz-smoke:
	@for spec in $(FUZZ_TARGETS); do \
		$(GO) test ./$${spec%%:*} -run '^$$' -fuzz "^$${spec##*:}$$" -fuzztime=$(FUZZ_TIME) || exit 1; \
	done

# sweep-determinism pins the parallel-executor contract under the
# race detector: byte-identical results for any worker count, and one
# dataset generation per profile however many cells ask for it.
sweep-determinism:
	$(GO) test -race -run 'TestMapDeterminismAcrossWorkerCounts|TestDatasetCacheSingleGeneration' ./internal/sweep

# oracle-determinism pins each rebuilt data path against the reference
# it replaced, under the race detector at GOMAXPROCS 1, 2 and 8. The
# MapReduce engine: over seeded random jobs the Result (output,
# elapsed, shuffle bytes, task counts) must be exactly the map-based
# reference's however many host goroutines run the map splits and
# reduce partitions. The k-mer kernel: the O(1) reverse complement and
# the rolling canonical window against the base-by-base loops, the
# k-mer table against a Go map, contigs against every insertion order,
# and Ray/ABySS on both full profiles against the contig counts, TTCs,
# traffic and digests recorded before the kernel was rebuilt. The
# post-counting tail: the edge-bit graph's tip clipping, bubble popping
# and unitig walk against the Find-per-question traversals (and its
# adjacency bytes against a rebuild after every deletion), the seeded
# containment check against the all-pairs substring search, the
# table-indexed quantifier against the map-indexed one. The
# journal reader: the single-pass scan against the line-by-line reader
# it replaced, over every byte flip and truncation of a small journal
# and a sample of a real one — same verified prefix, records, damage
# report, chain head and Merkle root.
oracle-determinism:
	$(GO) test -race -count=1 -cpu 1,2,8 -run 'TestEngineMatchesReference' ./internal/mapreduce
	$(GO) test -race -count=1 -cpu 1,2,8 -run 'MatchesReference|TestKmerTableMatchesMapModel' ./internal/seq
	$(GO) test -race -count=1 -cpu 1,2,8 -run 'TestContigsIndependentOfInsertionOrder|TestEdgeBit|TestClipTipsLengthBoundary' ./internal/dbg
	$(GO) test -race -count=1 -cpu 1,2,8 -run 'TestDropContainedMatchesReference' ./internal/merge
	$(GO) test -race -count=1 -cpu 1,2,8 -run 'TestAssignMatchesReference' ./internal/quant
	$(GO) test -race -count=1 -cpu 1,2,8 -run 'TestPCrispaPins' ./internal/assembler/mpidbg
	$(GO) test -race -count=1 -cpu 1,2,8 -run 'TestScanMatchesReference' ./internal/journal

# journal-determinism pins the checkpoint/resume contract: a run is
# killed at three injected virtual-time points (mid-PA, mid-PB,
# mid-PC), resumed from its write-ahead journal, and the resumed
# report, metrics and Chrome trace must be byte-identical to an
# uninterrupted run's — with zero journaled units re-executed. The
# driver-crash chaos soak races resume against worker faults, and the
# torn-tail test resumes through crash-shaped journal damage. The
# whole contract is pinned at group-commit batch sizes 1 (fsync per
# append), 8 and 64: batching changes when fsyncs happen, never what
# resumes read.
journal-determinism:
	@for b in 1 8 64; do \
		echo "journal-determinism: JOURNAL_BATCH=$$b"; \
		JOURNAL_BATCH=$$b $(GO) test -race -run 'TestKillAndResumeByteIdentical|TestResumeOfCompleteJournal|TestResumeAfterTornTail|TestChaosDriverCrashResumeSoak' ./internal/core || exit 1; \
	done

# overload-determinism pins the overload-protection contract: the
# chaos soak (deadlines, cancellation, retry budgets, breakers, and
# their interactions with reclaim/flake storms) must produce
# byte-identical artifacts for the same seed at every sweep worker
# count, and a cancelled or deadline-exceeded run must resume from its
# journal as a pure replay reproducing the same truncated report.
# Pinned across 2 worker counts × 2 group-commit batch sizes: neither
# scheduling nor fsync batching may leak into overload decisions.
overload-determinism:
	@for w in 1 4; do for b in 1 64; do \
		echo "overload-determinism: OVERLOAD_WORKERS=$$w JOURNAL_BATCH=$$b"; \
		OVERLOAD_WORKERS=$$w JOURNAL_BATCH=$$b $(GO) test -race -run 'TestChaosOverloadSoak|TestDeadlineCancelResumeByteIdentical|TestBreakerConvertsReclaimStorm' ./internal/core || exit 1; \
	done; done

# check is the gate a change must pass before review: static analysis
# (go vet plus the rnavet determinism analyzer), the full test suite
# under the race detector, the coverage floors, the sweep and
# MapReduce-engine determinism contracts, the journal resume contract,
# a fuzz smoke pass, the kernel benchmark regression gate and a smoke
# run of the whole-system benchmark.
check: vet lint race cover sweep-determinism oracle-determinism journal-determinism overload-determinism fuzz-smoke bench-gate bench-smoke

# bench regenerates the paper tables at quick scale and refreshes
# BENCH_results.json (per-stage TTC/cost snapshots, plus the pass's
# wall-clock seconds and worker count for throughput tracking).
bench:
	$(GO) run ./cmd/benchtab -experiment all

# bench-gate measures the hot kernels (fixed-seed microbenchmarks in
# internal/kernelbench) and fails if any regressed beyond tolerance
# against the committed BENCH_baseline.json, or is missing. The gate
# is allocation counts and bytes (deterministic for a fixed toolchain);
# the wall-time column is printed for information and gated only on
# request, for a quiet machine: BENCH_GATE_FLAGS='-tol-time 0.5'.
# Improvements never fail — lock them in with bench-baseline.
bench-gate:
	@mkdir -p $(BUILD_DIR)
	$(GO) run ./cmd/benchtab -kernels -json $(BUILD_DIR)/BENCH_results.json
	$(GO) run ./cmd/benchgate -baseline BENCH_baseline.json -current $(BUILD_DIR)/BENCH_results.json $(BENCH_GATE_FLAGS)

# bench-baseline re-measures the kernels and rewrites the committed
# baseline. Run on a quiet machine after a deliberate performance
# change, and commit the result.
bench-baseline:
	$(GO) run ./cmd/benchtab -kernels -json BENCH_baseline.json
	@echo "BENCH_baseline.json rewritten; review and commit it."

# bench-smoke builds and runs the whole-system benchmark (bench/, a
# module of its own that `go build ./...` never compiles although it
# imports internal/... packages) at smoke scale, then its self-tests.
# It fails when the yardstick no longer builds, an operation fails or
# an output check mismatches; the wall times it prints are
# informational. Everything it writes lands in the git-ignored
# .bench_build/ and bench/out/.
bench-smoke:
	bash bench/run.sh -scale smoke
	cd bench && $(GO) test .

clean:
	rm -rf $(BUILD_DIR)
	rm -f BENCH_results.json cover.*.out
	$(GO) clean ./...
