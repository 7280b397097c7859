# rnascale build and verification targets.

GO ?= go
GOFMT ?= gofmt

# Per-package coverage floors for the fault/recovery-critical
# packages (current actuals are ~85-92%; floors leave headroom).
# cloud's floor rose with the spot/serverless backends: the market
# walk, reclaim coupling and function billing must stay covered.
COVER_SPECS = internal/cloud:85 internal/pilot:80 internal/core:80

# Fuzz targets exercised by fuzz-smoke, as package:target: the parsers,
# the tolerant journal opens against the strict reader, the journal
# payload decoders against their encoders, the fault grammar against
# its renderer, the stage-backend list against its rendering, the
# seeded containment check against its reference, the run request
# decoder (the gateway's JSON body) against a JSON round trip, the
# de Bruijn graph's one-probe-per-edge sweep against the eight-probe
# reference, Contrail's typed build and filter jobs against the text
# ones, and Trinity's table-based count and walk against the map-based
# ones.
FUZZ_TARGETS = internal/seq:FuzzParseFasta internal/seq:FuzzParseFastq \
	internal/seq:FuzzForEachCanonical internal/assembler/contrail:FuzzParseRecord \
	internal/journal:FuzzScan internal/journal:FuzzContinue internal/core:FuzzDecodePA internal/core:FuzzDecodePB \
	internal/core:FuzzParseStageBackends internal/merge:FuzzDropContained internal/faults:FuzzParseSpec \
	internal/core:FuzzRequestConfig internal/dbg:FuzzEdges internal/assembler/contrail:FuzzBuildMatchesText \
	internal/assembler/trinity:FuzzInchwormMatchesMap
FUZZ_TIME ?= 10s

.PHONY: all build test vet lint lint-fixtures race cover fuzz-smoke sweep-determinism oracle-determinism journal-determinism overload-determinism check bench paper-pins bench-gate bench-baseline bench-smoke size clean

# Coverage profiles land here instead of littering the repo root.
BUILD_DIR = build

all: build

# build compiles everything, then asserts the rnavet analyzer stays
# stdlib-only with no network imports (the determinism gate must keep
# running on the offline single-CPU machine with just the toolchain).
build:
	$(GO) build ./...
	@nonstd=$$($(GO) list -deps -f '{{if not .Standard}}{{.ImportPath}}{{end}}' ./cmd/rnavet | grep -v '^rnascale' || true); \
	netdeps=$$($(GO) list -deps ./cmd/rnavet | grep -E '^net(/|$$)' || true); \
	if [ -n "$$nonstd$$netdeps" ]; then \
		echo "FAIL: cmd/rnavet must stay stdlib-only with no network imports:"; \
		echo "$$nonstd $$netdeps"; exit 1; \
	fi

test:
	$(GO) test ./...

# vet runs go vet and fails on any Go file gofmt would change. The
# rnavet fixtures under testdata are exempt: their goldens pin columns.
vet:
	$(GO) vet ./...
	@unformatted=$$($(GOFMT) -l $$(find . -name testdata -prune -o -name '.*' ! -name . -prune -o -name '*.go' -print)); \
	if [ -n "$$unformatted" ]; then \
		echo "FAIL: not gofmt-clean:"; echo "$$unformatted"; exit 1; \
	fi

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
# into the target package's testdata/fuzz as regression inputs. New
# coverage is minimized for at most a second, so the fuzz time goes to
# executions: at Go's 60 s default one slow input can spend the whole
# run being minimized.
fuzz-smoke:
	@for spec in $(FUZZ_TARGETS); do \
		$(GO) test ./$${spec%%:*} -run '^$$' -fuzz "^$${spec##*:}$$" -fuzztime=$(FUZZ_TIME) -fuzzminimizetime=1s || exit 1; \
	done

# determinism expands to one `go test -race` recipe line per
# environment setting in $(1) and package:pattern spec in $(3), settings
# outermost, with extra test flags $(2). A setting joins its VAR=value
# assignments with `+`; an empty $(1) runs each spec once in the
# inherited environment. Every line is a recipe line of its own, so
# `make -n` prints the exact commands and the first failure stops make.
define determinism
$(foreach env,$(or $(1),+),$(if $(filter-out +,$(env)),@echo "$@: $(subst +, ,$(env))"
)$(foreach spec,$(3),$(strip $(subst +, ,$(filter-out +,$(env))) $(GO) test -race $(2) -run '$(word 2,$(subst :, ,$(spec)))' ./$(word 1,$(subst :, ,$(spec))))
))
endef

# The rebuilt data paths oracle-determinism checks, as package:pattern.
ORACLE_FLAGS = -count=1 -cpu 1,2,8
ORACLE_SPECS = internal/mapreduce:TestEngineMatchesReference|TestFoldMatchesUnfolded \
	internal/assembler/contrail:TestTypedBuildMatchesText \
	internal/assembler/trinity:TestInchwormMatchesMapReference \
	internal/seq:MatchesReference|TestKmerTableMatchesMapModel \
	internal/dbg:TestContigsIndependentOfInsertionOrder|TestEdgeBit|TestClipTipsLengthBoundary|TestEdgesMatchEightProbeReference|TestTraversalOrderFromAscendingRun \
	internal/merge:TestDropContainedMatchesReference \
	internal/preprocess:TestDedupMatchesMapReference \
	internal/quant:TestAssignMatchesReference \
	internal/detonate:TestEvaluateMatchesReference \
	internal/sweep:TestRanges \
	internal/assembler/mpidbg:TestPCrispaPins|TestOwnerCountsMatchReference|TestMergeOrdersTheSpectrum|TestSharedSpectrumMatchesPrivate|TestMemoKeysSpectrumByReadsKAndRanks \
	internal/assembler/all:TestEstimatesTrackMeasurements \
	internal/journal:TestScanMatchesReference \
	internal/vclock:TestAcquireMatchesReference \
	internal/sge:TestSingleNodeMatchesReference|TestSpanningMatchesReference \
	internal/core:TestStageBracketPins|TestRetriedUnitAssemblesOnce|TestResumeOfCompleteJournalAssemblesNothing|TestResumeAssemblesOnlyUnjournaledUnits|TestCutoffMidPBBoundsAssembles|TestRunLeavesNoGoroutines|TestAssemblies|TestPlanPins|TestPredictRunsNothing|TestPredictTracksRun|TestJournalPayloadRoundTrip|TestResumedReadsAreReadOnly

# sweep-determinism pins the parallel-executor contract under the
# race detector: byte-identical results for any worker count, and one
# dataset generation per profile however many cells ask for it.
sweep-determinism:
	$(call determinism,,,internal/sweep:TestMapDeterminismAcrossWorkerCounts|TestDatasetCacheSingleGeneration)

# oracle-determinism pins each rebuilt data path against the reference
# it replaced, under the race detector at GOMAXPROCS 1, 2 and 8. The
# MapReduce engine: over seeded random jobs the Result (output,
# elapsed, shuffle bytes, task counts) must be exactly the map-based
# reference's however many host goroutines run the map splits and
# reduce partitions, a job that folds each key's values before the
# reduce sort must give the unfolded job's Result, and Contrail's build
# and filter jobs on packed
# k-mer records must give the text jobs' records, elapsed time, shuffle
# bytes and task counts. Trinity's count and Inchworm walk on one k-mer
# table must give the map-based walk's contigs, IDs, TTC and memory on
# tiny at odd and even k, bglumae, pcrispa and count-tied seeds.
# Pre-processing's duplicate table must keep the reads, order and
# Stats that a map keyed on each fragment's bases keeps. The
# k-mer kernel: the O(1) reverse complement and the rolling canonical
# window against the base-by-base loops, the FASTA and FASTQ writers
# against the fmt-based ones, the k-mer table against a Go map,
# contigs against every insertion order, and Ray/ABySS on both full profiles against the contig counts, TTCs,
# traffic and digests recorded before the kernel was rebuilt. The
# post-counting tail: the edge-bit graph's tip clipping, bubble popping
# and unitig walk against the Find-per-question traversals (and its
# adjacency bytes against a rebuild after every deletion), the seeded
# containment check against the all-pairs substring search, the
# table-indexed quantifier against the map-indexed one at 1, 2, 3 and
# 8 read ranges, DETONATE scoring on k-mer tables and parallel scans
# against the serial map-based scorer field for field, the range
# fan-out's cover, order, panic and no-goroutine contracts, every owner's
# k-mer count against a single-threaded map count, Ray and ABySS
# sharing one k-mer spectrum against each counting its own. The
# journal reader: the single-pass scan against a copying reference
# reader, over every byte flip and truncation of a small journal, its
# mis-declared payload lengths and a sample of a real one — same
# verified prefix, records, damage report, chain head and Merkle root —
# and the streaming Verify against the scan on each. The schedulers:
# the slot pool's sorted free times and SGE's in-place single-node and
# spanning placement against the sort-everything bodies they replaced,
# over seeded random clusters and submissions — same start times, same
# slots chosen.
# The pipeline, whose PB computes assemblies ahead of the event loop:
# every stage-bracket exit and the one-assembly-per-unit count pinned
# at any host core count, a resume assembling exactly the units its journal lacks,
# a cut-off PB computing at most one assembly per core beyond the units
# it reached, the futures' budget, order and join, and no goroutine
# outliving a run, the PA/PB journal payload codecs as exact inverses,
# and replayed reads that never write into the journal bytes they
# alias. The planner, a dry run of the same pilot and SGE
# machinery: every pinned plan, a Predict that runs nothing, plans
# that track their runs, and each assembler's estimate, the planner's
# unit of work, equal to its run bit for bit in TTC, memory and traffic
# (Contrail's TTC within its band), independent of host cores.
oracle-determinism:
	$(call determinism,,$(ORACLE_FLAGS),$(ORACLE_SPECS))

# journal-determinism pins the checkpoint/resume contract: a run is
# killed at three injected virtual-time points (mid-PA, mid-PB,
# mid-PC), resumed from its write-ahead journal, and the resumed
# report, metrics and Chrome trace must be byte-identical to an
# uninterrupted run's — with zero journaled units re-executed. The
# driver-crash chaos soak races resume against worker faults, and the
# torn-tail test resumes through crash-shaped journal damage, and the
# stage-bracket pins hold every exit of a stage (complete, unit
# failure, launch failure, cutoff, breaker fallback, crash + resume)
# to recorded digests of its artifacts and journal file. A resume must
# refuse a prefix forged under an intact hash chain, naming the first
# forged record, and a run refused before its first stage must leave a
# journal that resumes to the same refusal, still reporting a forged
# complete record beside it. The whole contract is
# pinned at group-commit batch sizes 1 (fsync per append), 8 and 64:
# batching changes when fsyncs happen, never what resumes read.
journal-determinism:
	$(call determinism,JOURNAL_BATCH=1 JOURNAL_BATCH=8 JOURNAL_BATCH=64,,internal/core:TestKillAndResumeByteIdentical|TestResumeOfCompleteJournal|TestResumeAfterTornTail|TestChaosDriverCrashResumeSoak|TestStageBracketPins|TestResumeRefusesForgedPrefix|TestRefusedRunJournalResumes|TestResumedRefusalReportsForgedComplete)

# overload-determinism pins the overload-protection contract: the
# chaos soak (deadlines, cancellation, retry budgets, breakers, and
# their interactions with reclaim/flake storms) must produce
# byte-identical artifacts for the same seed at every sweep worker
# count, and a cancelled or deadline-exceeded run must resume from its
# journal as a pure replay reproducing the same truncated report.
# Pinned across 2 worker counts × 2 group-commit batch sizes: neither
# scheduling nor fsync batching may leak into overload decisions.
overload-determinism:
	$(call determinism,OVERLOAD_WORKERS=1+JOURNAL_BATCH=1 OVERLOAD_WORKERS=1+JOURNAL_BATCH=64 OVERLOAD_WORKERS=4+JOURNAL_BATCH=1 OVERLOAD_WORKERS=4+JOURNAL_BATCH=64,,internal/core:TestChaosOverloadSoak|TestDeadlineCancelResumeByteIdentical|TestBreakerConvertsReclaimStorm)

# check is the gate a change must pass before review: static analysis
# (go vet, gofmt and the rnavet determinism analyzer), the full test suite
# under the race detector, the coverage floors, the sweep and
# MapReduce-engine determinism contracts, the journal resume contract,
# a fuzz smoke pass, the full-scale paper tables against their golden,
# the kernel benchmark regression gate and a smoke run of the
# whole-system benchmark.
check: vet lint race cover sweep-determinism oracle-determinism journal-determinism overload-determinism fuzz-smoke paper-pins bench-gate bench-smoke

# bench regenerates the paper tables at quick scale.
bench:
	$(GO) run ./cmd/benchtab -experiment all

# paper-pins regenerates every paper table and figure at full scale
# (about a minute) and fails unless the output equals the committed
# cmd/benchtab/testdata/full.golden byte for byte; the quick-scale twin
# is TestQuickGolden. After a deliberate change to a paper value,
# rewrite the golden with `benchtab -experiment all -scale full`.
paper-pins:
	@mkdir -p $(BUILD_DIR)
	$(GO) build -o $(BUILD_DIR)/benchtab ./cmd/benchtab
	$(BUILD_DIR)/benchtab -experiment all -scale full > $(BUILD_DIR)/full.txt
	cmp $(BUILD_DIR)/full.txt cmd/benchtab/testdata/full.golden

# bench-gate measures the hot kernels (internal/kernelbench's
# fixed-seed BenchmarkKernels, 10 ops each) and fails if any regressed
# beyond tolerance against the committed BENCH_baseline.txt, or is
# missing. The gate is allocation counts and bytes (deterministic for
# a fixed toolchain); wall time is printed, never gated. Improvements
# never fail — lock them in with bench-baseline.
bench-gate:
	@mkdir -p $(BUILD_DIR)
	$(GO) test -run '^$$' -bench Kernels -benchmem -benchtime 10x ./internal/kernelbench > $(BUILD_DIR)/kernels.txt || { cat $(BUILD_DIR)/kernels.txt; exit 1; }
	$(GO) run ./cmd/benchgate BENCH_baseline.txt $(BUILD_DIR)/kernels.txt

# bench-baseline re-measures the kernels and rewrites the committed
# baseline, the raw `go test` output. Run on a quiet machine after a
# deliberate performance change, and commit the result.
bench-baseline:
	$(GO) test -run '^$$' -bench Kernels -benchmem -benchtime 10x ./internal/kernelbench > BENCH_baseline.txt || { cat BENCH_baseline.txt; exit 1; }
	@echo "BENCH_baseline.txt rewritten; review and commit it."

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

# size prints the non-test Go lines of each package outside bench/ and
# testdata, their total, and the //rnavet:allow directives in product
# code (standalone or trailing a code line; the analyzer's own docs
# only mention them). It is the one source for a change's line claims
# and stays out of check: it measures, it never fails.
SIZE_FIND = find . \( -path ./bench -o -name testdata -o -name '.*' ! -name . \) -prune -o \
	-name '*.go' ! -name '*_test.go' -print
size:
	@$(SIZE_FIND) | sort | xargs wc -l | awk '$$2 != "total" { \
		d = $$2; sub(/\/[^\/]*$$/, "", d); sub(/^\.\/?/, "", d); if (d == "") d = "."; n[d] += $$1; t += $$1 } \
		END { for (d in n) printf "%7d  %s\n", n[d], d | "sort -k2"; close("sort -k2"); printf "%7d  total\n", t }'
	@$(SIZE_FIND) | xargs grep -hE '^\s*//rnavet:allow [a-z]+|^\s*[^/[:space:]].*//rnavet:allow [a-z]+' | wc -l | \
		awk '{ printf "%7d  //rnavet:allow directives\n", $$1 }'

clean:
	rm -rf $(BUILD_DIR)
	rm -f cover.*.out
	$(GO) clean ./...
