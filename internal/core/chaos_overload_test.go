package core

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"testing"

	_ "rnascale/internal/assembler/all"
	"rnascale/internal/cloud"
	"rnascale/internal/faults"
	"rnascale/internal/journal"
	"rnascale/internal/obs"
	"rnascale/internal/pilot"
	"rnascale/internal/simdata"
	"rnascale/internal/sweep"
	"rnascale/internal/vclock"
)

// overloadWorkers reads the sweep worker count from OVERLOAD_WORKERS,
// so `make overload-determinism` can run the soak across worker
// counts: the same seed must produce the same bytes no matter how the
// runs are interleaved across goroutines.
func overloadWorkers() int {
	if s := os.Getenv("OVERLOAD_WORKERS"); s != "" {
		if n, err := strconv.Atoi(s); err == nil && n > 0 {
			return n
		}
	}
	return runtime.GOMAXPROCS(0)
}

// cleanChaosTTC runs the chaos configuration once without faults and
// reports its TTC, anchoring deadline fractions for the scenarios.
func cleanChaosTTC(t *testing.T) vclock.Duration {
	t.Helper()
	rep, _, _, err := runChaos(t, chaosConfig())
	if err != nil {
		t.Fatalf("clean run: %v", err)
	}
	if rep.Outcome != OutcomeComplete {
		t.Fatalf("clean run outcome %q, want %q", rep.Outcome, OutcomeComplete)
	}
	return rep.TTC
}

// TestChaosOverloadSoak drives the pipeline under every overload
// protection — virtual-time deadlines, hard cancellation, retry
// budgets and backend circuit breakers — combined with fault storms,
// across seeds, each run twice. Every run must end in a classified
// outcome (complete, deadline_exceeded, cancelled, or a clean stage
// failure), and the same seed must replay byte-identically: the
// protections are part of the simulation, not wall-clock behavior.
func TestChaosOverloadSoak(t *testing.T) {
	cleanTTC := cleanChaosTTC(t)
	scenarios := []struct {
		name string
		spec string // fault plan, "" for none
		// mutate arms the overload knobs given the clean-run TTC.
		mutate func(cfg *Config)
		// outcome is the only CutoffError outcome the scenario may
		// produce ("" = no cutoff expected).
		outcome Outcome
	}{
		{
			// The deadline lands mid-run on every seed: remaining work is
			// cancelled deterministically.
			name:    "deadline-always",
			spec:    "",
			mutate:  func(cfg *Config) { cfg.Deadline = cleanTTC * 6 / 10 },
			outcome: OutcomeDeadlineExceeded,
		},
		{
			// The deadline clears a clean run but flaky units push some
			// seeds past it: mixed complete/deadline_exceeded outcomes.
			name:    "deadline-contended",
			spec:    "unitflake:p=0.6,n=2",
			mutate:  func(cfg *Config) { cfg.Deadline = cleanTTC * 12 / 10 },
			outcome: OutcomeDeadlineExceeded,
		},
		{
			name:    "cancel-at",
			spec:    "",
			mutate:  func(cfg *Config) { cfg.CancelAt = cleanTTC / 2 },
			outcome: OutcomeCancelled,
		},
		{
			// Three flakes per struck unit need three retries; a budget of
			// one fails the stage on the second.
			name: "retry-budget",
			spec: "unitflake:p=0.6,n=3",
			mutate: func(cfg *Config) {
				cfg.RetryBudget = 1
			},
		},
		{
			// A reclaim storm on spot capacity trips the breaker; later
			// stages fall back to on-demand instead of re-entering the
			// storm.
			name: "breaker-reclaim",
			spec: "reclaim:p=0.8,after=60,window=600",
			mutate: func(cfg *Config) {
				cfg.Backends = StageBackends{PA: cloud.Spot, PB: cloud.Spot}
				cfg.Breaker = &cloud.BreakerOptions{Threshold: 1}
			},
		},
		{
			// Serverless flake wave with a budget and breaker: exercises
			// the function runner's budget/cutoff/breaker paths.
			name: "serverless-budget",
			spec: "unitflake:p=0.5,n=2",
			mutate: func(cfg *Config) {
				cfg.Backends = StageBackends{PA: cloud.Serverless}
				cfg.RetryBudget = 2
				cfg.Breaker = &cloud.BreakerOptions{Threshold: 2}
			},
		},
		{
			name: "mixed",
			spec: "reclaim:p=0.4,after=60,window=600;unitflake:p=0.4,n=1",
			mutate: func(cfg *Config) {
				cfg.Deadline = cleanTTC * 14 / 10
				cfg.RetryBudget = 4
				cfg.Backends = StageBackends{PB: cloud.Spot}
				cfg.Breaker = &cloud.BreakerOptions{Threshold: 2}
			},
			outcome: OutcomeDeadlineExceeded,
		},
	}
	seeds := 8
	if testing.Short() {
		seeds = 3
	}
	for _, sc := range scenarios {
		sc := sc
		t.Run(sc.name, func(t *testing.T) {
			t.Parallel()
			var plan *faults.Plan
			if sc.spec != "" {
				p, err := faults.ParseSpec(sc.spec)
				if err != nil {
					t.Fatalf("spec %q: %v", sc.spec, err)
				}
				plan = p
			}
			type seedResult struct {
				rep1, rep2   *Report
				pl1          *Pipeline
				snap1, snap2 string
				err1, err2   error
			}
			results, mapErr := sweep.Map(seeds, func(i int) (seedResult, error) {
				cfg := chaosConfig()
				cfg.FaultPlan = plan
				cfg.FaultSeed = uint64(i + 1)
				sc.mutate(&cfg)
				var r seedResult
				r.rep1, r.pl1, r.snap1, r.err1 = runChaos(t, cfg)
				r.rep2, _, r.snap2, r.err2 = runChaos(t, cfg)
				return r, nil
			}, sweep.Options{Workers: overloadWorkers()})
			if mapErr != nil {
				t.Fatal(mapErr)
			}
			var completed, cutOff, failed int
			for i, r := range results {
				seed := uint64(i + 1)
				if (r.err1 == nil) != (r.err2 == nil) {
					t.Fatalf("seed %d: outcomes diverge: %v vs %v", seed, r.err1, r.err2)
				}
				if r.err1 != nil && r.err1.Error() != r.err2.Error() {
					t.Fatalf("seed %d: errors diverge:\n  %v\n  %v", seed, r.err1, r.err2)
				}
				if r.snap1 != r.snap2 {
					t.Fatalf("seed %d: snapshots differ (%d vs %d bytes)", seed, len(r.snap1), len(r.snap2))
				}
				if r.rep1 == nil {
					t.Fatalf("seed %d: nil report (%v)", seed, r.err1)
				}
				var ce *CutoffError
				switch {
				case r.err1 == nil:
					completed++
					if r.rep1.Outcome != OutcomeComplete {
						t.Errorf("seed %d: completed with outcome %q", seed, r.rep1.Outcome)
					}
				case errors.As(r.err1, &ce):
					cutOff++
					if sc.outcome == "" {
						t.Errorf("seed %d: unexpected cutoff %v", seed, r.err1)
					} else if ce.Outcome != sc.outcome {
						t.Errorf("seed %d: cutoff outcome %q, want %q", seed, ce.Outcome, sc.outcome)
					}
					if r.rep1.Outcome != ce.Outcome {
						t.Errorf("seed %d: report outcome %q != error outcome %q",
							seed, r.rep1.Outcome, ce.Outcome)
					}
					if ce.At < ce.Cutoff {
						t.Errorf("seed %d: cut off at %v before cutoff %v", seed, ce.At, ce.Cutoff)
					}
				default:
					failed++
					if r.rep1.Outcome != "" {
						t.Errorf("seed %d: plain failure carries outcome %q", seed, r.rep1.Outcome)
					}
					if sc.name == "retry-budget" && !strings.Contains(r.err1.Error(), "retry budget exhausted") {
						t.Errorf("seed %d: budget scenario failed without budget error: %v", seed, r.err1)
					}
				}
				// Teardown is unconditional: cut-off and failed runs may
				// not leak VMs any more than completed ones.
				if n := len(r.pl1.provider.Running()); n != 0 {
					t.Errorf("seed %d: %d VMs still running after run (err=%v)", seed, n, r.err1)
				}
			}
			if sc.name == "deadline-always" && cutOff != seeds {
				t.Errorf("deadline below clean TTC cut off %d/%d runs", cutOff, seeds)
			}
			if sc.name == "cancel-at" && cutOff != seeds {
				t.Errorf("cancel-at cut off %d/%d runs", cutOff, seeds)
			}
			t.Logf("%s: %d completed, %d cut off, %d failed over %d seeds",
				sc.name, completed, cutOff, failed, seeds)
		})
	}
}

// TestBreakerConvertsReclaimStorm pins the breaker's point: under a
// total spot reclaim storm, a tripped breaker reroutes later stages
// to on-demand, the run completes, total unit attempts stay bounded
// by units + the retry budget, and the on-demand fallback is visible
// in the stage notes and the bill.
func TestBreakerConvertsReclaimStorm(t *testing.T) {
	cfg := chaosConfig()
	// Seed 2 is a calibrated storm: reclaims strike PB's spot capacity
	// (tripping the breaker mid-PB), and PC — which also asks for spot
	// — launches after the trip, so the breaker reroutes it.
	plan, err := faults.ParseSpec("reclaim:p=0.5,after=30,window=600")
	if err != nil {
		t.Fatal(err)
	}
	cfg.FaultPlan = plan
	cfg.FaultSeed = 2
	cfg.Backends = StageBackends{PB: cloud.Spot, PC: cloud.Spot}
	cfg.Breaker = &cloud.BreakerOptions{Threshold: 1, Cooldown: 4 * vclock.Hour}
	budget := 6
	cfg.RetryBudget = budget

	rep, pl, _, err := runChaos(t, cfg)
	if err != nil {
		t.Fatalf("storm run did not complete: %v", err)
	}
	spot := pl.o.Metrics.Gauge(cloud.MetricBreakerState, "", obs.Labels{"backend": cloud.Spot.String()}).Value()
	if cloud.BreakerState(spot) != cloud.BreakerOpen {
		t.Errorf("spot breaker state %v after total reclaim storm, want open", cloud.BreakerState(spot))
	}
	var fallbacks int
	for _, st := range rep.Stages {
		if strings.Contains(st.Note, "breaker open, on-demand fallback") {
			fallbacks++
		}
	}
	if fallbacks == 0 {
		t.Error("no stage reports an on-demand breaker fallback")
	}
	// Attempt bound: every unit gets its first attempt for free, so
	// total attempts ≤ units + retries; the budget caps run-wide
	// retries, making the whole storm's attempt count bounded.
	retries := int(pl.o.Metrics.Counter(pilot.MetricRetries, "", nil).Value())
	if retries > budget {
		t.Errorf("run spent %d retries, budget %d", retries, budget)
	}
	// The fallback bought on-demand capacity: the bill must show
	// on-demand instance hours (empty Backend) even though both
	// stages asked for spot.
	var onDemandHours float64
	for _, line := range rep.Bill {
		if line.Backend == "" {
			onDemandHours += line.InstanceHours
		}
	}
	if onDemandHours == 0 {
		t.Errorf("bill shows no on-demand hours after fallback: %+v", rep.Bill)
	}
}

// TestDeadlineCancelResumeByteIdentical is the cancelled-run resume
// contract: a run cut off at its deadline journals the cancellation,
// and resuming the cancelled journal is a no-op that reproduces the
// same truncated report byte-for-byte without appending any records.
func TestDeadlineCancelResumeByteIdentical(t *testing.T) {
	cleanTTC := cleanChaosTTC(t)
	ds, err := simdata.GenerateCached(simdata.Tiny())
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name    string
		mutate  func(cfg *Config)
		outcome Outcome
	}{
		{"deadline", func(cfg *Config) { cfg.Deadline = cleanTTC * 6 / 10 }, OutcomeDeadlineExceeded},
		{"cancel-at", func(cfg *Config) { cfg.CancelAt = cleanTTC / 2 }, OutcomeCancelled},
	} {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			path := filepath.Join(dir, "cutoff.journal")
			cfg := chaosConfig()
			tc.mutate(&cfg)

			rep, pl, runErr := journalRun(t, ds, cfg, path)
			var ce *CutoffError
			if !errors.As(runErr, &ce) {
				t.Fatalf("run returned %v, want CutoffError", runErr)
			}
			if ce.Outcome != tc.outcome || rep.Outcome != tc.outcome {
				t.Fatalf("outcomes %q/%q, want %q", ce.Outcome, rep.Outcome, tc.outcome)
			}
			want := capture(t, rep, pl)
			wantBody := journalBody(t, path)

			// The journal records the cancellation and still completes:
			// the truncated run is a finished, classified artifact.
			lg, err := journal.Open(path)
			if err != nil {
				t.Fatal(err)
			}
			if !lg.Complete() {
				t.Fatal("cancelled run's journal lacks the complete record")
			}
			var cancelledRecs int
			for _, rec := range lg.Records {
				if rec.Kind == journal.KindCancelled {
					cancelledRecs++
					if rec.Note != string(tc.outcome) {
						t.Errorf("cancelled record notes %q, want %q", rec.Note, tc.outcome)
					}
				}
			}
			if cancelledRecs != 1 {
				t.Fatalf("journal holds %d cancelled records, want 1", cancelledRecs)
			}

			cfg.Obs = obs.New()
			rrep, rpl, rerr := ResumePipeline(ds, cfg, path)
			if !errors.As(rerr, &ce) {
				t.Fatalf("resume returned %v, want the same CutoffError", rerr)
			}
			if rerr.Error() != runErr.Error() {
				t.Fatalf("resume error %q != original %q", rerr, runErr)
			}
			// A unit preempted mid-execution leaves no journal record,
			// so resume may re-simulate it (and re-preempt it at the
			// same cutoff) — but it must never append anything new.
			st := rrep.Journal
			if st == nil || !st.Resumed || st.RecordsAppended != 0 {
				t.Fatalf("resume of a cancelled run appended records: %+v", st)
			}
			got := capture(t, rrep, rpl)
			if got.trace != want.trace || got.metrics != want.metrics ||
				got.summary != want.summary || got.timeline != want.timeline {
				t.Error("resumed artifacts differ from the original truncated run")
			}
			if !rrep.Snapshot.Resumed {
				t.Error("resumed run's snapshot lacks the resumed marker")
			}
			rrep.Snapshot.Resumed = false
			var buf bytes.Buffer
			if err := rrep.Snapshot.WriteJSON(&buf); err != nil {
				t.Fatal(err)
			}
			if buf.String() != want.snapshot {
				t.Errorf("snapshot differs beyond the resumed marker:\n--- resumed\n%s\n--- original\n%s",
					buf.String(), want.snapshot)
			}
			if body := journalBody(t, path); body != wantBody {
				t.Error("resume appended to a cancelled run's journal")
			}
		})
	}
}
