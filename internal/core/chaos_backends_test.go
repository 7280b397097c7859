package core

import (
	"bytes"
	"errors"
	"fmt"
	"path/filepath"
	"runtime"
	"strings"
	"testing"

	_ "rnascale/internal/assembler/all"
	"rnascale/internal/cloud"
	"rnascale/internal/faults"
	"rnascale/internal/obs"
	"rnascale/internal/simdata"
	"rnascale/internal/sweep"
)

// stormSpot is a hot, volatile spot market: the walk starts near the
// on-demand price with the reclaim knee pulled down, so price-coupled
// reclaims fire throughout the run instead of almost never.
func stormSpot(seed uint64) *cloud.SpotOptions {
	return &cloud.SpotOptions{
		Seed:              seed,
		InitialFrac:       0.95,
		Volatility:        0.15,
		ReclaimKnee:       0.35,
		MaxReclaimPerStep: 0.5,
	}
}

var allSpot = StageBackends{PA: cloud.Spot, PB: cloud.Spot, PC: cloud.Spot}
var allFaas = StageBackends{PA: cloud.Serverless, PB: cloud.Serverless, PC: cloud.Serverless}

// backendScenario is one spot/serverless chaos cell: a worker-fault
// spec (possibly empty — market reclaims need no fault plan) plus a
// config mutator applied per seed. The same table drives the soak and
// the kill/resume test, so every scenario is exercised both ways.
type backendScenario struct {
	name string
	spec string
	// resumeSeed is a seed whose run completes with recovery activity —
	// the kill/resume test needs a completing crash-free twin.
	resumeSeed uint64
	configure  func(cfg *Config, seed uint64)
}

func backendScenarios() []backendScenario {
	return []backendScenario{
		{
			// Market-driven reclaim storm: every stage on spot under a
			// hot market; reclaims strike all through the run and the
			// spot-implied retry policy replaces the lost nodes.
			name:       "spot-reclaim-storm",
			resumeSeed: 4,
			configure: func(cfg *Config, seed uint64) {
				cfg.Backends = allSpot
				copts := cloud.DefaultOptions()
				copts.Spot = stormSpot(seed)
				cfg.Cloud = &copts
			},
		},
		{
			// Fault-plan reclaims with a shortened advance notice firing
			// mid-unit on spot capacity (the default market stays calm,
			// so the plan's reclaims are the ones that strike).
			name:       "spot-reclaim-notice",
			spec:       "reclaim:p=0.5,after=120,window=2400,notice=60",
			resumeSeed: 5,
			configure: func(cfg *Config, seed uint64) {
				cfg.Backends = allSpot
			},
		},
		{
			// Cold-start burst: every stage as function invocations, with
			// unit flakes forcing retries through the warm pool.
			name:       "serverless-cold-burst",
			spec:       "unitflake:p=0.5,n=2",
			resumeSeed: 4,
			configure: func(cfg *Config, seed uint64) {
				cfg.Backends = allFaas
			},
		},
	}
}

// TestChaosBackendSoak extends the chaos matrix to the spot and
// serverless backends: each scenario runs across seeds, twice per
// seed, and the same seed must replay byte-identically — market
// reclaims, reclaim notices and cold-start sequences included.
func TestChaosBackendSoak(t *testing.T) {
	seeds := 8
	if testing.Short() {
		seeds = 3
	}
	for _, sc := range backendScenarios() {
		sc := sc
		t.Run(sc.name, func(t *testing.T) {
			t.Parallel()
			var plan *faults.Plan
			if sc.spec != "" {
				var err error
				plan, err = faults.ParseSpec(sc.spec)
				if err != nil {
					t.Fatalf("spec %q: %v", sc.spec, err)
				}
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
				sc.configure(&cfg, uint64(i+1))
				var r seedResult
				r.rep1, r.pl1, r.snap1, r.err1 = runChaos(t, cfg)
				r.rep2, _, r.snap2, r.err2 = runChaos(t, cfg)
				return r, nil
			}, sweep.Options{Workers: runtime.GOMAXPROCS(0)})
			if mapErr != nil {
				t.Fatal(mapErr)
			}
			var completed, failed, vmsLost, cold int
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
				if r.err1 == nil {
					completed++
					if len(r.rep1.Transcripts) == 0 {
						t.Errorf("seed %d: completed without transcripts", seed)
					}
					if r.rep2 != nil && r.rep1.Recovery.String() != r.rep2.Recovery.String() {
						t.Errorf("seed %d: recovery reports diverge: %s vs %s",
							seed, r.rep1.Recovery, r.rep2.Recovery)
					}
				} else {
					failed++
					if r.rep1 == nil {
						t.Fatalf("seed %d: failed run returned nil report: %v", seed, r.err1)
					}
				}
				if r.rep1 != nil && r.rep1.Snapshot != nil {
					if n := len(r.pl1.provider.Running()); n != 0 {
						t.Errorf("seed %d: %d VMs still running after run (err=%v)", seed, n, r.err1)
					}
					vmsLost += r.rep1.Recovery.VMsLost
				}
				for _, pt := range r.pl1.o.Metrics.Points() {
					if pt.Name == cloud.MetricFnInvocations && pt.Labels["start"] == "cold" {
						cold += int(pt.Value)
					}
				}
			}
			// The scenario must actually bite somewhere in the matrix.
			switch sc.name {
			case "spot-reclaim-storm", "spot-reclaim-notice":
				if vmsLost == 0 {
					t.Errorf("no VM was reclaimed across %d seeds", seeds)
				}
			case "serverless-cold-burst":
				if cold == 0 {
					t.Errorf("no cold start across %d seeds", seeds)
				}
				if completed == 0 {
					t.Errorf("no serverless run completed across %d seeds", seeds)
				}
			}
			if completed == 0 && failed == 0 {
				t.Fatal("no cells ran")
			}
			t.Logf("%s: %d completed, %d failed cleanly, %d VMs lost, %d cold starts over %d seeds",
				sc.name, completed, failed, vmsLost, cold, seeds)
		})
	}
}

// TestChaosBackendKillResume is the journal acceptance for the backend
// scenarios: each cell runs once cleanly under a journal, is killed by
// a drivercrash calibrated to mid-PB, resumed from the surviving
// journal, and must converge on the crash-free twin's bytes — spot
// reclaim schedules and serverless cold/warm sequences included.
func TestChaosBackendKillResume(t *testing.T) {
	ds, err := simdata.GenerateCached(simdata.Tiny())
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	for _, sc := range backendScenarios() {
		sc := sc
		t.Run(sc.name, func(t *testing.T) {
			t.Parallel()
			// One fixed seed per scenario: deterministic, and chosen so
			// the twin completes (the soak above covers failing seeds).
			seed := sc.resumeSeed
			twin := chaosConfig()
			twin.FaultSeed = seed
			sc.configure(&twin, seed)
			if sc.spec != "" {
				plan, err := faults.ParseSpec(sc.spec)
				if err != nil {
					t.Fatal(err)
				}
				twin.FaultPlan = plan
			}
			twinPath := filepath.Join(dir, sc.name+"-twin.journal")
			clean, plClean, err := journalRun(t, ds, twin, twinPath)
			if err != nil {
				t.Fatalf("twin run: %v", err)
			}
			want := capture(t, clean, plClean)
			wantBody := journalBody(t, twinPath)
			// The chosen seed must actually exercise the scenario: spot
			// twins lose VMs to reclaims, the serverless twin retries
			// flaked function units.
			if strings.HasPrefix(sc.name, "spot") && clean.Recovery.VMsLost == 0 {
				t.Errorf("%s twin lost no VMs: %s", sc.name, clean.Recovery)
			}
			if sc.name == "serverless-cold-burst" && clean.Recovery.Retries == 0 {
				t.Errorf("%s twin retried nothing: %s", sc.name, clean.Recovery)
			}

			// Kill mid-PB, where reclaim/retry state is in flight.
			pbSpan := plClean.o.Tracer.Find(obs.KindStage, "PB")
			if pbSpan == nil {
				t.Fatal("no PB stage span in twin run")
			}
			crashAt := float64(pbSpan.Start.Add(pbSpan.Duration() / 2))
			spec := fmt.Sprintf("drivercrash:at=%g", crashAt)
			if sc.spec != "" {
				spec = sc.spec + ";" + spec
			}
			plan, err := faults.ParseSpec(spec)
			if err != nil {
				t.Fatal(err)
			}
			cfg := twin
			cfg.FaultPlan = plan
			path := filepath.Join(dir, sc.name+"-crash.journal")
			_, _, err = journalRun(t, ds, cfg, path)
			var dce *DriverCrashError
			if !errors.As(err, &dce) {
				t.Fatalf("run with %q returned %v, want DriverCrashError", spec, err)
			}

			cfg.Obs = obs.New()
			rep, pl, err := ResumePipeline(ds, cfg, path)
			if err != nil {
				t.Fatalf("resume: %v", err)
			}
			st := rep.Journal
			if st == nil || !st.Resumed || st.RecordsReplayed == 0 {
				t.Fatalf("resume replayed nothing: %+v", st)
			}

			got := capture(t, rep, pl)
			if got.trace != want.trace {
				t.Errorf("Chrome trace differs from twin (%d vs %d bytes)", len(got.trace), len(want.trace))
			}
			if got.metrics != want.metrics {
				t.Errorf("metrics differ from twin")
			}
			if got.summary != want.summary {
				t.Errorf("summary differs from twin")
			}
			if !rep.Snapshot.Resumed {
				t.Error("resumed snapshot lacks the resumed marker")
			}
			rep.Snapshot.Resumed = false
			var buf bytes.Buffer
			if err := rep.Snapshot.WriteJSON(&buf); err != nil {
				t.Fatal(err)
			}
			if buf.String() != want.snapshot {
				t.Errorf("snapshot differs from twin beyond the resumed marker")
			}
			if body := journalBody(t, path); body != wantBody {
				t.Errorf("final journal body differs from twin's")
			}
		})
	}
}
