package core

import (
	"bytes"
	"fmt"
	"runtime"
	"strings"
	"testing"

	_ "rnascale/internal/assembler/all"
	"rnascale/internal/faults"
	"rnascale/internal/obs"
	"rnascale/internal/simdata"
	"rnascale/internal/sweep"
	"rnascale/internal/vclock"
)

// chaosConfig is the fastest full-pipeline configuration: one
// assembler, no truth evaluation, S1 static so PB boots fresh VMs
// with predictable ordinals.
func chaosConfig() Config {
	cfg := DefaultConfig()
	cfg.Assemblers = []string{"ray"}
	cfg.Scheme = S1
	cfg.Pattern = DistributedStatic
	return cfg
}

// runChaos executes one pipeline run and captures the snapshot bytes
// (empty when the run failed before the report was finalized). It may
// run on a sweep worker goroutine, so it reports snapshot-write
// failures with Errorf (goroutine-safe) rather than Fatal.
func runChaos(t *testing.T, cfg Config) (*Report, *Pipeline, string, error) {
	t.Helper()
	ds, err := simdata.GenerateCached(simdata.Tiny())
	if err != nil {
		// Captured by the sweep engine as the cell's error when this
		// runs on a worker goroutine (t.Fatal is not legal there).
		panic(err)
	}
	pl := New(cfg)
	rep, err := pl.Run(ds)
	var buf bytes.Buffer
	if rep != nil && rep.Snapshot != nil {
		if werr := rep.Snapshot.WriteJSON(&buf); werr != nil {
			t.Errorf("snapshot write: %v", werr)
		}
	}
	return rep, pl, buf.String(), err
}

// TestChaosSoak drives the full pipeline under every fault class (and
// a mixed storm) across ten seeds each, run twice per seed. Every run
// must either complete or fail cleanly per policy, and the same seed
// must replay byte-identically.
func TestChaosSoak(t *testing.T) {
	scenarios := []struct {
		name string
		spec string
	}{
		{"crash", "crash:p=0.4,after=60,window=1800"},
		{"reclaim", "reclaim:p=0.4,after=120,window=1800"},
		{"bootfail", "bootfail:p=0.2"},
		{"unitflake", "unitflake:p=0.6,n=2"},
		{"slowxfer", "slowxfer:x=0.5"},
		{"mixed", "crash:p=0.25,after=60,window=1200;unitflake:p=0.4,n=1;slowxfer:x=0.75"},
	}
	seeds := 10
	if testing.Short() {
		seeds = 3
	}
	for _, sc := range scenarios {
		sc := sc
		t.Run(sc.name, func(t *testing.T) {
			t.Parallel()
			plan, err := faults.ParseSpec(sc.spec)
			if err != nil {
				t.Fatalf("spec %q: %v", sc.spec, err)
			}
			// Each seed is an isolated simulation pair; fan the seed
			// matrix across the sweep engine and assert on the ordered
			// results back on the test goroutine.
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
				var r seedResult
				r.rep1, r.pl1, r.snap1, r.err1 = runChaos(t, cfg)
				r.rep2, _, r.snap2, r.err2 = runChaos(t, cfg)
				return r, nil
			}, sweep.Options{Workers: runtime.GOMAXPROCS(0)})
			if mapErr != nil {
				t.Fatal(mapErr)
			}
			var completed, failed int
			for i, r := range results {
				seed := uint64(i + 1)
				rep1, pl1, snap1, err1 := r.rep1, r.pl1, r.snap1, r.err1
				rep2, snap2, err2 := r.rep2, r.snap2, r.err2

				// Same seed ⇒ identical outcome, byte-identical snapshot.
				if (err1 == nil) != (err2 == nil) {
					t.Fatalf("seed %d: outcomes diverge: %v vs %v", seed, err1, err2)
				}
				if err1 != nil && err1.Error() != err2.Error() {
					t.Fatalf("seed %d: errors diverge:\n  %v\n  %v", seed, err1, err2)
				}
				if snap1 != snap2 {
					t.Fatalf("seed %d: snapshots differ (%d vs %d bytes)", seed, len(snap1), len(snap2))
				}

				if err1 == nil {
					completed++
					if len(rep1.Transcripts) == 0 {
						t.Errorf("seed %d: completed without transcripts", seed)
					}
					if rep1.Recovery.UnitsRecovered > rep1.Recovery.Retries {
						t.Errorf("seed %d: recovered %d units with only %d retries",
							seed, rep1.Recovery.UnitsRecovered, rep1.Recovery.Retries)
					}
				} else {
					failed++
					if rep1 == nil {
						t.Fatalf("seed %d: failed run returned nil report: %v", seed, err1)
					}
				}
				// Clean teardown: once the report is finalized no VM may
				// still be running (crashed VMs were applied, survivors
				// terminated).
				if rep1 != nil && rep1.Snapshot != nil {
					if n := len(pl1.provider.Running()); n != 0 {
						t.Errorf("seed %d: %d VMs still running after run (err=%v)", seed, n, err1)
					}
				}
				if rep2 != nil && rep1 != nil && err1 == nil {
					if rep1.Recovery.String() != rep2.Recovery.String() {
						t.Errorf("seed %d: recovery reports diverge: %s vs %s",
							seed, rep1.Recovery, rep2.Recovery)
					}
				}
			}
			t.Logf("%s: %d completed, %d failed cleanly over %d seeds", sc.name, completed, failed, seeds)
		})
	}
}

// TestMidPBCrashRecoveryDemo is the acceptance scenario from the
// issue: a VM hosting an assembly job crashes mid-PB; the pilot goes
// degraded, a replacement boots, the unit retries and the run
// completes — recovery visible in counters, span tree and the bill.
func TestMidPBCrashRecoveryDemo(t *testing.T) {
	cfg := chaosConfig()

	// Calibrate: run clean once and read the PB unit window off the
	// span tree so the crash lands mid-assembly.
	clean, plClean, _, err := runChaos(t, cfg)
	if err != nil {
		t.Fatal(err)
	}
	pbSpan := plClean.o.Tracer.Find(obs.KindStage, "PB")
	if pbSpan == nil {
		t.Fatal("no PB stage span in clean run")
	}
	var unit *obs.Span
	for _, p := range pbSpan.Children() {
		for _, u := range p.Children() {
			if unit == nil || u.Start < unit.Start {
				unit = u
			}
		}
	}
	if unit == nil {
		t.Fatal("no unit spans under PB stage")
	}
	crashAt := unit.Start.Add(unit.Duration() / 2)

	// VM ordinals: PA boots #1 (one shard ⇒ one VM); under S1 the PB
	// cluster boots fresh, so its head node is ordinal 2.
	spec := fmt.Sprintf("crash:at=%.0f,vm=2", float64(crashAt))
	plan, err := faults.ParseSpec(spec)
	if err != nil {
		t.Fatal(err)
	}
	cfg.FaultPlan = plan
	cfg.FaultSeed = 42

	rep, pl, snap, err := runChaos(t, cfg)
	if err != nil {
		t.Fatalf("run with %q did not recover: %v", spec, err)
	}
	if len(rep.Transcripts) != len(clean.Transcripts) {
		t.Errorf("faulted run produced %d transcripts, clean %d",
			len(rep.Transcripts), len(clean.Transcripts))
	}
	rr := rep.Recovery
	if rr.UnitsRecovered < 1 {
		t.Errorf("units recovered = %d, want >= 1 (%s)", rr.UnitsRecovered, rr)
	}
	if rr.Retries < 1 || rr.VMsLost < 1 {
		t.Errorf("retries=%d vmsLost=%d, want both >= 1", rr.Retries, rr.VMsLost)
	}
	if got := rr.FaultsInjected[string(faults.ClassCrash)]; got < 1 {
		t.Errorf("faults injected for crash = %d, want >= 1", got)
	}

	// The retry and the node loss are visible in the span tree.
	var tree bytes.Buffer
	if err := pl.o.Tracer.WriteTree(&tree); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(tree.String(), "AGENT_RETRYING") {
		t.Error("span tree lacks AGENT_RETRYING event")
	}
	if !strings.Contains(tree.String(), "lost") {
		t.Error("span tree lacks node-loss note")
	}

	// The replacement VM's hours land in the bill: one more instance
	// than the clean run, and at least as many billed hours.
	cleanHours := plClean.provider.TotalInstanceHours()
	faultHours := pl.provider.TotalInstanceHours()
	if faultHours < cleanHours {
		t.Errorf("faulted run billed %.2f instance-hours < clean %.2f", faultHours, cleanHours)
	}
	if rep.CostUSD < clean.CostUSD {
		t.Errorf("faulted run cost $%.4f < clean $%.4f", rep.CostUSD, clean.CostUSD)
	}

	// Same seed replays byte-identically.
	_, _, snapAgain, errAgain := runChaos(t, cfg)
	if errAgain != nil {
		t.Fatal(errAgain)
	}
	if snap != snapAgain {
		t.Error("same seed produced different snapshot bytes")
	}
	if crashAt <= vclock.Time(0) {
		t.Fatalf("bogus crash time %v", crashAt)
	}
}
