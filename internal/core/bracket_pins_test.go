package core

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	_ "rnascale/internal/assembler/all"
	"rnascale/internal/cloud"
	"rnascale/internal/faults"
	"rnascale/internal/obs"
	"rnascale/internal/pilot"
	"rnascale/internal/simdata"
	"rnascale/internal/vclock"
)

// bracketPins is what one pinned run leaves behind: the SHA-256 of
// each capture() artifact and of the whole journal file, plus the
// returned error text verbatim.
type bracketPins struct {
	Err      string `json:"err"`
	Trace    string `json:"trace"`
	Metrics  string `json:"metrics"`
	Snapshot string `json:"snapshot"`
	Summary  string `json:"summary"`
	Timeline string `json:"timeline"`
	Journal  string `json:"journal"`
}

const bracketPinsFile = "testdata/bracket_pins.json"

func sha(s string) string {
	h := sha256.Sum256([]byte(s))
	return hex.EncodeToString(h[:])
}

// pinRun folds a journaled run into its pins. A run that died without
// a finished report (a driver crash) pins only its error and journal.
func pinRun(t *testing.T, rep *Report, pl *Pipeline, err error, path string) bracketPins {
	t.Helper()
	var p bracketPins
	if err != nil {
		p.Err = err.Error()
	}
	if rep != nil && rep.Snapshot != nil {
		a := capture(t, rep, pl)
		p.Trace, p.Metrics, p.Snapshot = sha(a.trace), sha(a.metrics), sha(a.snapshot)
		p.Summary, p.Timeline = sha(a.summary), sha(a.timeline)
	}
	b, rerr := os.ReadFile(path)
	if rerr != nil {
		t.Fatal(rerr)
	}
	p.Journal = sha(string(b))
	return p
}

// bracketScenario is one run that reaches a chosen exit of the stage
// bracket. check asserts the exit was the intended one, so a pin can
// never silently drift onto a different path.
type bracketScenario struct {
	name  string
	ds    *simdata.Dataset
	cfg   Config
	check func(rep *Report, err error) error
}

func wantComplete(rep *Report, err error) error {
	if err != nil || rep.Outcome != OutcomeComplete {
		return fmt.Errorf("want a complete run, got outcome %q err %v", rep.Outcome, err)
	}
	return nil
}

func wantErr(substr string) func(*Report, error) error {
	return func(rep *Report, err error) error {
		if err == nil || !strings.Contains(err.Error(), substr) {
			return fmt.Errorf("want an error containing %q, got %v", substr, err)
		}
		return nil
	}
}

// wantCutoff asserts a run cut off while stage was the last one
// reported, with the pilot column empty when the cutoff struck before
// the stage's vehicle launched.
func wantCutoff(stage string, launched bool) func(*Report, error) error {
	return func(rep *Report, err error) error {
		var ce *CutoffError
		if !errors.As(err, &ce) {
			return fmt.Errorf("want a CutoffError, got %v", err)
		}
		last := rep.Stages[len(rep.Stages)-1]
		if last.Name != stage || (last.Pilot != "") != launched {
			return fmt.Errorf("cut off in stage %s (pilot %q), want %s launched=%t", last.Name, last.Pilot, stage, launched)
		}
		return nil
	}
}

// wantUnitEvent asserts some unit whose ID contains substr entered
// state to with a note starting with note.
func wantUnitEvent(rep *Report, substr string, to pilot.UnitState, note string) error {
	for _, e := range rep.Events {
		if e.Kind == pilot.KindUnit && strings.Contains(e.ID, substr) &&
			e.To == string(to) && strings.HasPrefix(e.Note, note) {
			return nil
		}
	}
	return fmt.Errorf("no %q unit entered %s with note %q", substr, to, note)
}

// unitEnds reports the earliest and latest DONE time of the units
// whose IDs contain substr.
func unitEnds(rep *Report, substr string) (first, last vclock.Time) {
	first = vclock.Time(math.Inf(1))
	for _, e := range rep.Events {
		if e.Kind == pilot.KindUnit && strings.Contains(e.ID, substr) && e.To == string(pilot.UnitDone) {
			first, last = min(first, e.At), max(last, e.At)
		}
	}
	return first, last
}

// wantReleased asserts a run left nothing behind: no VM still running,
// and every pilot, pseudo-pilot and unit in the state store final.
func wantReleased(pl *Pipeline) error {
	if vms := pl.Provider().Running(); len(vms) > 0 {
		return fmt.Errorf("%d VMs still running, first %s", len(vms), vms[0].ID)
	}
	last := map[string]pilot.Event{}
	var ids []string
	for _, e := range pl.pm.Store().History() {
		if _, ok := last[e.ID]; !ok {
			ids = append(ids, e.ID)
		}
		last[e.ID] = e
	}
	for _, id := range ids {
		e := last[id]
		final := pilot.UnitState(e.To).Final()
		if e.Kind == pilot.KindPilot {
			final = pilot.PilotState(e.To).Final()
		}
		if !final {
			return fmt.Errorf("%s %s left in %s", e.Kind, id, e.To)
		}
	}
	return nil
}

// bracketBase is the pinned runs' common configuration: all three
// distributed assemblers on the tiny profile, S1 static so every stage
// boots its own vehicle, no DETONATE scoring.
func bracketBase() Config {
	cfg := tinyConfig()
	cfg.Scheme = S1
	cfg.Pattern = DistributedStatic
	cfg.EvaluateAgainstTruth = false
	return cfg
}

// bracketScenarios builds every pinned run. Cutoff times come from the
// stage reports of clean runs, so each lands on the exit it names.
func bracketScenarios(t *testing.T) []bracketScenario {
	t.Helper()
	ds, err := simdata.GenerateCached(simdata.Tiny())
	if err != nil {
		t.Fatal(err)
	}
	var out []bracketScenario
	add := func(name string, d *simdata.Dataset, check func(*Report, error) error, mutate func(*Config)) {
		cfg := bracketBase()
		mutate(&cfg)
		out = append(out, bracketScenario{name: name, ds: d, cfg: cfg, check: check})
	}
	spec := func(s string) *faults.Plan {
		p, err := faults.ParseSpec(s)
		if err != nil {
			t.Fatal(err)
		}
		return p
	}

	for _, scheme := range []MatchingScheme{S1, S2} {
		for _, pattern := range []WorkflowPattern{DistributedStatic, DistributedDynamic} {
			scheme, pattern := scheme, pattern
			add(fmt.Sprintf("complete/%s-%s", scheme, pattern), ds, wantComplete, func(c *Config) {
				c.Scheme, c.Pattern = scheme, pattern
				c.EvaluateAgainstTruth = scheme == S2 && pattern == DistributedDynamic
			})
		}
	}
	add("complete/conventional", ds, wantComplete, func(c *Config) { c.Scheme, c.Pattern = S2, Conventional })
	for _, scheme := range []MatchingScheme{S1, S2} {
		scheme := scheme
		add(fmt.Sprintf("complete/ray+contrail-%s", scheme), ds, wantComplete, func(c *Config) {
			c.Scheme = scheme
			c.Assemblers = []string{"ray", "contrail"}
		})
	}
	add("complete/sharded-PA", ds, wantComplete, func(c *Config) { c.ParallelPreprocessShards = 3 })

	// One stage as functions at a time, under both schemes: S2 hands
	// retained VMs to the next pilot, so entering and leaving a
	// serverless stage takes different paths there.
	for _, scheme := range []MatchingScheme{S1, S2} {
		for _, stage := range []string{"PA", "PB", "PC"} {
			scheme, stage := scheme, stage
			add(fmt.Sprintf("serverless/%s-%s", stage, scheme), ds, wantComplete, func(c *Config) {
				c.Scheme, c.Pattern = scheme, DistributedDynamic
				switch stage {
				case "PA":
					c.Backends.PA = cloud.Serverless
				case "PB":
					c.Backends.PB = cloud.Serverless
				default:
					c.Backends.PC = cloud.Serverless
				}
			})
		}
	}
	// Handovers between two function stages, and from functions into a
	// fresh pilot.
	add("serverless/all-S2", ds, wantComplete, func(c *Config) {
		c.Scheme, c.Pattern = S2, DistributedDynamic
		c.Backends = StageBackends{PA: cloud.Serverless, PB: cloud.Serverless, PC: cloud.Serverless}
	})
	add("serverless/PA+PB-S1", ds, wantComplete, func(c *Config) {
		c.Scheme, c.Pattern = S1, DistributedDynamic
		c.Backends = StageBackends{PA: cloud.Serverless, PB: cloud.Serverless}
	})

	// A serverless PB under its own retry policy: every unit's first
	// two invocations flake, so each recovers on its third through the
	// function path's backoff.
	add("serverless/PB-unitflake-retry", ds, func(rep *Report, err error) error {
		if err := wantComplete(rep, err); err != nil {
			return err
		}
		return wantUnitEvent(rep, "-k", pilot.UnitRetrying, "attempt 2 failed")
	}, func(c *Config) {
		c.Scheme, c.Pattern = S1, DistributedDynamic
		c.Backends.PB = cloud.Serverless
		c.FaultPlan = spec("unitflake:p=1,n=2")
		c.Retry.PB = pilot.RetryPolicy{MaxRetries: 2, Backoff: 20 * vclock.Second, Factor: 3}
	})

	// TestBreakerConvertsReclaimStorm's calibrated storm: the spot
	// breaker trips mid-PB and PC falls back on-demand.
	add("breaker/on-demand-fallback", ds, func(rep *Report, err error) error {
		if err := wantComplete(rep, err); err != nil {
			return err
		}
		if pc, _ := rep.Stage("PC"); !strings.Contains(pc.Note, "breaker open") {
			return fmt.Errorf("PC note %q shows no breaker fallback", pc.Note)
		}
		return nil
	}, func(c *Config) {
		c.Assemblers = []string{"ray"}
		c.FaultPlan = spec("reclaim:p=0.5,after=30,window=600")
		c.FaultSeed = 2
		c.Backends = StageBackends{PB: cloud.Spot, PC: cloud.Spot}
		c.Breaker = &cloud.BreakerOptions{Threshold: 1, Cooldown: 4 * vclock.Hour}
		c.RetryBudget = 6
	})

	// TestStaticUndersizedFailsDynamicAdapts' OOM: a P. Crispa-sized PA
	// on a static c3.2xlarge.
	prof := simdata.Tiny()
	prof.FullScale = simdata.PCrispa().FullScale
	prof.FullScale.AssemblyKmers = simdata.Tiny().FullScale.AssemblyKmers
	big, err := simdata.GenerateCached(prof)
	if err != nil {
		t.Fatal(err)
	}
	add("fail/PA-undersized", big, wantErr("core: PA pre-processing failed on c3.2xlarge"), func(c *Config) {})

	// Every attempt flakes five times: PA (ten retries) survives, the
	// first PB unit exhausts its default three.
	add("fail/PB-first-unit", ds, wantErr("core: PB unit unit.00001(ray-k21) failed"), func(c *Config) {
		c.FaultPlan = spec("unitflake:p=1,n=5")
		c.Retry.PA = pilot.RetryPolicy{MaxRetries: 10}
	})
	// Some PB units survive their flakes and one later in submission
	// order does not: the units before it are folded into the report.
	add("fail/PB-later-unit", ds, wantErr("core: PB unit unit.00006(contrail-k25) failed"), func(c *Config) {
		c.FaultPlan = spec("unitflake:p=0.7,n=2")
		c.FaultSeed = 1
		c.Retry.PA = pilot.RetryPolicy{MaxRetries: 10}
		c.Retry.PB = pilot.RetryPolicy{MaxRetries: 1}
		c.Retry.PC = pilot.RetryPolicy{MaxRetries: 10}
	})
	add("fail/PC-unit", ds, wantErr("core: PC post-processing failed"), func(c *Config) {
		c.Assemblers = []string{"ray"}
		c.FaultPlan = spec("unitflake:p=1,n=5")
		c.Retry.PA = pilot.RetryPolicy{MaxRetries: 10}
		c.Retry.PB = pilot.RetryPolicy{MaxRetries: 10}
		c.Retry.PC = pilot.RetryPolicy{MaxRetries: 1}
	})

	add("launch/bootfail-PA", ds, wantErr("core: launching PA"), func(c *Config) {
		c.FaultPlan = spec("bootfail:n=1")
	})
	add("launch/max-instances-PB", ds, wantErr("core: launching PB"), func(c *Config) {
		opts := cloud.DefaultOptions()
		opts.MaxInstances = 4
		c.Cloud = &opts
	})

	// Cutoffs, placed off a clean run of the base configuration: at a
	// stage's opening (before its launch), inside its launch (so every
	// unit cancels), and — on a PB cluster too small to run all jobs at
	// once — in the middle of the stage's units.
	clean, err := Run(ds, bracketBase())
	if err != nil {
		t.Fatal(err)
	}
	stages := map[string]StageReport{}
	for _, s := range clean.Stages {
		stages[s.Name] = s
	}
	prev := map[string]string{"PA": "transfer", "PB": "PA", "PC": "PB"}
	for _, stage := range []string{"PA", "PB", "PC"} {
		stage := stage
		open, launched := stages[prev[stage]].End, stages[stage].Start
		add("cutoff/"+stage+"-before-launch", ds, wantCutoff(stage, false), func(c *Config) {
			c.CancelAt = vclock.Duration(open)
		})
		add("cutoff/"+stage+"-mid-launch", ds, wantCutoff(stage, true), func(c *Config) {
			c.Deadline = vclock.Duration(open + (launched-open)/2)
		})
	}
	narrow := bracketBase()
	narrow.AssemblyNodesOverride = 2
	cleanNarrow, err := Run(ds, narrow)
	if err != nil {
		t.Fatal(err)
	}
	pb, _ := cleanNarrow.Stage("PB")
	add("cutoff/PB-mid-units", ds, wantCutoff("PB", true), func(c *Config) {
		c.AssemblyNodesOverride = 2
		c.CancelAt = vclock.Duration(pb.Start + vclock.Time(pb.Duration()/2))
	})

	// A serverless PB bursts every unit at once; a cutoff between the
	// first and the last unit's end lets some finish and preempts the
	// rest at the cutoff.
	fnCfg := bracketBase()
	fnCfg.Pattern = DistributedDynamic
	fnCfg.Backends.PB = cloud.Serverless
	cleanFn, err := Run(ds, fnCfg)
	if err != nil {
		t.Fatal(err)
	}
	first, last := unitEnds(cleanFn, "-k")
	add("serverless/PB-cutoff-mid-units", ds, func(rep *Report, err error) error {
		if err := wantCutoff("PB", true)(rep, err); err != nil {
			return err
		}
		if err := wantUnitEvent(rep, "-k", pilot.UnitDone, "exit 0"); err != nil {
			return err
		}
		return wantUnitEvent(rep, "-k", pilot.UnitCanceled, "run cutoff preempted execution")
	}, func(c *Config) {
		c.Pattern = DistributedDynamic
		c.Backends.PB = cloud.Serverless
		c.CancelAt = vclock.Duration(first + (last-first)/2)
	})

	// A conventional pilot loses a node mid-PA and every replacement
	// fails to boot, so it is still degraded when PB asks it for a unit
	// manager: the refusal ends the run through the stage bracket.
	conv := bracketBase()
	conv.Scheme, conv.Pattern = S2, Conventional
	conv.Assemblers = []string{"ray"}
	cleanConv, err := Run(ds, conv)
	if err != nil {
		t.Fatal(err)
	}
	pa, _ := cleanConv.Stage("PA")
	add("fail/conventional-degraded-pilot", ds, func(rep *Report, err error) error {
		if err := wantErr(string(pilot.PilotDegraded))(rep, err); err != nil {
			return err
		}
		if rep.TTC <= 0 || rep.CostUSD <= 0 || rep.Snapshot == nil {
			return fmt.Errorf("unfinished report: TTC %v, cost %g, snapshot %t", rep.TTC, rep.CostUSD, rep.Snapshot != nil)
		}
		return nil
	}, func(c *Config) {
		c.Scheme, c.Pattern = S2, Conventional
		c.Assemblers = []string{"ray"}
		c.FaultPlan = spec(fmt.Sprintf("crash:at=%g,vm=1;bootfail:n=2", float64(pa.Start+vclock.Time(pa.Duration()/2))))
	})

	condB, err := ds.Resample(ds.Expression, ds.Profile.Seed+7)
	if err != nil {
		t.Fatal(err)
	}
	add("pc/conditionB+consensus", ds, wantComplete, func(c *Config) {
		c.Scheme, c.Pattern = S2, DistributedDynamic
		c.ConditionB = &condB
		c.ConsensusMerge = true
	})
	return out
}

// TestStageBracketPins pins every exit of the per-stage bracket (route,
// launch, submit, run, per-unit cutoff/failure, stage close) byte for
// byte: the trace, metrics, snapshot, summary, timeline, error text and
// journal file of runs that complete, fail in a unit, fail to launch,
// are cut off before or during a stage, fall back through an open
// breaker, run stages as functions, and crash and resume. Every run
// but the crashed one must also release all it acquired (wantReleased).
func TestStageBracketPins(t *testing.T) {
	raw, err := os.ReadFile(bracketPinsFile)
	if err != nil {
		t.Fatal(err)
	}
	var want map[string]bracketPins
	if err := json.Unmarshal(raw, &want); err != nil {
		t.Fatal(err)
	}
	got := computeBracketPins(t)
	for name, g := range got {
		if w, ok := want[name]; !ok || g != w {
			b, _ := json.MarshalIndent(map[string]bracketPins{name: g}, "", "  ")
			t.Errorf("%s: pins moved, got\n%s", name, b)
		}
	}
	for name := range want {
		if _, ok := got[name]; !ok {
			t.Errorf("%s: pinned scenario no longer runs", name)
		}
	}
}

func computeBracketPins(t *testing.T) map[string]bracketPins {
	t.Helper()
	dir := t.TempDir()
	got := map[string]bracketPins{}
	for i, sc := range bracketScenarios(t) {
		path := filepath.Join(dir, fmt.Sprintf("%02d.journal", i))
		rep, pl, err := journalRun(t, sc.ds, sc.cfg, path)
		if cerr := sc.check(rep, err); cerr != nil {
			t.Fatalf("%s: %v", sc.name, cerr)
		}
		if rerr := wantReleased(pl); rerr != nil {
			t.Errorf("%s: %v", sc.name, rerr)
		}
		got[sc.name] = pinRun(t, rep, pl, err, path)
	}

	// A driver crash mid-PB, then the resume that finishes the run.
	ds, err := simdata.GenerateCached(simdata.Tiny())
	if err != nil {
		t.Fatal(err)
	}
	cfg := bracketBase()
	clean, err := Run(ds, cfg)
	if err != nil {
		t.Fatal(err)
	}
	pb, _ := clean.Stage("PB")
	plan, err := faults.ParseSpec(fmt.Sprintf("drivercrash:at=%g", float64(pb.Start+vclock.Time(pb.Duration()/2))))
	if err != nil {
		t.Fatal(err)
	}
	cfg.FaultPlan = plan
	path := filepath.Join(dir, "crash.journal")
	rep, pl, err := journalRun(t, ds, cfg, path)
	var dce *DriverCrashError
	if !errors.As(err, &dce) {
		t.Fatalf("drivercrash run returned %v", err)
	}
	got["resume/drivercrash"] = pinRun(t, rep, pl, err, path)
	cfg.Obs = obs.New()
	rep, pl, err = ResumePipeline(ds, cfg, path)
	if cerr := wantComplete(rep, err); cerr != nil {
		t.Fatalf("resume: %v", cerr)
	}
	if rerr := wantReleased(pl); rerr != nil {
		t.Errorf("resume/resumed: %v", rerr)
	}
	got["resume/resumed"] = pinRun(t, rep, pl, err, path)
	return got
}
