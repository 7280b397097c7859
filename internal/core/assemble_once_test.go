package core

import (
	"crypto/sha256"
	"errors"
	"fmt"
	"path/filepath"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"rnascale/internal/assembler"
	"rnascale/internal/assembler/ray"
	"rnascale/internal/faults"
	"rnascale/internal/journal"
	"rnascale/internal/obs"
	"rnascale/internal/pilot"
	"rnascale/internal/simdata"
	"rnascale/internal/vclock"
)

// countingRay is Ray registered under another name, counting its
// Assemble calls. A delay holds each call for delayPerK per k above 20
// first, so an assembly at a larger k that nobody joined is still
// running when its run returns.
type countingRay struct {
	ray.Ray
	name      string
	delayPerK time.Duration
	calls     atomic.Int64
}

func (c *countingRay) Info() assembler.Info {
	info := c.Ray.Info()
	info.Name = c.name
	return info
}

func (c *countingRay) Assemble(req assembler.Request) (assembler.Result, error) {
	c.calls.Add(1)
	time.Sleep(c.delayPerK * time.Duration(req.Params.K-20))
	return c.Ray.Assemble(req)
}

var (
	countRay = &countingRay{name: "countray"}
	slowRay  = &countingRay{name: "slowray", delayPerK: 50 * time.Millisecond}
)

func init() {
	assembler.Register(countRay)
	assembler.Register(slowRay)
}

// A unit that loses its node after its work ran comes back for another
// attempt, and the attempt must not assemble again. The plan reclaims
// both of PB's nodes and the first replacement while the two assembly
// units run: two retries, which used to cost two more assemblies. The
// artifacts are pinned to what that run produced before attempts
// shared the assembly.
func TestRetriedUnitAssemblesOnce(t *testing.T) {
	plan, err := faults.ParseSpec("reclaim:at=2760,vm=2;reclaim:at=2760,vm=3;reclaim:at=2760,vm=4")
	if err != nil {
		t.Fatal(err)
	}
	cfg := chaosConfig()
	cfg.Assemblers = []string{"countray"}
	cfg.FaultPlan = plan
	cfg.Obs = obs.New()
	countRay.calls.Store(0)
	rep, pl, _, err := runChaos(t, cfg)
	if err != nil {
		t.Fatalf("storm run did not complete: %v", err)
	}
	if retries := int(pl.o.Metrics.Counter(pilot.MetricRetries, "", nil).Value()); retries != 2 {
		t.Fatalf("the storm cost %d retries, want the 2 it was built for", retries)
	}
	if calls, units := countRay.calls.Load(), int64(len(rep.KmersUsed)); calls != units {
		t.Errorf("%d Assemble calls for %d assembly units", calls, units)
	}
	a := capture(t, rep, pl)
	for name, pin := range map[string][2]string{
		"report":  {a.snapshot, "37ae4452112225af37e4d8847f21c107554c8844927e479008fe55f54d2a8871"},
		"metrics": {a.metrics, "514ea00c8df7e9774a32b91ba2f528efa8f4665769f7e858d1a7964aa69c324b"},
		"trace":   {a.trace, "851c98c77b9bd52afd54991e83cc6d42cc954664621b254ffa26f221f02aaf50"},
	} {
		if got := fmt.Sprintf("%x", sha256.Sum256([]byte(pin[0]))); got != pin[1] {
			t.Errorf("%s digest %s, pinned %s", name, got, pin[1])
		}
	}
}

// Every PB unit of a finished journal is replayed, so resuming it must
// not assemble anything.
func TestResumeOfCompleteJournalAssemblesNothing(t *testing.T) {
	ds, err := simdata.GenerateCached(simdata.Tiny())
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "run.journal")
	cfg := chaosConfig()
	cfg.Assemblers = []string{"countray"}
	if _, _, err := journalRun(t, ds, cfg, path); err != nil {
		t.Fatal(err)
	}
	countRay.calls.Store(0)
	cfg.Obs = obs.New()
	if _, _, err := ResumePipeline(ds, cfg, path); err != nil {
		t.Fatalf("resume of complete journal: %v", err)
	}
	if calls := countRay.calls.Load(); calls != 0 {
		t.Errorf("resuming a complete journal made %d Assemble calls", calls)
	}
}

// A run that crashed mid-PB resumes by assembling exactly the PB units
// its journal lacks. Larger k assembles faster, so the journaled units
// are the last ones submitted: an assembly computed ahead of the live
// units would land on them.
func TestResumeAssemblesOnlyUnjournaledUnits(t *testing.T) {
	ds, err := simdata.GenerateCached(simdata.Tiny())
	if err != nil {
		t.Fatal(err)
	}
	cfg := chaosConfig()
	cfg.Assemblers = []string{"countray"}
	cfg.Kmers = []int{19, 21, 23, 25, 27, 29, 31}
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
	path := filepath.Join(t.TempDir(), "crash.journal")
	if _, _, err := journalRun(t, ds, cfg, path); err == nil {
		t.Fatal("the drivercrash run completed")
	}
	lg, err := journal.Inspect(path)
	if err != nil {
		t.Fatal(err)
	}
	journaled := 0
	for _, rec := range lg.Records {
		if rec.Kind == journal.KindUnit && rec.Stage == "PB" {
			journaled++
		}
	}
	if journaled == 0 || journaled == len(cfg.Kmers) {
		t.Fatalf("the crash left %d of %d PB units journaled", journaled, len(cfg.Kmers))
	}
	countRay.calls.Store(0)
	cfg.Obs = obs.New()
	if _, _, err := ResumePipeline(ds, cfg, path); err != nil {
		t.Fatalf("resume: %v", err)
	}
	if calls, want := countRay.calls.Load(), int64(len(cfg.Kmers)-journaled); calls != want {
		t.Errorf("resume made %d Assemble calls for the %d PB units its journal lacks", calls, want)
	}
}

// unitsStarted counts the distinct units whose name contains tag that
// reached AGENT_EXECUTING.
func unitsStarted(rep *Report, tag string) int {
	started := map[string]bool{}
	for _, ev := range rep.Events {
		if ev.Kind == pilot.KindUnit && ev.To == string(pilot.UnitExecuting) && strings.Contains(ev.ID, tag) {
			started[ev.ID] = true
		}
	}
	return len(started)
}

// A run cut off inside PB may have computed assemblies ahead of the
// units it reached, but no more than one per host core. Deadlines land
// inside PB's launch (no unit starts) and halfway through the units of
// a PB cluster too small to run them all at once.
func TestCutoffMidPBBoundsAssembles(t *testing.T) {
	ds, err := simdata.GenerateCached(simdata.Tiny())
	if err != nil {
		t.Fatal(err)
	}
	base := chaosConfig()
	base.Assemblers = []string{"countray"}
	base.Kmers = []int{19, 21, 23, 25, 27, 29, 31}
	base.AssemblyNodesOverride = 2
	clean, err := Run(ds, base)
	if err != nil {
		t.Fatal(err)
	}
	pa, _ := clean.Stage("PA")
	pb, _ := clean.Stage("PB")
	for name, deadline := range map[string]vclock.Time{
		"mid-launch": pa.End + (pb.Start-pa.End)/2,
		"mid-units":  pb.Start + vclock.Time(pb.Duration()/2),
	} {
		cfg := base
		cfg.Deadline = vclock.Duration(deadline)
		countRay.calls.Store(0)
		rep, err := Run(ds, cfg)
		var ce *CutoffError
		if !errors.As(err, &ce) {
			t.Fatalf("%s: want a cutoff, got %v", name, err)
		}
		started := unitsStarted(rep, "(countray-k")
		if calls := int(countRay.calls.Load()); calls > started+runtime.GOMAXPROCS(0) {
			t.Errorf("%s: %d Assemble calls for %d started units at GOMAXPROCS %d",
				name, calls, started, runtime.GOMAXPROCS(0))
		}
	}
}

// goroutineIDs returns the stack of every goroutine but the caller's
// that runs this module's code, by goroutine ID.
func goroutineIDs() map[string]string {
	buf := make([]byte, 1<<20)
	for {
		n := runtime.Stack(buf, true)
		if n < len(buf) {
			buf = buf[:n]
			break
		}
		buf = make([]byte, 2*len(buf))
	}
	out := map[string]string{}
	for i, g := range strings.Split(string(buf), "\n\n") {
		if id, _, ok := strings.Cut(g, " ["); i > 0 && ok && strings.Contains(g, "rnascale/internal/") {
			out[id] = g
		}
	}
	return out
}

// leakedGoroutines waits briefly for goroutines that are already
// returning, then reports any goroutine of this module that was not
// running before.
func leakedGoroutines(before map[string]string) []string {
	var leaked []string
	for try := 0; try < 20; try++ {
		leaked = leaked[:0]
		for id, stack := range goroutineIDs() {
			if _, ok := before[id]; !ok {
				leaked = append(leaked, stack)
			}
		}
		if len(leaked) == 0 {
			break
		}
		time.Sleep(time.Millisecond)
	}
	return leaked
}

// No goroutine a run starts outlives it, however the run ends: it
// completes, is cut off in PB, fails a PB unit after assembling an
// earlier one, or crashes mid-PB and is resumed. No goroutine a Predict
// starts outlives it either. slowRay holds k=25 four times 50 ms longer
// than k=21, so a k=25 assembly left running beside a failed stage is
// still there to be seen.
func TestRunLeavesNoGoroutines(t *testing.T) {
	ds, err := simdata.GenerateCached(simdata.Tiny())
	if err != nil {
		t.Fatal(err)
	}
	base := chaosConfig()
	base.Assemblers = []string{"slowray"}
	clean, err := Run(ds, base)
	if err != nil {
		t.Fatal(err)
	}
	pb, _ := clean.Stage("PB")
	midPB := pb.Start + vclock.Time(pb.Duration()/2)
	plan := func(spec string) *faults.Plan {
		p, err := faults.ParseSpec(spec)
		if err != nil {
			t.Fatal(err)
		}
		return p
	}
	check := func(name string, run func() error, want func(error) bool) {
		t.Helper()
		before := goroutineIDs()
		if err := run(); !want(err) {
			t.Fatalf("%s: run ended with %v", name, err)
		}
		if leaked := leakedGoroutines(before); len(leaked) > 0 {
			t.Errorf("%s: %d goroutines outlived the run:\n%s", name, len(leaked), strings.Join(leaked, "\n\n"))
		}
	}
	isNil := func(err error) bool { return err == nil }

	check("complete", func() error { _, err := Run(ds, base); return err }, isNil)
	check("predict", func() error { _, err := Predict(ds, base); return err }, isNil)

	cut := base
	cut.Deadline = vclock.Duration(midPB)
	check("cutoff", func() error { _, err := Run(ds, cut); return err }, func(err error) bool {
		var ce *CutoffError
		return errors.As(err, &ce)
	})

	// k=21 assembles; every attempt at k=25 flakes before its work runs.
	fail := base
	fail.FaultPlan = plan("unitflake:p=0.6,n=2")
	fail.FaultSeed = 2
	fail.Retry.PA = pilot.RetryPolicy{MaxRetries: 10}
	fail.Retry.PB = pilot.RetryPolicy{MaxRetries: 1}
	check("PB-unit-failure", func() error { _, err := Run(ds, fail); return err }, func(err error) bool {
		return err != nil && strings.Contains(err.Error(), "core: PB unit unit.00002(slowray-k25) failed")
	})

	crash := base
	crash.FaultPlan = plan(fmt.Sprintf("drivercrash:at=%g", float64(midPB)))
	path := filepath.Join(t.TempDir(), "crash.journal")
	check("drivercrash", func() error { _, _, err := journalRun(t, ds, crash, path); return err }, func(err error) bool {
		var dce *DriverCrashError
		return errors.As(err, &dce)
	})
	check("resume", func() error {
		crash.Obs = obs.New()
		_, _, err := ResumePipeline(ds, crash, path)
		return err
	}, isNil)
}
