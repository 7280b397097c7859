package core

import (
	"bytes"
	"math"
	"strings"
	"sync"
	"testing"

	"rnascale/internal/cloud"
	"rnascale/internal/faults"
	"rnascale/internal/journal"
	"rnascale/internal/obs"
	"rnascale/internal/simdata"
	"rnascale/internal/vclock"
)

// The planner's reason for existing: its predictions must track the
// simulation closely enough to base scheduling decisions on. On-demand
// and fault-free, the dry run is the run for every stage whose work
// has an exact cost model: the upload, PA, PC, the PB cluster size and
// the first stage's flavour match exactly. Only PB's assembler TTC
// estimates differ from the assemblies (Contrail's overshoots most), and
// the TTC and cost bands are set by them.
func TestPredictTracksRun(t *testing.T) {
	ds := tinyDS(t)
	for _, cfg := range []Config{
		tinyConfig(),
		func() Config { c := tinyConfig(); c.Scheme = S1; return c }(),
		func() Config { c := tinyConfig(); c.Assemblers = []string{"velvet"}; return c }(),
	} {
		cfg.EvaluateAgainstTruth = false
		plan, err := Predict(ds, cfg)
		if err != nil {
			t.Fatalf("%v: %v", cfg.Assemblers, err)
		}
		pl := New(cfg)
		rep, err := pl.Run(ds)
		if err != nil {
			t.Fatalf("%v: %v", cfg.Assemblers, err)
		}
		ttcRatio := plan.TTC.Seconds() / rep.TTC.Seconds()
		if ttcRatio < 0.95 || ttcRatio > 1.25 {
			t.Errorf("%v %v: predicted TTC %v vs actual %v (ratio %.2f)",
				cfg.Assemblers, cfg.Scheme, plan.TTC, rep.TTC, ttcRatio)
		}
		costRatio := plan.CostUSD / rep.CostUSD
		if costRatio < 0.95 || costRatio > 1.4 {
			t.Errorf("%v %v: predicted cost $%.2f vs actual $%.2f (ratio %.2f)",
				cfg.Assemblers, cfg.Scheme, plan.CostUSD, rep.CostUSD, costRatio)
		}
		for name, d := range map[string]vclock.Duration{"transfer": plan.Transfer, "PA": plan.PA, "PC": plan.PC} {
			if s, _ := rep.Stage(name); d != s.Duration() {
				t.Errorf("%v %v: predicted %s %v, actual %v", cfg.Assemblers, cfg.Scheme, name, d, s.Duration())
			}
		}
		if plan.AssemblyNodes != rep.AssemblyNodes {
			t.Errorf("predicted %d PB nodes, actual %d", plan.AssemblyNodes, rep.AssemblyNodes)
		}
		if plan.InstanceType != pl.sxs[0].instance {
			t.Errorf("predicted instance type %s, actual %s", plan.InstanceType, pl.sxs[0].instance)
		}
		if !strings.Contains(plan.String(), "TTC") {
			t.Error("plan string malformed")
		}
	}
}

// Predict prices the uncut, fault-free run and executes none of it. A
// deadline, a cancellation point, a fault plan, a journal, a caller's
// tracer and truth evaluation leave the plan bit-identical; the journal
// gets no record, the tracer no span and the assembler no call; and a
// dataset without reads plans.
func TestPredictRunsNothing(t *testing.T) {
	ds := tinyDS(t)
	crash, err := faults.ParseSpec("crash:at=900,vm=2;drivercrash:at=1200")
	if err != nil {
		t.Fatal(err)
	}
	base := tinyConfig()
	base.Assemblers = []string{"countray", "contrail"}
	base.EvaluateAgainstTruth = false
	spot := base
	spot.Scheme = S1
	spot.Backends = StageBackends{PA: cloud.Spot, PB: cloud.Spot, PC: cloud.Spot}
	mixed := base
	mixed.Assemblers = []string{"countray"}
	mixed.Backends = StageBackends{PA: cloud.Spot, PB: cloud.Serverless, PC: cloud.OnDemand}
	for _, tc := range []struct {
		name string
		cfg  Config
	}{{"on-demand", base}, {"spot", spot}, {"mixed", mixed}} {
		name, cfg := tc.name, tc.cfg
		countRay.calls.Store(0)
		want, err := Predict(ds, cfg)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		var sink bytes.Buffer
		w := journal.NewWriter(&sink)
		o := obs.New()
		cut := cfg
		cut.Deadline = want.TTC / 2
		cut.CancelAt = want.TTC / 3
		cut.FaultPlan = crash
		cut.Journal = w
		cut.Obs = o
		cut.EvaluateAgainstTruth = true
		got, err := Predict(ds, cut)
		if err != nil {
			t.Fatalf("%s with every run-only knob: %v", name, err)
		}
		if err := w.Close(); err != nil {
			t.Fatal(err)
		}
		if planLine(got) != planLine(want) {
			t.Errorf("%s: the run-only knobs moved the plan:\n got %s\nwant %s", name, planLine(got), planLine(want))
		}
		if sink.Len() != 0 {
			t.Errorf("%s: Predict wrote %d journal bytes", name, sink.Len())
		}
		if n := o.Tracer.Len(); n != 0 {
			t.Errorf("%s: Predict left %d spans on the caller's tracer", name, n)
		}
		if n := countRay.calls.Load(); n != 0 {
			t.Errorf("%s: Predict made %d Assemble calls", name, n)
		}
		readless, err := Predict(&simdata.Dataset{Profile: ds.Profile}, cfg)
		if err != nil {
			t.Errorf("%s: a dataset without reads does not plan: %v", name, err)
		} else if planLine(readless) != planLine(want) {
			t.Errorf("%s: the reads moved the plan:\n got %s\nwant %s", name, planLine(readless), planLine(want))
		}
	}
	// Dry runs share only the dataset and the assemblers, as the
	// gateway's concurrent admissions do: concurrent ones agree.
	lines := make([]string, 4)
	var wg sync.WaitGroup
	for i := range lines {
		wg.Add(1)
		go func() {
			defer wg.Done()
			p, err := Predict(ds, mixed)
			if err != nil {
				t.Error(err)
			}
			lines[i] = planLine(p)
		}()
	}
	wg.Wait()
	for _, l := range lines[1:] {
		if l != lines[0] {
			t.Errorf("concurrent dry runs disagree:\n%s\n%s", l, lines[0])
		}
	}
}

// Prediction-time feasibility: the planner rejects the Table IV "X"
// configurations without running anything.
func TestPredictRejectsInfeasible(t *testing.T) {
	prof := simdata.Tiny()
	prof.FullScale = simdata.PCrispa().FullScale
	prof.FullScale.AssemblyKmers = simdata.Tiny().FullScale.AssemblyKmers
	ds, err := simdata.Generate(prof)
	if err != nil {
		t.Fatal(err)
	}
	cfg := tinyConfig()
	cfg.Pattern = DistributedStatic
	cfg.InstanceType = "c3.2xlarge"
	if _, err := Predict(ds, cfg); err == nil || !strings.Contains(err.Error(), "infeasible") {
		t.Errorf("undersized plan accepted: %v", err)
	}
	// Sharded pre-processing restores PA feasibility, but the MPI
	// assembly jobs still exceed 16 GB — the plan stays infeasible.
	cfg.ParallelPreprocessShards = 4
	if _, err := Predict(ds, cfg); err == nil || !strings.Contains(err.Error(), "infeasible") {
		t.Errorf("assembly-infeasible plan accepted: %v", err)
	}
	// On r3.2xlarge everything fits.
	cfg.InstanceType = "r3.2xlarge"
	if _, err := Predict(ds, cfg); err != nil {
		t.Errorf("feasible plan rejected: %v", err)
	}
}

func TestOptimizeObjectives(t *testing.T) {
	ds := tinyDS(t)
	var candidates []Config
	for _, scheme := range []MatchingScheme{S1, S2} {
		for _, contrailNodes := range []int{2, 4, 8} {
			cfg := tinyConfig()
			cfg.EvaluateAgainstTruth = false
			cfg.Scheme = scheme
			cfg.ContrailNodes = contrailNodes
			candidates = append(candidates, cfg)
		}
	}
	fast, err := Optimize(ds, candidates, MinimizeTTC)
	if err != nil {
		t.Fatal(err)
	}
	cheap, err := Optimize(ds, candidates, MinimizeCost)
	if err != nil {
		t.Fatal(err)
	}
	if fast.TTC > cheap.TTC {
		t.Errorf("TTC-optimal plan (%v) slower than cost-optimal (%v)", fast.TTC, cheap.TTC)
	}
	if cheap.CostUSD > fast.CostUSD {
		t.Errorf("cost-optimal plan ($%.2f) pricier than TTC-optimal ($%.2f)", cheap.CostUSD, fast.CostUSD)
	}
	// The optimizer's choice must beat the worst candidate on its
	// objective.
	var worstTTC float64
	for _, cfg := range candidates {
		p, err := Predict(ds, cfg)
		if err != nil {
			continue
		}
		worstTTC = math.Max(worstTTC, p.TTC.Seconds())
	}
	if fast.TTC.Seconds() >= worstTTC {
		t.Error("optimizer returned the worst TTC candidate")
	}
}

func TestFrontierParetoInvariants(t *testing.T) {
	ds := tinyDS(t)
	var candidates []Config
	for _, scheme := range []MatchingScheme{S1, S2} {
		for _, cn := range []int{2, 4, 8, 16} {
			cfg := tinyConfig()
			cfg.EvaluateAgainstTruth = false
			cfg.Scheme = scheme
			cfg.ContrailNodes = cn
			candidates = append(candidates, cfg)
		}
	}
	frontier, err := Frontier(ds, candidates)
	if err != nil {
		t.Fatal(err)
	}
	if len(frontier) == 0 || len(frontier) > len(candidates) {
		t.Fatalf("frontier size %d", len(frontier))
	}
	// Sorted by TTC ascending, and cost must be non-increasing along
	// the frontier (otherwise a point would be dominated).
	for i := 1; i < len(frontier); i++ {
		if frontier[i].TTC < frontier[i-1].TTC {
			t.Fatal("frontier not TTC-sorted")
		}
		if frontier[i].CostUSD > frontier[i-1].CostUSD {
			t.Errorf("frontier point %d dominated: TTC %v/$%.2f after TTC %v/$%.2f",
				i, frontier[i].TTC, frontier[i].CostUSD, frontier[i-1].TTC, frontier[i-1].CostUSD)
		}
	}
	// No frontier point is dominated by any candidate plan.
	for _, cfg := range candidates {
		p, err := Predict(ds, cfg)
		if err != nil {
			continue
		}
		for _, f := range frontier {
			if p.TTC < f.TTC && p.CostUSD < f.CostUSD {
				t.Errorf("frontier point (%v, $%.2f) dominated by (%v, $%.2f)",
					f.TTC, f.CostUSD, p.TTC, p.CostUSD)
			}
		}
	}
	// The optimizer endpoints coincide with the frontier's extremes.
	fast, _ := Optimize(ds, candidates, MinimizeTTC)
	cheap, _ := Optimize(ds, candidates, MinimizeCost)
	if fast.TTC != frontier[0].TTC {
		t.Errorf("fastest frontier point %v != optimizer %v", frontier[0].TTC, fast.TTC)
	}
	if cheap.CostUSD != frontier[len(frontier)-1].CostUSD {
		t.Errorf("cheapest frontier point $%.2f != optimizer $%.2f",
			frontier[len(frontier)-1].CostUSD, cheap.CostUSD)
	}
	if _, err := Frontier(ds, nil); err == nil {
		t.Error("empty candidates accepted")
	}
}

func TestOptimizeErrors(t *testing.T) {
	ds := tinyDS(t)
	if _, err := Optimize(ds, nil, MinimizeTTC); err == nil {
		t.Error("empty candidates accepted")
	}
	bad := tinyConfig()
	bad.Assemblers = []string{"nope"}
	if _, err := Optimize(ds, []Config{bad}, MinimizeTTC); err == nil {
		t.Error("all-infeasible candidates accepted")
	}
	// Frontier says why no candidate is feasible, as Optimize does.
	if _, err := Frontier(ds, []Config{bad}); err == nil || !strings.Contains(err.Error(), `"nope"`) {
		t.Errorf("all-infeasible frontier error does not carry the cause: %v", err)
	}
	if MinimizeTTC.String() != "TTC" || MinimizeCost.String() != "cost" {
		t.Error("objective strings")
	}
}
