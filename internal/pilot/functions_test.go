package pilot

import (
	"strings"
	"testing"

	"rnascale/internal/cloud"
	"rnascale/internal/faults"
	"rnascale/internal/vclock"
)

func newFaasRig() (*cloud.Provider, *StateStore) {
	return cloud.NewProvider(vclock.NewClock(0), cloud.Options{}), NewStateStore()
}

// invocations counts the serverless invocations on p's bill.
func invocations(p *cloud.Provider) int {
	n := 0
	for _, line := range p.Bill() {
		if line.Backend == cloud.Serverless.String() {
			n += line.Instances
		}
	}
	return n
}

func TestFunctionRunnerHappyPath(t *testing.T) {
	p, store := newFaasRig()
	fr, err := NewFunctionRunner(p, store, "pa")
	if err != nil {
		t.Fatal(err)
	}
	if fr.ID() != "faas(pa)" {
		t.Errorf("runner id %q", fr.ID())
	}
	// The pseudo-pilot is active immediately — no boot, no config.
	if s, _ := store.State(fr.ID()); PilotState(s) != PilotActive {
		t.Errorf("runner state %s, want active", s)
	}
	if p.Clock().Now() != 0 {
		t.Errorf("runner construction advanced the clock to %v", p.Clock().Now())
	}
	work := func(env *ExecEnv) (WorkResult, error) {
		if env.Nodes != 1 || env.InstanceType.Name != "serverless" {
			t.Errorf("env %+v", env)
		}
		return WorkResult{Duration: 2 * vclock.Minute, PeakMemoryGB: 3}, nil
	}
	units, err := fr.Submit([]UnitDescription{
		{Name: "shard0", Slots: 1, Work: work},
		{Name: "shard1", Slots: 1, Work: work},
	})
	if err != nil {
		t.Fatal(err)
	}
	var doneOrder []string
	fr.SetOnUnitDone(func(u *Unit, at vclock.Time) { doneOrder = append(doneOrder, u.ID) })
	if err := fr.Run(); err != nil {
		t.Fatal(err)
	}
	for _, u := range units {
		if u.State() != UnitDone {
			t.Fatalf("%s state %s: %v", u.ID, u.State(), u.Err)
		}
	}
	if len(doneOrder) != 2 {
		t.Fatalf("onUnitDone fired %d times", len(doneOrder))
	}
	// Both units burst at t=0, both cold (no warm env available), so
	// the stage's wall time is coldStart + duration.
	want := vclock.Time(0).Add(cloud.FnColdStart + 2*vclock.Minute)
	if got := p.Clock().Now(); got != want {
		t.Errorf("stage ended at %v, want %v", got, want)
	}
	if n := invocations(p); n != 2 {
		t.Errorf("%d invocations, want 2", n)
	}
	if err := fr.Complete(); err != nil {
		t.Fatal(err)
	}
	if s, _ := store.State(fr.ID()); PilotState(s) != PilotDone {
		t.Errorf("runner state %s after Complete", s)
	}
	if err := fr.Complete(); err != nil { // idempotent
		t.Fatal(err)
	}
}

func TestFunctionRunnerSplitsLongUnits(t *testing.T) {
	p, store := newFaasRig()
	fr, err := NewFunctionRunner(p, store, "pb")
	if err != nil {
		t.Fatal(err)
	}
	// 40 min at a 15 min cap → 3 parallel pieces of 13m20s.
	units, err := fr.Submit([]UnitDescription{{
		Name:  "asm",
		Slots: 1,
		Work: func(env *ExecEnv) (WorkResult, error) {
			return WorkResult{Duration: 40 * vclock.Minute, PeakMemoryGB: 8}, nil
		},
	}})
	if err != nil {
		t.Fatal(err)
	}
	if err := fr.Run(); err != nil {
		t.Fatal(err)
	}
	if units[0].State() != UnitDone {
		t.Fatalf("unit %s: %v", units[0].State(), units[0].Err)
	}
	if n := invocations(p); n != 3 {
		t.Errorf("%d invocations, want 3 parallel pieces", n)
	}
	want := vclock.Time(0).Add(cloud.FnColdStart + 40*vclock.Minute/3)
	if got := units[0].End; got != want {
		t.Errorf("unit end %v, want %v (slowest piece)", got, want)
	}
}

func TestFunctionRunnerMemoryOverflowFails(t *testing.T) {
	p, store := newFaasRig()
	fr, err := NewFunctionRunner(p, store, "pb")
	if err != nil {
		t.Fatal(err)
	}
	units, err := fr.Submit([]UnitDescription{{
		Name:  "big",
		Slots: 1,
		Work: func(env *ExecEnv) (WorkResult, error) {
			return WorkResult{Duration: vclock.Minute, PeakMemoryGB: 61}, nil
		},
	}})
	if err != nil {
		t.Fatal(err)
	}
	if err := fr.Run(); err != nil {
		t.Fatal(err)
	}
	if units[0].State() != UnitFailed {
		t.Fatalf("unit state %s, want failed", units[0].State())
	}
	if !strings.Contains(units[0].Err.Error(), "function tier") {
		t.Errorf("failure cause: %v", units[0].Err)
	}
	// Failed attempts bill nothing.
	if usd := p.TotalCost(); usd != 0 {
		t.Errorf("failed unit billed %v", usd)
	}
}

func TestFunctionRunnerRetriesFlakes(t *testing.T) {
	plan, err := faults.ParseSpec("unitflake:p=1,n=1")
	if err != nil {
		t.Fatal(err)
	}
	clk := vclock.NewClock(0)
	p := cloud.NewProvider(clk, cloud.Options{Faults: faults.NewInjector(plan, 42, clk)})
	store := NewStateStore()
	fr, err := NewFunctionRunner(p, store, "pc")
	if err != nil {
		t.Fatal(err)
	}
	units, err := fr.Submit([]UnitDescription{{
		Name:  "merge",
		Slots: 1,
		Retry: RetryPolicy{MaxRetries: 2, Backoff: 30 * vclock.Second},
		Work: func(env *ExecEnv) (WorkResult, error) {
			return WorkResult{Duration: vclock.Minute, PeakMemoryGB: 1}, nil
		},
	}})
	if err != nil {
		t.Fatal(err)
	}
	if err := fr.Run(); err != nil {
		t.Fatal(err)
	}
	u := units[0]
	if u.State() != UnitDone {
		t.Fatalf("unit %s: %v", u.State(), u.Err)
	}
	if u.Attempts < 2 {
		t.Errorf("attempts = %d, want a retry", u.Attempts)
	}
	// The retried attempt starts after the backoff window.
	if u.Start < vclock.Time(30) {
		t.Errorf("retry started at %v, before backoff elapsed", u.Start)
	}
}

func TestFunctionRunnerDeterministicReplay(t *testing.T) {
	run := func() (vclock.Time, float64) {
		p, store := newFaasRig()
		fr, err := NewFunctionRunner(p, store, "pa")
		if err != nil {
			t.Fatal(err)
		}
		var descs []UnitDescription
		for i := 0; i < 8; i++ {
			d := vclock.Duration(i+1) * 5 * vclock.Minute
			descs = append(descs, UnitDescription{
				Name:  "shard",
				Slots: 1,
				Work: func(env *ExecEnv) (WorkResult, error) {
					return WorkResult{Duration: d, PeakMemoryGB: float64(i%3 + 1)}, nil
				},
			})
		}
		if _, err := fr.Submit(descs); err != nil {
			t.Fatal(err)
		}
		if err := fr.Run(); err != nil {
			t.Fatal(err)
		}
		return p.Clock().Now(), p.TotalCost()
	}
	t1, c1 := run()
	t2, c2 := run()
	if t1 != t2 || c1 != c2 {
		t.Errorf("replay diverged: (%v, %v) vs (%v, %v)", t1, c1, t2, c2)
	}
}
