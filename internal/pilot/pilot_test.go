package pilot

import (
	"fmt"
	"strings"
	"testing"

	"rnascale/internal/cloud"
	"rnascale/internal/faults"
	"rnascale/internal/sge"
	"rnascale/internal/vclock"
)

func newRig() (*cloud.Provider, *Manager) {
	p := cloud.NewProvider(vclock.NewClock(0), cloud.Options{})
	m := NewManager(p, NewStateStore())
	return p, m
}

func TestPilotStateMachine(t *testing.T) {
	legal := [][2]PilotState{
		{PilotNew, PilotLaunching},
		{PilotLaunching, PilotActive},
		{PilotActive, PilotDone},
		{PilotActive, PilotFailed},
		{PilotLaunching, PilotCanceled},
	}
	for _, e := range legal {
		if !e[0].CanTransition(e[1]) {
			t.Errorf("%s -> %s should be legal", e[0], e[1])
		}
	}
	illegal := [][2]PilotState{
		{PilotNew, PilotActive},
		{PilotDone, PilotActive},
		{PilotActive, PilotNew},
		{PilotCanceled, PilotDone},
	}
	for _, e := range illegal {
		if e[0].CanTransition(e[1]) {
			t.Errorf("%s -> %s should be illegal", e[0], e[1])
		}
	}
	if !PilotDone.Final() || PilotActive.Final() {
		t.Error("finality wrong")
	}
}

func TestUnitStateMachine(t *testing.T) {
	if !UnitNew.CanTransition(UnitScheduling) ||
		!UnitScheduling.CanTransition(UnitScheduled) ||
		!UnitScheduled.CanTransition(UnitExecuting) ||
		!UnitExecuting.CanTransition(UnitDone) {
		t.Error("happy path broken")
	}
	if UnitNew.CanTransition(UnitDone) || UnitDone.CanTransition(UnitExecuting) {
		t.Error("shortcut transitions allowed")
	}
	// The run cutoff cancels a bound unit before it starts.
	if !UnitScheduled.CanTransition(UnitCanceled) {
		t.Error("scheduled unit cannot be canceled")
	}
	for _, s := range []UnitState{UnitNew, UnitScheduling, UnitScheduled, UnitExecuting} {
		if s != UnitNew && !s.CanTransition(UnitFailed) {
			t.Errorf("%s cannot fail", s)
		}
		if s.Final() {
			t.Errorf("%s reported final", s)
		}
	}
}

func TestStateStoreEnforcesLegality(t *testing.T) {
	s := NewStateStore()
	if err := s.Register(KindPilot, "p1", string(PilotNew), 0); err != nil {
		t.Fatal(err)
	}
	if err := s.Register(KindPilot, "p1", string(PilotNew), 0); err == nil {
		t.Error("duplicate registration accepted")
	}
	if err := s.Transition("p1", string(PilotActive), 1, ""); err == nil {
		t.Error("NEW -> ACTIVE accepted")
	}
	if err := s.Transition("p1", string(PilotLaunching), 1, ""); err != nil {
		t.Fatal(err)
	}
	if err := s.Transition("ghost", string(PilotActive), 1, ""); err == nil {
		t.Error("unknown entity accepted")
	}
	st, ok := s.State("p1")
	if !ok || st != string(PilotLaunching) {
		t.Errorf("state %q %v", st, ok)
	}
	h := s.History()
	if len(h) != 2 || h[1].To != string(PilotLaunching) {
		t.Errorf("history %v", h)
	}
	if !strings.Contains(h[1].String(), "p1") {
		t.Error("event String missing ID")
	}
}

func TestSubmitPilotS1BuildsAndCompleteTerminates(t *testing.T) {
	prov, m := newRig()
	p, err := m.SubmitPilot(PilotDescription{Name: "PB", InstanceType: "c3.2xlarge", Nodes: 4})
	if err != nil {
		t.Fatal(err)
	}
	if p.State() != PilotActive {
		t.Fatalf("state %s", p.State())
	}
	if !p.OwnsVMs {
		t.Error("S1 pilot must own its VMs")
	}
	if got := len(prov.Running()); got != 4 {
		t.Fatalf("running VMs %d", got)
	}
	if err := m.CompletePilot(p); err != nil {
		t.Fatal(err)
	}
	if got := len(prov.Running()); got != 0 {
		t.Errorf("VMs after completion: %d", got)
	}
	if p.State() != PilotDone {
		t.Errorf("state %s", p.State())
	}
	if err := m.CompletePilot(p); err != nil {
		t.Errorf("double completion: %v", err)
	}
}

func TestSubmitPilotS2ReusesVMs(t *testing.T) {
	prov, m := newRig()
	vms, err := prov.RunInstancesOn("r3.2xlarge", 2, cloud.OnDemand)
	if err != nil {
		t.Fatal(err)
	}
	prov.WaitRunning(vms)
	p, err := m.SubmitPilot(PilotDescription{Name: "PA", ReuseVMs: vms})
	if err != nil {
		t.Fatal(err)
	}
	if p.OwnsVMs {
		t.Error("S2 pilot must not own VMs")
	}
	if err := m.CompletePilot(p); err != nil {
		t.Fatal(err)
	}
	if got := len(prov.Running()); got != 2 {
		t.Errorf("S2 completion terminated VMs: %d running", got)
	}
	// Node-count mismatch is rejected.
	if _, err := m.SubmitPilot(PilotDescription{ReuseVMs: vms, Nodes: 5}); err == nil {
		t.Error("mismatched reuse accepted")
	}
}

func TestSubmitPilotFailure(t *testing.T) {
	_, m := newRig()
	_, err := m.SubmitPilot(PilotDescription{InstanceType: "no-such", Nodes: 1})
	if err == nil {
		t.Fatal("bogus type accepted")
	}
	// The failed pilot is recorded in the store.
	found := false
	for _, e := range m.Store().History() {
		if e.Kind == KindPilot && e.To == string(PilotFailed) {
			found = true
		}
	}
	if !found {
		t.Error("no FAILED event recorded")
	}
}

func activePilot(t *testing.T, m *Manager, nodes int) *Pilot {
	t.Helper()
	p, err := m.SubmitPilot(PilotDescription{InstanceType: "c3.2xlarge", Nodes: nodes})
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func newUnitManager(t *testing.T, p *Pilot) *UnitManager {
	t.Helper()
	um, err := NewUnitManager(p)
	if err != nil {
		t.Fatal(err)
	}
	return um
}

func TestUnitLifecycleHappyPath(t *testing.T) {
	prov, m := newRig()
	p := activePilot(t, m, 2)
	um := newUnitManager(t, p)
	ran := false
	units, err := um.Submit([]UnitDescription{{
		Name: "asm-k35", Slots: 8, Rule: sge.SingleNode,
		Work: func(env *ExecEnv) (WorkResult, error) {
			ran = true
			if env.InstanceType.Name != "c3.2xlarge" || env.Slots != 8 {
				t.Errorf("env %+v", env)
			}
			return WorkResult{Duration: 500, PeakMemoryGB: 10, Output: 42}, nil
		},
	}})
	if err != nil {
		t.Fatal(err)
	}
	start := prov.Clock().Now()
	if err := um.Run(); err != nil {
		t.Fatal(err)
	}
	u := units[0]
	if !ran || u.State() != UnitDone {
		t.Fatalf("state %s ran=%v", u.State(), ran)
	}
	if u.Result.Output.(int) != 42 {
		t.Error("output lost")
	}
	if u.End != start.Add(500) {
		t.Errorf("end %v, want %v", u.End, start.Add(500))
	}
	if prov.Clock().Now() != u.End {
		t.Errorf("clock %v not advanced to %v", prov.Clock().Now(), u.End)
	}
	if u.Pilot != p || um.ID() != p.ID {
		t.Error("unit bound to wrong pilot")
	}
	if err := um.Complete(); err == nil {
		t.Error("Complete bypassed the pilot manager")
	}
}

func TestUnitOOMFails(t *testing.T) {
	_, m := newRig()
	p := activePilot(t, m, 1) // c3.2xlarge: 16 GB
	um := newUnitManager(t, p)
	units, err := um.Submit([]UnitDescription{{
		Name: "preproc-pcrispa", Slots: 8, Rule: sge.SingleNode,
		Work: func(env *ExecEnv) (WorkResult, error) {
			return WorkResult{Duration: 100, PeakMemoryGB: 40}, nil // P. Crispa needs ~40 GB
		},
	}})
	if err != nil {
		t.Fatal(err)
	}
	if err := um.Run(); err != nil {
		t.Fatal(err)
	}
	u := units[0]
	if u.State() != UnitFailed {
		t.Fatalf("state %s, want FAILED", u.State())
	}
	if u.Err == nil || !strings.Contains(u.Err.Error(), "out of memory") {
		t.Errorf("err %v", u.Err)
	}
}

func TestUnitInfeasibleSlotRequestFails(t *testing.T) {
	_, m := newRig()
	p := activePilot(t, m, 1)
	um := newUnitManager(t, p)
	units, _ := um.Submit([]UnitDescription{{
		Name: "too-wide", Slots: 64, Rule: sge.FillUp,
		Work: func(env *ExecEnv) (WorkResult, error) {
			return WorkResult{Duration: 1}, nil
		},
	}})
	if err := um.Run(); err != nil {
		t.Fatal(err)
	}
	if units[0].State() != UnitFailed {
		t.Errorf("state %s", units[0].State())
	}
}

func TestUnitValidation(t *testing.T) {
	_, m := newRig()
	p := activePilot(t, m, 1)
	um := newUnitManager(t, p)
	if _, err := um.Submit([]UnitDescription{{Name: "x", Slots: 1}}); err == nil {
		t.Error("nil work accepted")
	}
	work := func(env *ExecEnv) (WorkResult, error) { return WorkResult{}, nil }
	if _, err := um.Submit([]UnitDescription{{Name: "x", Slots: 0, Work: work}}); err == nil {
		t.Error("zero slots accepted")
	}
	m.CompletePilot(p)
	if _, err := NewUnitManager(p); err == nil {
		t.Error("completed pilot accepted")
	}
}

func TestParallelUnitsOverlapInVirtualTime(t *testing.T) {
	prov, m := newRig()
	p := activePilot(t, m, 2) // 2 nodes × 8 slots
	um := newUnitManager(t, p)
	work := func(env *ExecEnv) (WorkResult, error) { return WorkResult{Duration: 100}, nil }
	units, _ := um.Submit([]UnitDescription{
		{Name: "k35", Slots: 8, Rule: sge.SingleNode, Work: work},
		{Name: "k37", Slots: 8, Rule: sge.SingleNode, Work: work},
	})
	start := prov.Clock().Now()
	if err := um.Run(); err != nil {
		t.Fatal(err)
	}
	// Both fit simultaneously: makespan 100, not 200.
	if got := prov.Clock().Now().Sub(start); got != 100 {
		t.Errorf("two-node makespan %v, want 100", got)
	}
	for _, u := range units {
		if u.Start != start {
			t.Errorf("unit %s start %v", u.ID, u.Start)
		}
	}
}

func TestUnitRetryRecoversTransientFailure(t *testing.T) {
	_, m := newRig()
	p := activePilot(t, m, 1)
	um := newUnitManager(t, p)
	calls := 0
	units, _ := um.Submit([]UnitDescription{{
		Name: "flaky", Slots: 1, Retry: RetryPolicy{MaxRetries: 3},
		Work: func(env *ExecEnv) (WorkResult, error) {
			calls++
			if calls < 3 {
				return WorkResult{}, fmt.Errorf("transient node failure")
			}
			return WorkResult{Duration: 10}, nil
		},
	}})
	if err := um.Run(); err != nil {
		t.Fatal(err)
	}
	u := units[0]
	if u.State() != UnitDone {
		t.Fatalf("state %s (%v)", u.State(), u.Err)
	}
	if u.Attempts != 3 || calls != 3 {
		t.Errorf("attempts %d, calls %d", u.Attempts, calls)
	}
}

func TestUnitRetryExhaustion(t *testing.T) {
	_, m := newRig()
	p := activePilot(t, m, 1)
	um := newUnitManager(t, p)
	calls := 0
	units, _ := um.Submit([]UnitDescription{{
		Name: "doomed", Slots: 1, Retry: RetryPolicy{MaxRetries: 2},
		Work: func(env *ExecEnv) (WorkResult, error) {
			calls++
			return WorkResult{}, fmt.Errorf("hard failure")
		},
	}})
	if err := um.Run(); err != nil {
		t.Fatal(err)
	}
	u := units[0]
	if u.State() != UnitFailed {
		t.Fatalf("state %s", u.State())
	}
	if calls != 3 { // initial + 2 retries
		t.Errorf("calls %d", calls)
	}
	if !strings.Contains(u.Err.Error(), "after 3 attempts") {
		t.Errorf("err %v", u.Err)
	}
}

func TestPilotBootFailureInjection(t *testing.T) {
	plan, err := faults.ParseSpec("bootfail:n=1")
	if err != nil {
		t.Fatal(err)
	}
	clock := vclock.NewClock(0)
	prov := cloud.NewProvider(clock, cloud.Options{Faults: faults.NewInjector(plan, 1, clock)})
	m := NewManager(prov, NewStateStore())
	// First boot fails → pilot FAILED.
	if _, err := m.SubmitPilot(PilotDescription{InstanceType: "c3.2xlarge", Nodes: 2}); err == nil {
		t.Fatal("boot failure not surfaced")
	}
	// Second attempt succeeds (capacity recovered).
	p, err := m.SubmitPilot(PilotDescription{InstanceType: "c3.2xlarge", Nodes: 2})
	if err != nil {
		t.Fatalf("retry after capacity failure: %v", err)
	}
	if p.State() != PilotActive {
		t.Errorf("state %s", p.State())
	}
}

// Property: every history the framework produces obeys the state
// machines — replay all events and check edge legality.
func TestHistoryLegalityInvariant(t *testing.T) {
	_, m := newRig()
	p := activePilot(t, m, 2)
	um := newUnitManager(t, p)
	um.Submit([]UnitDescription{
		{Name: "ok", Slots: 4, Work: func(env *ExecEnv) (WorkResult, error) {
			return WorkResult{Duration: 5}, nil
		}},
		{Name: "oom", Slots: 4, Work: func(env *ExecEnv) (WorkResult, error) {
			return WorkResult{Duration: 5, PeakMemoryGB: 1e9}, nil
		}},
	})
	um.Run()
	m.CompletePilot(p)
	cur := map[string]string{}
	for _, e := range m.Store().History() {
		if prev, ok := cur[e.ID]; ok {
			legal := false
			switch e.Kind {
			case KindPilot:
				legal = PilotState(prev).CanTransition(PilotState(e.To))
			case KindUnit:
				legal = UnitState(prev).CanTransition(UnitState(e.To))
			}
			if !legal {
				t.Errorf("illegal recorded transition %s: %s -> %s", e.ID, prev, e.To)
			}
		}
		cur[e.ID] = e.To
	}
	// Timestamps are non-decreasing.
	var last vclock.Time
	for _, e := range m.Store().History() {
		if e.At < last {
			t.Errorf("event time went backwards: %v", e)
		}
		last = e.At
	}
}
