package pilot

import (
	"bytes"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"rnascale/internal/cloud"
	"rnascale/internal/faults"
	"rnascale/internal/obs"
	"rnascale/internal/sge"
	"rnascale/internal/vclock"
)

var update = flag.Bool("update", false, "rewrite golden files")

func TestRetryAndDegradedStateMachineEdges(t *testing.T) {
	legalUnit := [][2]UnitState{
		{UnitExecuting, UnitRetrying},
		{UnitRetrying, UnitExecuting},
		{UnitRetrying, UnitFailed},
		{UnitRetrying, UnitCanceled}, // cancel-during-retry
	}
	for _, e := range legalUnit {
		if !e[0].CanTransition(e[1]) {
			t.Errorf("%s -> %s should be legal", e[0], e[1])
		}
	}
	illegalUnit := [][2]UnitState{
		{UnitScheduled, UnitRetrying},
		{UnitNew, UnitRetrying},
		{UnitRetrying, UnitDone}, // must re-execute to finish
		{UnitDone, UnitRetrying},
	}
	for _, e := range illegalUnit {
		if e[0].CanTransition(e[1]) {
			t.Errorf("%s -> %s should be illegal", e[0], e[1])
		}
	}
	legalPilot := [][2]PilotState{
		{PilotActive, PilotDegraded},
		{PilotDegraded, PilotActive}, // replacement joined
		{PilotDegraded, PilotDone},
		{PilotDegraded, PilotFailed},
		{PilotDegraded, PilotCanceled},
	}
	for _, e := range legalPilot {
		if !e[0].CanTransition(e[1]) {
			t.Errorf("%s -> %s should be legal", e[0], e[1])
		}
	}
	illegalPilot := [][2]PilotState{
		{PilotNew, PilotDegraded},
		{PilotLaunching, PilotDegraded},
		{PilotDegraded, PilotLaunching},
		{PilotDone, PilotDegraded},
	}
	for _, e := range illegalPilot {
		if e[0].CanTransition(e[1]) {
			t.Errorf("%s -> %s should be illegal", e[0], e[1])
		}
	}
	if UnitRetrying.Final() || PilotDegraded.Final() {
		t.Error("retry/degraded states must not be final")
	}
}

func TestRetryPolicyBackoff(t *testing.T) {
	def := DefaultRetryPolicy()
	cases := []struct {
		pol   RetryPolicy
		retry int
		want  vclock.Duration
	}{
		{def, 1, 30 * vclock.Second},
		{def, 2, 60 * vclock.Second},
		{def, 3, 120 * vclock.Second},
		{def, 6, 10 * vclock.Minute},                                 // 960 s capped to 600 s
		{RetryPolicy{MaxRetries: 3}, 1, 0},                           // no backoff
		{RetryPolicy{Backoff: 10, Factor: 3}, 3, 90},                 // uncapped growth
		{RetryPolicy{Backoff: 10, Factor: 3, MaxBackoff: 50}, 3, 50}, // cap
		{RetryPolicy{Backoff: 10}, 2, 20},                            // factor defaults to 2
		{RetryPolicy{Backoff: 10}, 0, 0},                             // retry < 1
	}
	for i, c := range cases {
		if got := c.pol.BackoffFor(c.retry); got != c.want {
			t.Errorf("case %d: BackoffFor(%d) = %v, want %v", i, c.retry, got, c.want)
		}
	}
}

func TestRetryBackoffDelaysResubmission(t *testing.T) {
	prov, m := newRig()
	p := activePilot(t, m, 1)
	um := newUnitManager(t, p)
	calls := 0
	units, _ := um.Submit([]UnitDescription{{
		Name: "flaky", Slots: 1,
		Retry: RetryPolicy{MaxRetries: 2, Backoff: 50, Factor: 3},
		Work: func(env *ExecEnv) (WorkResult, error) {
			calls++
			if calls < 3 {
				return WorkResult{}, fmt.Errorf("transient")
			}
			return WorkResult{Duration: 100}, nil
		},
	}})
	start := prov.Clock().Now()
	if err := um.Run(); err != nil {
		t.Fatal(err)
	}
	u := units[0]
	if u.State() != UnitDone || u.Attempts != 3 {
		t.Fatalf("state %s attempts %d", u.State(), u.Attempts)
	}
	// Fail at start, wait 50; fail at start+50, wait 150; run 100.
	if want := start.Add(50 + 150 + 100); u.End != want {
		t.Errorf("end %v, want %v", u.End, want)
	}
	// The backoff windows are on the record: two AGENT_RETRYING events
	// at the failure times, re-executions after the backoff.
	var retryAt, execAt []vclock.Time
	for _, e := range m.Store().History() {
		if e.ID != u.ID {
			continue
		}
		switch UnitState(e.To) {
		case UnitRetrying:
			retryAt = append(retryAt, e.At)
		case UnitExecuting:
			execAt = append(execAt, e.At)
		}
	}
	if len(retryAt) != 2 || retryAt[0] != start || retryAt[1] != start.Add(50) {
		t.Errorf("retry events at %v", retryAt)
	}
	if len(execAt) != 3 || execAt[1] != start.Add(50) || execAt[2] != start.Add(200) {
		t.Errorf("exec events at %v", execAt)
	}
}

// counterValue reads one counter sample out of a registry, summing
// across label sets that match all given labels.
func counterValue(o *obs.Obs, name string, labels map[string]string) float64 {
	var v float64
	for _, pt := range o.Metrics.Points() {
		if pt.Name != name {
			continue
		}
		match := true
		for k, want := range labels {
			if pt.Labels[k] != want {
				match = false
				break
			}
		}
		if match {
			v += pt.Value
		}
	}
	return v
}

// TestNodeLossResubmission scripts the full recovery path: a VM
// hosting a running unit crashes; the pilot degrades, a replacement
// boots, the unit is resubmitted and completes.
func TestNodeLossResubmission(t *testing.T) {
	clock := vclock.NewClock(0)
	o := obs.New()
	plan, err := faults.ParseSpec("crash:at=500,vm=1")
	if err != nil {
		t.Fatal(err)
	}
	inj := faults.NewInjector(plan, 7, clock)
	inj.SetMetrics(o.Metrics)
	prov := cloud.NewProvider(clock, cloud.Options{Faults: inj})
	m := NewManager(prov, NewStateStore())
	p := activePilot(t, m, 2) // VMs i-000001, i-000002
	um := newUnitManager(t, p)
	um.SetObs(o)
	units, _ := um.Submit([]UnitDescription{{
		Name: "asm", Slots: 8, Rule: sge.SingleNode,
		Retry: RetryPolicy{MaxRetries: 2, Backoff: 50},
		Work: func(env *ExecEnv) (WorkResult, error) {
			return WorkResult{Duration: 1000}, nil
		},
	}})
	if err := um.Run(); err != nil {
		t.Fatal(err)
	}
	u := units[0]
	if u.State() != UnitDone {
		t.Fatalf("state %s (%v)", u.State(), u.Err)
	}
	if u.Attempts != 2 {
		t.Errorf("attempts %d, want 2", u.Attempts)
	}
	// The crashed VM stopped billing at the crash and carries the
	// reason.
	dead := prov.Interruptions()[0].VM
	if dead.ID != "i-000001" || dead.TerminatedAt != 500 || dead.InterruptReason != string(faults.ClassCrash) {
		t.Errorf("dead VM terminated %v reason %q", dead.TerminatedAt, dead.InterruptReason)
	}
	// A replacement exists and the pilot went Degraded and back.
	if !p.Cluster.HasVM("i-000003") {
		t.Error("no replacement VM i-000003 in the cluster")
	}
	var sawDegraded, sawReactivated bool
	for _, e := range m.Store().History() {
		if e.ID != p.ID {
			continue
		}
		if PilotState(e.To) == PilotDegraded {
			sawDegraded = true
			if e.At != 500 {
				t.Errorf("degraded at %v, want crash time 500", e.At)
			}
		}
		if sawDegraded && PilotState(e.To) == PilotActive {
			sawReactivated = true
		}
	}
	if !sawDegraded || !sawReactivated {
		t.Errorf("pilot recovery transitions missing: degraded=%v reactivated=%v", sawDegraded, sawReactivated)
	}
	// Recovery counters.
	if v := counterValue(o, MetricRetries, nil); v != 1 {
		t.Errorf("retries counter %v, want 1", v)
	}
	if v := counterValue(o, MetricUnitsRecovered, nil); v != 1 {
		t.Errorf("units recovered counter %v, want 1", v)
	}
	if v := counterValue(o, faults.MetricFaultsInjected, map[string]string{"class": string(faults.ClassCrash)}); v != 1 {
		t.Errorf("faults injected counter %v, want 1", v)
	}
	// The retry landed on the surviving node right after the backoff:
	// loss at 500, backoff 50, 1000 s of work.
	if want := vclock.Time(500 + 50 + 1000); u.End != want {
		t.Errorf("end %v, want %v", u.End, want)
	}
}

// TestRetriedUnitSpanTreeGolden pins the observable shape of a
// retried unit: the span tree with the AGENT_RETRYING excursion and
// the recovery annotations.
func TestRetriedUnitSpanTreeGolden(t *testing.T) {
	o := obs.New()
	store := NewStateStore()
	NewSpanBridge(store, o)
	prov := cloud.NewProvider(vclock.NewClock(0), cloud.Options{})
	m := NewManager(prov, store)
	p := activePilot(t, m, 1)
	um := newUnitManager(t, p)
	um.SetObs(o)
	calls := 0
	units, _ := um.Submit([]UnitDescription{{
		Name: "asm-k35", Slots: 8, Rule: sge.SingleNode,
		Retry: RetryPolicy{MaxRetries: 1, Backoff: 30},
		Work: func(env *ExecEnv) (WorkResult, error) {
			calls++
			if calls == 1 {
				return WorkResult{}, fmt.Errorf("transient node failure")
			}
			return WorkResult{Duration: 120}, nil
		},
	}})
	if err := um.Run(); err != nil {
		t.Fatal(err)
	}
	if err := m.CompletePilot(p); err != nil {
		t.Fatal(err)
	}
	if units[0].State() != UnitDone || units[0].Attempts != 2 {
		t.Fatalf("state %s attempts %d", units[0].State(), units[0].Attempts)
	}
	var buf bytes.Buffer
	if err := o.Tracer.WriteTree(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), string(UnitRetrying)) {
		t.Fatalf("tree lacks %s:\n%s", UnitRetrying, buf.String())
	}
	path := filepath.Join("testdata", "retried_unit_tree.golden")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden file (run `go test ./internal/pilot -update`): %v", err)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Errorf("span tree drifted from golden:\n--- got ---\n%s\n--- want ---\n%s", buf.Bytes(), want)
	}
}
