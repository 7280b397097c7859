package faults

import (
	"strings"
	"testing"

	"rnascale/internal/obs"
	"rnascale/internal/vclock"
)

func TestRNGDeterminism(t *testing.T) {
	a, b := NewRNG(42), NewRNG(42)
	for i := 0; i < 100; i++ {
		if av, bv := a.Uint64(), b.Uint64(); av != bv {
			t.Fatalf("step %d: streams diverged: %d vs %d", i, av, bv)
		}
	}
	if NewRNG(42).Uint64() == NewRNG(43).Uint64() {
		t.Fatal("different seeds produced the same first value")
	}
}

func TestRNGSplitIndependence(t *testing.T) {
	root := NewRNG(7)
	// Splitting must not advance the parent.
	before := *root
	_ = root.Split("a")
	if *root != before {
		t.Fatal("Split advanced the parent stream")
	}
	// Same key path ⇒ same child, regardless of draw order elsewhere.
	c1 := root.Split("vm", "i-000001")
	root.Uint64()
	c2 := root.Split("vm", "i-000001")
	if c1.Uint64() != c2.Uint64() {
		t.Fatal("same key path produced different children")
	}
	// Key boundaries matter.
	if NewRNG(7).Split("ab", "c").Uint64() == NewRNG(7).Split("a", "bc").Uint64() {
		t.Fatal(`Split("ab","c") collided with Split("a","bc")`)
	}
	if NewRNG(7).Split("x").Uint64() == NewRNG(7).Split("y").Uint64() {
		t.Fatal("distinct keys produced identical children")
	}
}

func TestRNGFloat64Range(t *testing.T) {
	r := NewRNG(1)
	for i := 0; i < 1000; i++ {
		f := r.Float64()
		if f < 0 || f >= 1 {
			t.Fatalf("Float64 out of range: %v", f)
		}
	}
}

func TestParseSpecRoundTrip(t *testing.T) {
	cases := []string{
		"crash:at=900,vm=2",
		"reclaim:p=0.1,after=300,window=600",
		"bootfail:p=0.05",
		"bootfail:n=2",
		"unitflake:p=0.3,n=1",
		"slowxfer:x=0.5",
		"crash:at=900;unitflake:p=0.2,n=1;slowxfer:x=0.25",
	}
	for _, spec := range cases {
		plan, err := ParseSpec(spec)
		if err != nil {
			t.Fatalf("ParseSpec(%q): %v", spec, err)
		}
		again, err := ParseSpec(plan.String())
		if err != nil {
			t.Fatalf("re-parse of %q (from %q): %v", plan.String(), spec, err)
		}
		if plan.String() != again.String() {
			t.Fatalf("round trip unstable: %q -> %q -> %q", spec, plan.String(), again.String())
		}
	}
}

func TestParseSpecErrors(t *testing.T) {
	bad := []string{
		"",
		"explode:p=0.1",
		"crash",           // needs at or p
		"crash:at=nine",   // bad number
		"crash:when=900",  // unknown key
		"unitflake:n=2",   // needs p
		"slowxfer:x=0",    // factor out of range
		"slowxfer:x=2",    // factor out of range
		"bootfail:p=1.5",  // probability out of range
		"crash:at=900,vm", // malformed kv
		"bootfail",        // needs n or p
	}
	for _, spec := range bad {
		if _, err := ParseSpec(spec); err == nil {
			t.Errorf("ParseSpec(%q) accepted a bad spec", spec)
		}
	}
}

// Values that pass the class checks yet would poison the virtual clock
// or not survive String are refused, with an error naming the
// parameter.
func TestParseSpecRefusesUnrepresentableValues(t *testing.T) {
	for _, tc := range []struct{ spec, param string }{
		{"slowxfer:x=NaN", "x=NaN"},
		{"unitflake:p=NaN", "p=NaN"},
		{"crash:at=Inf", "at=Inf"},
		{"crash:at=-Inf", "at=-Inf"},
		{"drivercrash:at=-1", "at=-1"},
		{"reclaim:p=0.1,window=-5", "window=-5"},
		{"reclaim:p=0.1,notice=-1", "notice=-1"},
		{"reclaim:p=0.1,after=-1", "after=-1"},
		{"crash:at=900,vm=-2", "vm=-2"},
		{"crash:at=900,vm=2.5", "vm=2.5"},
		{"unitflake:p=0.3,n=1.5", "n=1.5"},
		{"bootfail:n=1e300", "n=1e300"},
		{"bootfail:n=4294967296", "n=4294967296"},
		{"bootfail:n=1e400", "n"},
	} {
		_, err := ParseSpec(tc.spec)
		if err == nil {
			t.Errorf("ParseSpec(%q) accepted it", tc.spec)
		} else if !strings.Contains(err.Error(), tc.param) {
			t.Errorf("ParseSpec(%q): %v, want it to name %s", tc.spec, err, tc.param)
		}
	}
}

// A reclaim whose notice is set to 0 renders it, so the parse of its
// String is the same rule rather than one with the default notice.
func TestReclaimZeroNoticeRoundTrips(t *testing.T) {
	plan, err := ParseSpec("reclaim:p=0.5,notice=0")
	if err != nil {
		t.Fatal(err)
	}
	again, err := ParseSpec(plan.String())
	if err != nil {
		t.Fatal(err)
	}
	if plan.Rules[0].Notice != 0 || again.Rules[0] != plan.Rules[0] {
		t.Fatalf("%q re-parsed as %+v, want %+v", plan.String(), again.Rules[0], plan.Rules[0])
	}
}

func TestVMInterruptionAbsoluteTime(t *testing.T) {
	plan, _ := ParseSpec("crash:at=900,vm=2")
	in := NewInjector(plan, 1, vclock.NewClock(0))
	if _, _, _, ok := in.VMInterruption("i-000001", 1, 60); ok {
		t.Fatal("vm=2 rule matched ordinal 1")
	}
	at, class, _, ok := in.VMInterruption("i-000002", 2, 60)
	if !ok || class != ClassCrash || at != 900 {
		t.Fatalf("got (%v,%v,%v), want crash at 900", at, class, ok)
	}
	// A VM that boots after the fault time dies on arrival.
	at, _, _, ok = in.VMInterruption("i-000002", 2, 1000)
	if !ok || at != 1000 {
		t.Fatalf("late boot: got at=%v, want clamp to runningAt=1000", at)
	}
}

func TestVMInterruptionProbabilisticDeterminism(t *testing.T) {
	plan, _ := ParseSpec("reclaim:p=0.5,after=300,window=600")
	a := NewInjector(plan, 99, vclock.NewClock(0))
	b := NewInjector(plan, 99, vclock.NewClock(0))
	hits := 0
	for i := 1; i <= 50; i++ {
		id := "i-" + timeKey(vclock.Time(i))
		at1, c1, n1, ok1 := a.VMInterruption(id, i, 60)
		at2, c2, n2, ok2 := b.VMInterruption(id, i, 60)
		if at1 != at2 || c1 != c2 || n1 != n2 || ok1 != ok2 {
			t.Fatalf("vm %d: same seed diverged", i)
		}
		if ok1 {
			hits++
			if at1 < 60+300 || at1 > 60+300+600 {
				t.Fatalf("vm %d: interruption at %v outside [360,960]", i, at1)
			}
			if n1 != DefaultReclaimNotice {
				t.Fatalf("vm %d: notice %v, want default %v", i, n1, DefaultReclaimNotice)
			}
		}
	}
	if hits == 0 || hits == 50 {
		t.Fatalf("p=0.5 over 50 VMs hit %d times; generator looks broken", hits)
	}
}

func TestBootFailsExactOrdinalCountsOnce(t *testing.T) {
	plan, _ := ParseSpec("bootfail:n=2")
	in := NewInjector(plan, 1, vclock.NewClock(0))
	reg := obs.NewRegistry()
	in.SetMetrics(reg)
	if in.BootFails(1, "c3.2xlarge", 0) {
		t.Fatal("boot #1 failed under n=2")
	}
	if !in.BootFails(2, "c3.2xlarge", 0) {
		t.Fatal("boot #2 did not fail under n=2")
	}
	if in.BootFails(3, "c3.2xlarge", 0) {
		t.Fatal("boot #3 failed under n=2")
	}
	got := counterValue(t, reg, MetricFaultsInjected, "class", string(ClassBootFail))
	if got != 1 {
		t.Fatalf("faults_injected{class=bootfail} = %v, want 1", got)
	}
}

func TestUnitAttemptFailsProgressGuarantee(t *testing.T) {
	plan, _ := ParseSpec("unitflake:p=1,n=2")
	in := NewInjector(plan, 5, vclock.NewClock(0))
	if !in.UnitAttemptFails("unit.00001(x)", 1, 10) {
		t.Fatal("attempt 1 did not flake at p=1")
	}
	if !in.UnitAttemptFails("unit.00001(x)", 2, 20) {
		t.Fatal("attempt 2 did not flake at p=1")
	}
	if in.UnitAttemptFails("unit.00001(x)", 3, 30) {
		t.Fatal("attempt 3 flaked despite n=2 progress bound")
	}
}

func TestDegradeTransfer(t *testing.T) {
	plan, _ := ParseSpec("slowxfer:x=0.5")
	in := NewInjector(plan, 1, vclock.NewClock(0))
	if got := in.DegradeTransfer(100); got != 200 {
		t.Fatalf("DegradeTransfer(100) = %v, want 200", got)
	}
	var nilIn *Injector
	if got := nilIn.DegradeTransfer(100); got != 100 {
		t.Fatalf("nil injector changed the duration: %v", got)
	}
}

func TestNilInjectorIsInert(t *testing.T) {
	var in *Injector
	if in.BootFails(1, "t", 0) {
		t.Fatal("nil injector failed a boot")
	}
	if in.UnitAttemptFails("u", 1, 0) {
		t.Fatal("nil injector flaked a unit")
	}
	if _, _, _, ok := in.VMInterruption("v", 1, 0); ok {
		t.Fatal("nil injector interrupted a VM")
	}
	in.CountInjected(ClassCrash) // must not panic
	in.SetMetrics(nil)
	if NewInjector(nil, 0, nil) != nil {
		t.Fatal("NewInjector(nil plan) != nil")
	}
}

// counterValue reads one labelled counter from a registry.
func counterValue(t *testing.T, reg *obs.Registry, name, labelKey, labelVal string) float64 {
	t.Helper()
	for _, pt := range reg.Points() {
		if pt.Name == name && pt.Labels[labelKey] == labelVal {
			return pt.Value
		}
	}
	return 0
}
