package cloud

import (
	"testing"

	"rnascale/internal/faults"
	"rnascale/internal/obs"
	"rnascale/internal/vclock"
)

// bootFailures reads the boot-failure counter for one reason label.
func bootFailures(reg *obs.Registry, reason string) float64 {
	var total float64
	for _, pt := range reg.Points() {
		if pt.Name == MetricBootFailures && pt.Labels["reason"] == reason {
			total += pt.Value
		}
	}
	return total
}

// TestBootFailureAccountingByReason is the RunInstances audit: the
// two rejection paths (account limit, injected fault) must land on
// distinct reason labels, exactly one increment per rejection — so a
// fault plan can never double-count against the limit.
func TestBootFailureAccountingByReason(t *testing.T) {
	plan, err := faults.ParseSpec("bootfail:n=2")
	if err != nil {
		t.Fatal(err)
	}
	clock := vclock.NewClock(0)
	var opts Options
	opts.MaxInstances = 3
	opts.Faults = faults.NewInjector(plan, 1, clock)
	p := NewProvider(clock, opts)
	reg := obs.NewRegistry()
	p.SetMetrics(reg)
	opts.Faults.SetMetrics(reg)

	// Boot #1 succeeds.
	if _, err := p.RunInstancesOn("c3.2xlarge", 1, OnDemand); err != nil {
		t.Fatalf("boot #1: %v", err)
	}
	// Boot #2 hits the injected bootfail:n=2 rule.
	if _, err := p.RunInstancesOn("c3.2xlarge", 1, OnDemand); err == nil {
		t.Fatal("boot #2 succeeded despite bootfail:n=2")
	}
	// A 4-VM request exceeds MaxInstances=3 (1 active + 4 > 3). The
	// cap check runs before the boot ordinal advances, so this is the
	// limit path, not an injected consultation.
	if _, err := p.RunInstancesOn("c3.2xlarge", 4, OnDemand); err == nil {
		t.Fatal("cap-exceeded request succeeded")
	}

	for reason, want := range map[string]float64{
		BootFailLimit:    1,
		BootFailInjected: 1,
	} {
		if got := bootFailures(reg, reason); got != want {
			t.Errorf("boot_failures{reason=%q} = %v, want %v", reason, got, want)
		}
	}
	var rejected float64
	for _, pt := range reg.Points() {
		if pt.Name == MetricBootFailures {
			rejected += pt.Value
		}
	}
	if rejected != 2 {
		t.Errorf("boot_failures_total = %v over every reason, want 2", rejected)
	}
	// The injected failure must also be the only fault counted.
	var injected float64
	for _, pt := range reg.Points() {
		if pt.Name == faults.MetricFaultsInjected {
			injected += pt.Value
		}
	}
	if injected != 1 {
		t.Errorf("faults_injected_total = %v, want 1", injected)
	}
}

// TestCapExceededDoesNotConsumeBootOrdinal pins the audited behaviour:
// a cap-exceeded rejection happens before p.boots advances, so it must
// not shift which later boot an ordinal-keyed fault rule hits.
func TestCapExceededDoesNotConsumeBootOrdinal(t *testing.T) {
	plan, _ := faults.ParseSpec("bootfail:n=2")
	clock := vclock.NewClock(0)
	var opts Options
	opts.MaxInstances = 2
	opts.Faults = faults.NewInjector(plan, 1, clock)
	p := NewProvider(clock, opts)

	if _, err := p.RunInstancesOn("c3.2xlarge", 1, OnDemand); err != nil { // boot #1
		t.Fatal(err)
	}
	if _, err := p.RunInstancesOn("c3.2xlarge", 5, OnDemand); err == nil { // cap: no ordinal
		t.Fatal("cap-exceeded request succeeded")
	}
	// This is still boot #2 and must hit the n=2 rule.
	if _, err := p.RunInstancesOn("c3.2xlarge", 1, OnDemand); err == nil {
		t.Fatal("boot #2 dodged bootfail:n=2 after a cap rejection")
	}
}

// TestInterruptionTerminatesAndBillsToCrashTime checks that a crashed
// VM stops billing at the interruption time even when the clock has
// moved past it before anyone notices the loss, and that a later
// Terminate of the same VM is clamped to the crash.
func TestInterruptionTerminatesAndBillsToCrashTime(t *testing.T) {
	plan, _ := faults.ParseSpec("crash:at=3600,vm=1")
	clock := vclock.NewClock(0)
	p := NewProvider(clock, Options{Faults: faults.NewInjector(plan, 1, clock)})

	vms, err := p.RunInstancesOn("c3.2xlarge", 1, OnDemand)
	if err != nil {
		t.Fatal(err)
	}
	vm := vms[0]
	iv, ok := p.InterruptionFor(vm.ID)
	if !ok || iv.At != 3600 || iv.Class != faults.ClassCrash {
		t.Fatalf("InterruptionFor = %+v, %v; want crash at 3600", iv, ok)
	}

	// The run discovers the loss two hours in.
	clock.AdvanceTo(7200)
	pend := p.PendingInterruptions(clock.Now())
	if len(pend) != 1 || pend[0] != iv {
		t.Fatalf("PendingInterruptions = %v", pend)
	}
	if !p.ApplyInterruption(iv) {
		t.Fatal("ApplyInterruption returned false")
	}
	if vm.State(clock.Now()) != VMTerminated {
		t.Fatalf("VM state %v after interruption", vm.State(clock.Now()))
	}
	if vm.InterruptReason != string(faults.ClassCrash) || vm.InterruptedAt != 3600 {
		t.Fatalf("interrupt record: reason=%q at=%v", vm.InterruptReason, vm.InterruptedAt)
	}
	if got := vm.BilledHours(clock.Now()); got != 1 {
		t.Fatalf("crashed VM billed %v hours, want 1 (launch to crash)", got)
	}
	// Re-applying is a no-op; so is a plain Terminate afterwards.
	if p.ApplyInterruption(iv) {
		t.Fatal("second ApplyInterruption returned true")
	}
	p.Terminate(vm)
	if vm.TerminatedAt != 3600 {
		t.Fatalf("Terminate moved TerminatedAt to %v", vm.TerminatedAt)
	}
}

// TestTerminateClampsToStruckInterruption: cluster teardown calling
// plain Terminate on a VM whose interruption already struck must bill
// to the interruption time, not teardown time.
func TestTerminateClampsToStruckInterruption(t *testing.T) {
	plan, _ := faults.ParseSpec("crash:at=1800,vm=1")
	clock := vclock.NewClock(0)
	p := NewProvider(clock, Options{Faults: faults.NewInjector(plan, 1, clock)})
	vms, err := p.RunInstancesOn("c3.2xlarge", 1, OnDemand)
	if err != nil {
		t.Fatal(err)
	}
	clock.AdvanceTo(7200)
	p.Terminate(vms[0]) // nobody applied the interruption first
	if vms[0].TerminatedAt != 1800 {
		t.Fatalf("TerminatedAt = %v, want clamp to crash at 1800", vms[0].TerminatedAt)
	}
	if vms[0].InterruptReason != string(faults.ClassCrash) {
		t.Fatalf("InterruptReason = %q", vms[0].InterruptReason)
	}
	if got := p.TotalInstanceHours(); got != 0.5 {
		t.Fatalf("TotalInstanceHours = %v, want 0.5", got)
	}
}

// TestDegradedTransfer checks slowxfer stretches the upload clock.
func TestDegradedTransfer(t *testing.T) {
	plan, _ := faults.ParseSpec("slowxfer:x=0.5")
	clock := vclock.NewClock(0)
	p := NewProvider(clock, Options{Faults: faults.NewInjector(plan, 1, clock)})

	base := ingress.Transfer(1e9)
	got := p.UploadFromLocal(1e9)
	if got != 2*base {
		t.Fatalf("degraded upload took %v, want %v (2x)", got, 2*base)
	}
	if clock.Now() != vclock.Time(got) {
		t.Fatalf("clock at %v after upload of %v", clock.Now(), got)
	}
}
