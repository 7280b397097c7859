package cloud

import (
	"math"
	"testing"
	"testing/quick"

	"rnascale/internal/vclock"
)

func newTestProvider() *Provider {
	return NewProvider(vclock.NewClock(0), Options{})
}

func TestCatalogShapes(t *testing.T) {
	// The two benchmark types from the paper.
	if C32XLarge.Cores != 8 || C32XLarge.MemoryGB != 16 || C32XLarge.PricePerHour != 0.42 {
		t.Errorf("c3.2xlarge = %+v", C32XLarge)
	}
	if R32XLarge.Cores != 8 || R32XLarge.MemoryGB != 61 || R32XLarge.PricePerHour != 0.70 {
		t.Errorf("r3.2xlarge = %+v", R32XLarge)
	}
}

func TestRunInstancesLifecycle(t *testing.T) {
	p := newTestProvider()
	vms, err := p.RunInstancesOn("c3.2xlarge", 3, OnDemand)
	if err != nil {
		t.Fatal(err)
	}
	if len(vms) != 3 {
		t.Fatalf("got %d VMs", len(vms))
	}
	now := p.Clock().Now()
	for _, vm := range vms {
		if vm.State(now) != VMPending {
			t.Errorf("%s state %v, want pending", vm.ID, vm.State(now))
		}
	}
	p.WaitRunning(vms)
	now = p.Clock().Now()
	if now != vclock.Time(60) {
		t.Fatalf("boot wait ended at %v", now)
	}
	for _, vm := range vms {
		if vm.State(now) != VMRunning {
			t.Errorf("%s not running after wait", vm.ID)
		}
	}
	p.Terminate(vms[0])
	if vms[0].State(p.Clock().Now()) != VMTerminated {
		t.Error("terminate did not stick")
	}
	p.Terminate(vms[0]) // idempotent
	if got := len(p.Running()); got != 2 {
		t.Errorf("running = %d, want 2", got)
	}
}

func TestRunInstancesErrors(t *testing.T) {
	p := newTestProvider()
	if _, err := p.RunInstancesOn("nope", 1, OnDemand); err == nil {
		t.Error("unknown type accepted")
	}
	if _, err := p.RunInstancesOn("c3.2xlarge", 0, OnDemand); err == nil {
		t.Error("zero count accepted")
	}
	limited := NewProvider(vclock.NewClock(0), Options{MaxInstances: 2})
	if _, err := limited.RunInstancesOn("c3.2xlarge", 3, OnDemand); err == nil {
		t.Error("instance cap not enforced")
	}
	vms, err := limited.RunInstancesOn("c3.2xlarge", 2, OnDemand)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := limited.RunInstancesOn("c3.2xlarge", 1, OnDemand); err == nil {
		t.Error("cap allowed third instance")
	}
	limited.Terminate(vms[0])
	if _, err := limited.RunInstancesOn("c3.2xlarge", 1, OnDemand); err != nil {
		t.Errorf("cap should free after terminate: %v", err)
	}
}

func TestFractionalBillingMatchesPaperArithmetic(t *testing.T) {
	// Reconstruct the sample run's ledger shape: 1 VM for the whole
	// 2h47m plus 35 VMs for roughly the assembly window. The paper
	// reports $20.28 ≈ 48.28 c3.2xlarge hours.
	p := newTestProvider()
	head, err := p.RunInstancesOn("c3.2xlarge", 1, OnDemand)
	if err != nil {
		t.Fatal(err)
	}
	p.WaitRunning(head)
	p.Clock().Advance(47*vclock.Minute + 35*vclock.Second) // transfer + preprocess
	workers, err := p.RunInstancesOn("c3.2xlarge", 35, OnDemand)
	if err != nil {
		t.Fatal(err)
	}
	p.WaitRunning(workers)
	p.Clock().Advance(78 * vclock.Minute) // assembly
	p.Terminate(workers...)
	p.Clock().Advance(41 * vclock.Minute) // post-processing on the head VM
	p.Terminate(head...)

	cost := p.TotalCost()
	if cost < 15 || cost > 25 {
		t.Errorf("sample-run cost = $%.2f, want ≈ $20", cost)
	}
	hours := p.TotalInstanceHours()
	if hours < 40 || hours > 55 {
		t.Errorf("instance-hours = %.2f, want ≈ 48", hours)
	}
}

func TestBillGroupsByType(t *testing.T) {
	p := newTestProvider()
	a, _ := p.RunInstancesOn("c3.2xlarge", 2, OnDemand)
	b, _ := p.RunInstancesOn("r3.2xlarge", 1, OnDemand)
	p.WaitRunning(append(append([]*VM{}, a...), b...))
	p.Clock().Advance(vclock.Hour)
	p.TerminateAll()
	bill := p.Bill()
	if len(bill) != 2 {
		t.Fatalf("bill lines = %d", len(bill))
	}
	if bill[0].Type != "c3.2xlarge" || bill[0].Instances != 2 {
		t.Errorf("line 0 = %+v", bill[0])
	}
	if bill[1].Type != "r3.2xlarge" || bill[1].Instances != 1 {
		t.Errorf("line 1 = %+v", bill[1])
	}
}

func TestUploadFromLocal(t *testing.T) {
	p := newTestProvider()
	// The paper's sample run: 4.4 GB in about 3 min 35 s.
	d := p.UploadFromLocal(4_400_000_000)
	if d < 3*vclock.Minute || d > 4*vclock.Minute {
		t.Errorf("4.4GB upload = %v, want ≈ 3m35s", d)
	}
	if p.Clock().Now() != vclock.Time(0).Add(d) {
		t.Error("upload did not advance clock")
	}
}

// Property: billing is monotone in time — advancing the clock never
// reduces the bill, and terminating VMs freezes their contribution.
func TestBillingMonotonicityProperty(t *testing.T) {
	f := func(extraMinutes uint8) bool {
		p := newTestProvider()
		vms, _ := p.RunInstancesOn("c3.2xlarge", 2, OnDemand)
		p.WaitRunning(vms)
		p.Clock().Advance(vclock.Duration(extraMinutes) * vclock.Minute)
		before := p.TotalCost()
		p.Clock().Advance(5 * vclock.Minute)
		mid := p.TotalCost()
		p.TerminateAll()
		frozen := p.TotalCost()
		p.Clock().Advance(vclock.Hour)
		after := p.TotalCost()
		return before <= mid && mid <= frozen && math.Abs(frozen-after) < 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestVMStatePendingWindow(t *testing.T) {
	p := newTestProvider()
	vms, _ := p.RunInstancesOn("c3.2xlarge", 1, OnDemand)
	vm := vms[0]
	if vm.State(vm.LaunchedAt) != VMPending {
		t.Error("not pending at launch")
	}
	if vm.State(vm.RunningAt) != VMRunning {
		t.Error("not running at boot completion")
	}
	// Terminate before the boot completes: termination takes effect at
	// boot time at the earliest (billing still covers the boot).
	p.Terminate(vm)
	if vm.TerminatedAt < vm.RunningAt {
		t.Error("terminated before running")
	}
	if VMPending.String() != "pending" || VMRunning.String() != "running" || VMTerminated.String() != "terminated" {
		t.Error("state strings")
	}
}
