package cluster

import (
	"testing"

	"rnascale/internal/cloud"
	"rnascale/internal/sge"
	"rnascale/internal/vclock"
)

func newProvider() *cloud.Provider {
	return cloud.NewProvider(vclock.NewClock(0), cloud.Options{})
}

func TestBuildAdvancesClockAndRegistersNodes(t *testing.T) {
	p := newProvider()
	c, err := BuildOn(p, "c3.2xlarge", 4, cloud.OnDemand)
	if err != nil {
		t.Fatal(err)
	}
	// 60 s boot + 90 s config.
	if now := p.Clock().Now(); now != 150 {
		t.Errorf("build finished at %v, want 150", now)
	}
	if len(c.VMs()) != 4 {
		t.Errorf("size %d", len(c.VMs()))
	}
	if got := len(c.Scheduler().ActiveNodes()); got != 4 {
		t.Errorf("%d queue nodes, want 4", got)
	}
	if vms := c.VMs(); len(vms) != 4 || vms[0].Type.Name != "c3.2xlarge" {
		t.Error("member VMs wrong")
	}
	if c.InstanceType().Cores != 8 {
		t.Error("instance type")
	}
}

func TestBuildErrors(t *testing.T) {
	p := newProvider()
	if _, err := BuildOn(p, "c3.2xlarge", 0, cloud.OnDemand); err == nil {
		t.Error("zero nodes accepted")
	}
	if _, err := BuildOn(p, "no-such-type", 2, cloud.OnDemand); err == nil {
		t.Error("unknown type accepted")
	}
}

func TestGrowAndShrink(t *testing.T) {
	p := newProvider()
	c, err := BuildOn(p, "c3.2xlarge", 1, cloud.OnDemand)
	if err != nil {
		t.Fatal(err)
	}
	added, err := c.Grow(35)
	if err != nil {
		t.Fatal(err)
	}
	if len(added) != 35 || len(c.VMs()) != 36 {
		t.Fatalf("grow: %d added, size %d", len(added), len(c.VMs()))
	}
	if got := len(c.Scheduler().ActiveNodes()); got != 36 {
		t.Errorf("%d queue nodes, want 36", got)
	}
	// Shrinking for PC is what an S2 handover does: the next pilot
	// adopts the first VM and the rest are terminated.
	vms := c.VMs()
	p.Terminate(vms[1:]...)
	c, err = Adopt(p, vms[:1])
	if err != nil {
		t.Fatal(err)
	}
	if got := len(c.Scheduler().ActiveNodes()); got != 1 {
		t.Errorf("active SGE nodes %d", got)
	}
	if got := len(p.Running()); got != 1 {
		t.Errorf("running VMs %d", got)
	}
	if _, err := c.Grow(0); err == nil {
		t.Error("grow by 0 accepted")
	}
}

func TestAdoptReusesVMsWithoutReconfig(t *testing.T) {
	p := newProvider()
	vms, err := p.RunInstancesOn("r3.2xlarge", 3, cloud.OnDemand)
	if err != nil {
		t.Fatal(err)
	}
	p.WaitRunning(vms)
	before := p.Clock().Now()
	c, err := Adopt(p, vms)
	if err != nil {
		t.Fatal(err)
	}
	if p.Clock().Now() != before {
		t.Error("Adopt advanced the clock")
	}
	if got := len(c.Scheduler().ActiveNodes()); got != 3 {
		t.Errorf("%d queue nodes, want 3", got)
	}
	// Adopting pending VMs must fail.
	fresh, _ := p.RunInstancesOn("r3.2xlarge", 1, cloud.OnDemand)
	if _, err := Adopt(p, fresh); err == nil {
		t.Error("adopted a pending VM")
	}
	if _, err := Adopt(p, nil); err == nil {
		t.Error("adopted empty VM list")
	}
}

func TestClusterRunsSGEJobs(t *testing.T) {
	p := newProvider()
	c, err := BuildOn(p, "c3.2xlarge", 2, cloud.OnDemand)
	if err != nil {
		t.Fatal(err)
	}
	j, err := c.Scheduler().Submit(sge.JobSpec{
		Name: "asm", Slots: 8, Rule: sge.SingleNode, Duration: 100,
	}, p.Clock().Now())
	if err != nil {
		t.Fatal(err)
	}
	if j.Start != p.Clock().Now() {
		t.Errorf("job start %v", j.Start)
	}
}

func TestBuildCostAccrues(t *testing.T) {
	p := newProvider()
	c, err := BuildOn(p, "c3.2xlarge", 36, cloud.OnDemand)
	if err != nil {
		t.Fatal(err)
	}
	p.Clock().Advance(vclock.Hour)
	c.Terminate()
	cost := p.TotalCost()
	// 36 nodes for ~1h2.5m at $0.42 ≈ $15.7.
	if cost < 14 || cost > 18 {
		t.Errorf("cost $%.2f", cost)
	}
}

func TestRemoveLastVM(t *testing.T) {
	p := newProvider()
	c, err := BuildOn(p, "c3.2xlarge", 1, cloud.OnDemand)
	if err != nil {
		t.Fatal(err)
	}
	head := c.VMs()[0]
	if err := c.RemoveVM(head); err != nil {
		t.Fatalf("removing the only VM: %v", err)
	}
	if len(c.VMs()) != 0 {
		t.Errorf("size %d after removing the last VM", len(c.VMs()))
	}
	if c.HasVM(head.ID) {
		t.Error("removed VM still a member")
	}
	if n := len(c.Scheduler().ActiveNodes()); n != 0 {
		t.Errorf("%d queue nodes survive an empty cluster", n)
	}
	// Removing it again is a membership error, not a crash.
	if err := c.RemoveVM(head); err == nil {
		t.Error("second removal of the same VM accepted")
	}
}

func TestReplaceAlreadyRemovedVM(t *testing.T) {
	p := newProvider()
	c, err := BuildOn(p, "c3.2xlarge", 2, cloud.OnDemand)
	if err != nil {
		t.Fatal(err)
	}
	worker := c.VMs()[1]
	if err := c.RemoveVM(worker); err != nil {
		t.Fatal(err)
	}
	if _, err := c.ReplaceVM(worker); err == nil {
		t.Fatal("replacement of an already-removed VM accepted")
	}
	// The failed replacement booted nothing.
	if len(c.VMs()) != 1 {
		t.Errorf("size %d after rejected replacement, want 1", len(c.VMs()))
	}
	// A VM from a different cluster is equally not a member.
	other, err := BuildOn(p, "c3.2xlarge", 1, cloud.OnDemand)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.ReplaceVM(other.VMs()[0]); err == nil {
		t.Error("replacement of a foreign VM accepted")
	}
}

func TestReplaceVMDuringInFlightStage(t *testing.T) {
	p := newProvider()
	c, err := BuildOn(p, "c3.2xlarge", 2, cloud.OnDemand)
	if err != nil {
		t.Fatal(err)
	}
	// A stage is in flight: a long assembly job occupies one node.
	job, err := c.Scheduler().Submit(sge.JobSpec{
		Name: "asm", Slots: 8, Rule: sge.SingleNode, Duration: 1000,
	}, p.Clock().Now())
	if err != nil {
		t.Fatal(err)
	}
	// The other node dies mid-stage and is replaced.
	dead := c.VMs()[1]
	p.Terminate(dead)
	before := p.Clock().Now()
	repl, err := c.ReplaceVM(dead)
	if err != nil {
		t.Fatal(err)
	}
	if repl.ID == dead.ID {
		t.Error("replacement reused the dead VM")
	}
	if c.HasVM(dead.ID) || !c.HasVM(repl.ID) {
		t.Error("membership after replacement wrong")
	}
	if len(c.VMs()) != 2 || len(c.Scheduler().ActiveNodes()) != 2 {
		t.Errorf("size %d, queue nodes %d; want 2 and 2",
			len(c.VMs()), len(c.Scheduler().ActiveNodes()))
	}
	// Recovery is not free: the replacement boots and configures.
	if got := p.Clock().Now() - before; got < 150 {
		t.Errorf("replacement took %v, want >= 150s of boot+config", got)
	}
	// The in-flight job stands untouched...
	if job.End != job.Start.Add(1000) {
		t.Errorf("in-flight job disturbed: %+v", job)
	}
	// ...and the stage can keep scheduling onto the replacement.
	if _, err := c.Scheduler().Submit(sge.JobSpec{
		Name: "asm2", Slots: 8, Rule: sge.SingleNode, Duration: 10,
	}, p.Clock().Now()); err != nil {
		t.Fatalf("job after replacement: %v", err)
	}
	// Replacing the first member leaves the second first.
	first, second := c.VMs()[0], c.VMs()[1]
	p.Terminate(first)
	if _, err := c.ReplaceVM(first); err != nil {
		t.Fatal(err)
	}
	if c.HasVM(first.ID) || c.VMs()[0] != second {
		t.Errorf("members after replacing the first: %v", c.VMs())
	}
}
