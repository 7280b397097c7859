package cluster

import (
	"bytes"
	"fmt"
	"testing"

	"rnascale/internal/cloud"
	"rnascale/internal/sge"
	"rnascale/internal/vclock"
)

func newProvider() *cloud.Provider {
	return cloud.NewProvider(vclock.NewClock(0), cloud.DefaultOptions())
}

func TestBuildAdvancesClockAndRegistersNodes(t *testing.T) {
	p := newProvider()
	c, err := Build(p, "c3.2xlarge", 4, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	// 60 s boot + 90 s config.
	if now := p.Clock().Now(); now != 150 {
		t.Errorf("build finished at %v, want 150", now)
	}
	if c.Size() != 4 {
		t.Errorf("size %d", c.Size())
	}
	if got := c.Scheduler().TotalSlots(); got != 32 {
		t.Errorf("slots %d, want 32", got)
	}
	if c.Head() == nil || c.Head().Type.Name != "c3.2xlarge" {
		t.Error("head node wrong")
	}
	if c.InstanceType().Cores != 8 {
		t.Error("instance type")
	}
}

func TestBuildErrors(t *testing.T) {
	p := newProvider()
	if _, err := Build(p, "c3.2xlarge", 0, DefaultOptions()); err == nil {
		t.Error("zero nodes accepted")
	}
	if _, err := Build(p, "no-such-type", 2, DefaultOptions()); err == nil {
		t.Error("unknown type accepted")
	}
}

func TestGrowAndShrink(t *testing.T) {
	p := newProvider()
	c, err := Build(p, "c3.2xlarge", 1, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	added, err := c.Grow(35)
	if err != nil {
		t.Fatal(err)
	}
	if len(added) != 35 || c.Size() != 36 {
		t.Fatalf("grow: %d added, size %d", len(added), c.Size())
	}
	if got := c.Scheduler().TotalSlots(); got != 36*8 {
		t.Errorf("slots %d", got)
	}
	if err := c.ShrinkTo(1); err != nil {
		t.Fatal(err)
	}
	if c.Size() != 1 {
		t.Errorf("post-shrink size %d", c.Size())
	}
	if got := len(c.Scheduler().ActiveNodes()); got != 1 {
		t.Errorf("active SGE nodes %d", got)
	}
	if got := len(p.Running()); got != 1 {
		t.Errorf("running VMs %d", got)
	}
	// Shrinking to a size >= current is a no-op.
	if err := c.ShrinkTo(5); err != nil {
		t.Error(err)
	}
	if err := c.ShrinkTo(0); err == nil {
		t.Error("shrink to 0 accepted")
	}
	if _, err := c.Grow(0); err == nil {
		t.Error("grow by 0 accepted")
	}
}

func TestAdoptReusesVMsWithoutReconfig(t *testing.T) {
	p := newProvider()
	vms, err := p.RunInstances("r3.2xlarge", 3)
	if err != nil {
		t.Fatal(err)
	}
	p.WaitRunning(vms)
	before := p.Clock().Now()
	c, err := Adopt(p, vms, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if p.Clock().Now() != before {
		t.Error("Adopt advanced the clock")
	}
	if c.Scheduler().TotalSlots() != 24 {
		t.Errorf("slots %d", c.Scheduler().TotalSlots())
	}
	// Adopting pending VMs must fail.
	fresh, _ := p.RunInstances("r3.2xlarge", 1)
	if _, err := Adopt(p, fresh, DefaultOptions()); err == nil {
		t.Error("adopted a pending VM")
	}
	if _, err := Adopt(p, nil, DefaultOptions()); err == nil {
		t.Error("adopted empty VM list")
	}
}

func TestClusterRunsSGEJobs(t *testing.T) {
	p := newProvider()
	c, err := Build(p, "c3.2xlarge", 2, DefaultOptions())
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

func TestSharedStore(t *testing.T) {
	s := NewSharedStore()
	if err := s.Put("", []byte("x")); err == nil {
		t.Error("empty path accepted")
	}
	if err := s.Put("data/reads.fastq", []byte("hello")); err != nil {
		t.Fatal(err)
	}
	got, err := s.Get("data/reads.fastq")
	if err != nil || !bytes.Equal(got, []byte("hello")) {
		t.Fatalf("get: %q %v", got, err)
	}
	// Mutating the returned slice must not affect the store.
	got[0] = 'X'
	again, _ := s.Get("data/reads.fastq")
	if !bytes.Equal(again, []byte("hello")) {
		t.Error("store aliases caller memory")
	}
	if !s.Exists("data/reads.fastq") || s.Exists("nope") {
		t.Error("Exists wrong")
	}
	if s.Size("data/reads.fastq") != 5 || s.Size("nope") != 0 {
		t.Error("Size wrong")
	}
	s.Put("data/other", []byte("ab"))
	s.Put("asm/c1", []byte("c"))
	if s.TotalBytes() != 8 {
		t.Errorf("total %d", s.TotalBytes())
	}
	list := s.List("data/")
	if len(list) != 2 || list[0] != "data/other" || list[1] != "data/reads.fastq" {
		t.Errorf("list %v", list)
	}
	if _, err := s.Get("nope"); err == nil {
		t.Error("missing file read")
	}
	s.Delete("data/other")
	if s.Exists("data/other") {
		t.Error("delete failed")
	}
	s.Delete("data/other") // no-op
}

// TestPutTakesOwnership: Put stores the caller's slice itself — the
// seven callers in core hand over a buffer they never touch again —
// so staging a file costs no allocation however large it is, and the
// same blob may sit under several paths.
func TestPutTakesOwnership(t *testing.T) {
	s := NewSharedStore()
	blob := bytes.Repeat([]byte("ACGT"), 1<<18) // 1 MiB
	s.Put("warm", nil)                          // the map's first bucket is not Put's cost
	if n := testing.AllocsPerRun(10, func() {
		if err := s.Put("data/a.sfa", blob); err != nil {
			t.Fatal(err)
		}
		if err := s.Put("data/b.sfa", blob); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Errorf("Put of a 1 MiB blob under two paths allocated %.0f times, want 0", n)
	}
	if &s.files["data/a.sfa"][0] != &blob[0] || &s.files["data/b.sfa"][0] != &blob[0] {
		t.Error("Put copied the blob instead of taking ownership")
	}
	if s.TotalBytes() != 2*int64(len(blob)) {
		t.Errorf("total %d, want the logical size of both paths", s.TotalBytes())
	}
}

// TestCopyAllShares: a copy between pilots' stores carries every file,
// replaces same-named ones, and shares the immutable blobs — its
// allocation is per path (the destination's map), not per byte.
func TestCopyAllShares(t *testing.T) {
	src, dst := NewSharedStore(), NewSharedStore()
	const files = 16
	for i := 0; i < files; i++ {
		src.Put(fmt.Sprintf("asm/k%d.fa", i), bytes.Repeat([]byte{'A' + byte(i)}, 1<<20))
	}
	dst.Put("asm/k0.fa", []byte("stale"))
	dst.Put("post/kept", []byte("kept"))
	src.CopyAll(dst)
	for _, path := range src.List("") {
		if &dst.files[path][0] != &src.files[path][0] {
			t.Fatalf("%s was duplicated, not shared", path)
		}
	}
	if got, _ := dst.Get("post/kept"); string(got) != "kept" || len(dst.List("")) != files+1 {
		t.Errorf("destination holds %v, want the %d copied files plus its own", dst.List(""), files)
	}
	// 16 MiB of files: a byte-wise copy would allocate at least once per
	// file; sharing allocates only when the destination map grows.
	n := testing.AllocsPerRun(10, func() { src.CopyAll(NewSharedStore()) })
	if n > files {
		t.Errorf("copying %d files of 1 MiB allocated %.0f times: O(bytes), want O(paths)", files, n)
	}
	// Get still hands out a private copy of a shared blob.
	got, _ := dst.Get("asm/k1.fa")
	got[0] = 'X'
	if again, _ := src.Get("asm/k1.fa"); again[0] != 'B' {
		t.Error("Get exposed a blob two stores share")
	}
}

func TestBuildCostAccrues(t *testing.T) {
	p := newProvider()
	c, err := Build(p, "c3.2xlarge", 36, DefaultOptions())
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
	c, err := Build(p, "c3.2xlarge", 1, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	head := c.Head()
	if err := c.RemoveVM(head); err != nil {
		t.Fatalf("removing the only VM: %v", err)
	}
	if c.Size() != 0 {
		t.Errorf("size %d after removing the last VM", c.Size())
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
	c, err := Build(p, "c3.2xlarge", 2, DefaultOptions())
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
	if c.Size() != 1 {
		t.Errorf("size %d after rejected replacement, want 1", c.Size())
	}
	// A VM from a different cluster is equally not a member.
	other, err := Build(p, "c3.2xlarge", 1, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.ReplaceVM(other.Head()); err == nil {
		t.Error("replacement of a foreign VM accepted")
	}
}

func TestReplaceVMDuringInFlightStage(t *testing.T) {
	p := newProvider()
	c, err := Build(p, "c3.2xlarge", 2, DefaultOptions())
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
	if c.Size() != 2 || len(c.Scheduler().ActiveNodes()) != 2 {
		t.Errorf("size %d, queue nodes %d; want 2 and 2",
			c.Size(), len(c.Scheduler().ActiveNodes()))
	}
	// Recovery is not free: the replacement boots and configures.
	if got := p.Clock().Now() - before; got < 150 {
		t.Errorf("replacement took %v, want >= 150s of boot+config", got)
	}
	// The in-flight job stands untouched...
	jobs := c.Scheduler().Jobs()
	if len(jobs) != 1 || jobs[0].Start != job.Start {
		t.Errorf("in-flight job disturbed: %+v", jobs)
	}
	// ...and the stage can keep scheduling onto the replacement.
	if _, err := c.Scheduler().Submit(sge.JobSpec{
		Name: "asm2", Slots: 8, Rule: sge.SingleNode, Duration: 10,
	}, p.Clock().Now()); err != nil {
		t.Fatalf("job after replacement: %v", err)
	}
	// Replacing the head promotes the next member.
	head := c.Head()
	p.Terminate(head)
	if _, err := c.ReplaceVM(head); err != nil {
		t.Fatal(err)
	}
	if c.Head() == head {
		t.Error("dead head not demoted")
	}
	if !c.HasVM(c.Head().ID) {
		t.Error("promoted head is not a member")
	}
}
