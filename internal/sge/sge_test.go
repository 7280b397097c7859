package sge

import (
	"fmt"
	"testing"
	"testing/quick"

	"rnascale/internal/vclock"
)

func twoNodeCluster(t *testing.T) *Scheduler {
	t.Helper()
	s, err := New([]NodeSpec{
		{Name: "node001", Slots: 8, MemoryGB: 16},
		{Name: "node002", Slots: 8, MemoryGB: 16},
	})
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestSingleNodeJobsPackSeparateNodes(t *testing.T) {
	s := twoNodeCluster(t)
	// Two 8-slot MPI jobs: each takes a full node, so both start at 0.
	j1, err := s.Submit(JobSpec{Name: "ray-k35", Slots: 8, Rule: SingleNode, Duration: 100}, 0)
	if err != nil {
		t.Fatal(err)
	}
	j2, err := s.Submit(JobSpec{Name: "ray-k37", Slots: 8, Rule: SingleNode, Duration: 100}, 0)
	if err != nil {
		t.Fatal(err)
	}
	if j1.Start != 0 || j2.Start != 0 {
		t.Fatalf("starts %v %v, want both 0", j1.Start, j2.Start)
	}
	if len(j1.SlotsByNode) != 1 || len(j2.SlotsByNode) != 1 || fmt.Sprint(j1.SlotsByNode) == fmt.Sprint(j2.SlotsByNode) {
		t.Error("both jobs on the same node")
	}
	// A third full-node job must queue.
	j3, err := s.Submit(JobSpec{Name: "ray-k39", Slots: 8, Rule: SingleNode, Duration: 50}, 0)
	if err != nil {
		t.Fatal(err)
	}
	if j3.Start != 100 {
		t.Errorf("third job start %v, want 100", j3.Start)
	}
	if j3.End != 150 {
		t.Errorf("third job end %v, want 150", j3.End)
	}
}

func TestSingleNodeRejectsOversize(t *testing.T) {
	s := twoNodeCluster(t)
	if _, err := s.Submit(JobSpec{Name: "big", Slots: 9, Rule: SingleNode, Duration: 1}, 0); err == nil {
		t.Error("9-slot single-node job accepted on 8-slot nodes")
	}
}

func TestFillUpSpansNodes(t *testing.T) {
	s := twoNodeCluster(t)
	j, err := s.Submit(JobSpec{Name: "contrail", Slots: 12, Rule: FillUp, Duration: 10}, 0)
	if err != nil {
		t.Fatal(err)
	}
	if j.Start != 0 {
		t.Errorf("start %v", j.Start)
	}
	if len(j.SlotsByNode) != 2 {
		t.Errorf("placement %v, want 2 nodes", j.SlotsByNode)
	}
	total := 0
	for _, n := range j.SlotsByNode {
		total += n
	}
	if total != 12 {
		t.Errorf("allocated %d slots", total)
	}
}

func TestRoundRobinSpreads(t *testing.T) {
	s := twoNodeCluster(t)
	j, err := s.Submit(JobSpec{Name: "rr", Slots: 4, Rule: RoundRobin, Duration: 10}, 0)
	if err != nil {
		t.Fatal(err)
	}
	if j.SlotsByNode["node001"] != 2 || j.SlotsByNode["node002"] != 2 {
		t.Errorf("round-robin placement %v, want 2+2", j.SlotsByNode)
	}
}

func TestQueueingBehindPartialLoad(t *testing.T) {
	s := twoNodeCluster(t)
	if _, err := s.Submit(JobSpec{Name: "half", Slots: 12, Rule: FillUp, Duration: 60}, 0); err != nil {
		t.Fatal(err)
	}
	// 4 slots remain free; an 8-slot spanning job waits for the first.
	j, err := s.Submit(JobSpec{Name: "late", Slots: 8, Rule: FillUp, Duration: 10}, 0)
	if err != nil {
		t.Fatal(err)
	}
	if j.Start != 60 {
		t.Errorf("start %v, want 60", j.Start)
	}
	// But a 4-slot job backfills immediately (FIFO list scheduling
	// still gives it the free slots because it is submitted after).
	j2, err := s.Submit(JobSpec{Name: "small", Slots: 4, Rule: FillUp, Duration: 5}, 0)
	if err != nil {
		t.Fatal(err)
	}
	if j2.Start != 0 {
		t.Errorf("small job start %v, want 0", j2.Start)
	}
}

func TestMemoryFeasibility(t *testing.T) {
	s := twoNodeCluster(t) // 16 GB nodes
	// 8 slots × 3 GB = 24 GB on one node: infeasible anywhere.
	if _, err := s.Submit(JobSpec{Name: "oom", Slots: 8, Rule: SingleNode, Duration: 1, MemoryGBPerSlot: 3}, 0); err == nil {
		t.Error("memory-infeasible job accepted")
	}
	// 8 slots × 1.5 GB = 12 GB: fits.
	if _, err := s.Submit(JobSpec{Name: "fits", Slots: 8, Rule: SingleNode, Duration: 1, MemoryGBPerSlot: 1.5}, 0); err != nil {
		t.Errorf("feasible job rejected: %v", err)
	}
}

func TestAddRemoveNode(t *testing.T) {
	s := twoNodeCluster(t)
	if err := s.AddNode(NodeSpec{Name: "node003", Slots: 8, MemoryGB: 16}, 50); err != nil {
		t.Fatal(err)
	}
	if got := len(s.ActiveNodes()); got != 3 {
		t.Errorf("%d active nodes, want 3", got)
	}
	// The late node's slots only open at t=50.
	s.Submit(JobSpec{Name: "j1", Slots: 8, Rule: SingleNode, Duration: 100}, 0)
	s.Submit(JobSpec{Name: "j2", Slots: 8, Rule: SingleNode, Duration: 100}, 0)
	j3, _ := s.Submit(JobSpec{Name: "j3", Slots: 8, Rule: SingleNode, Duration: 10}, 0)
	if j3.Start != 50 {
		t.Errorf("job on late node starts %v, want 50", j3.Start)
	}
	if err := s.RemoveNode("node003"); err != nil {
		t.Fatal(err)
	}
	if err := s.RemoveNode("node003"); err == nil {
		t.Error("double remove accepted")
	}
	if got := len(s.ActiveNodes()); got != 2 {
		t.Errorf("active nodes %d", got)
	}
	if err := s.AddNode(NodeSpec{Name: "node001", Slots: 1, MemoryGB: 1}, 0); err == nil {
		t.Error("duplicate node name accepted")
	}
}

func TestSubmitValidation(t *testing.T) {
	s := twoNodeCluster(t)
	if _, err := s.Submit(JobSpec{Name: "zero", Slots: 0, Duration: 1}, 0); err == nil {
		t.Error("zero slots accepted")
	}
	if _, err := s.Submit(JobSpec{Name: "neg", Slots: 1, Duration: -1}, 0); err == nil {
		t.Error("negative duration accepted")
	}
	if _, err := s.Submit(JobSpec{Name: "huge", Slots: 64, Rule: FillUp, Duration: 1}, 0); err == nil {
		t.Error("64 slots on a 16-slot cluster accepted")
	}
	if _, err := New([]NodeSpec{{Name: "", Slots: 1, MemoryGB: 1}}); err == nil {
		t.Error("invalid node spec accepted")
	}
}

// Property: slot conservation — at no point do concurrently running
// jobs use more slots than the cluster has.
func TestSlotConservationProperty(t *testing.T) {
	f := func(sizes []uint8) bool {
		s, _ := New([]NodeSpec{
			{Name: "a", Slots: 8, MemoryGB: 64},
			{Name: "b", Slots: 8, MemoryGB: 64},
		})
		var jobs []*Job
		for i, raw := range sizes {
			if i >= 12 {
				break
			}
			slots := int(raw)%16 + 1
			rule := FillUp
			if slots <= 8 && raw%2 == 0 {
				rule = SingleNode
			}
			j, err := s.Submit(JobSpec{Name: "j", Slots: slots, Rule: rule, Duration: vclock.Duration(raw%50 + 1)}, 0)
			if err != nil {
				return false
			}
			jobs = append(jobs, j)
		}
		// Sample the timeline at every job boundary.
		for _, probe := range jobs {
			for _, t0 := range []vclock.Time{probe.Start, probe.End - 0.5} {
				inUse := 0
				for _, j := range jobs {
					if j.Start <= t0 && t0 < j.End {
						inUse += j.Spec.Slots
					}
				}
				if inUse > 16 {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

// Property: per-node allocations never exceed node capacity.
func TestNodeCapacityProperty(t *testing.T) {
	f := func(sizes []uint8) bool {
		s, _ := New([]NodeSpec{
			{Name: "a", Slots: 8, MemoryGB: 64},
			{Name: "b", Slots: 4, MemoryGB: 64},
		})
		cap := map[string]int{"a": 8, "b": 4}
		for i, raw := range sizes {
			if i >= 10 {
				break
			}
			slots := int(raw)%12 + 1
			j, err := s.Submit(JobSpec{Name: "j", Slots: slots, Rule: RoundRobin, Duration: 10}, 0)
			if err != nil {
				return false
			}
			for node, n := range j.SlotsByNode {
				if n > cap[node] {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}
