// Package sge simulates a Sun Grid Engine-style batch scheduler, the
// local scheduler that StarCluster installs on the paper's EC2
// clusters and to which the pipeline submits its MPI and Hadoop
// assembly jobs.
//
// The simulation is a deterministic FIFO list scheduler over per-node
// slots in virtual time. Job durations are known at submission time
// (they come from the assembler cost models), so scheduling reduces to
// computing, for each job in submit order, the earliest time at which
// its slot request can be satisfied, then reserving those slots.
//
// Three parallel-environment allocation rules are supported, mirroring
// SGE's `$pe_slots`, `$fill_up` and `$round_robin`.
package sge

import (
	"cmp"
	"fmt"
	"slices"

	"rnascale/internal/vclock"
)

// AllocationRule selects how a job's slots are placed on nodes.
type AllocationRule int

const (
	// SingleNode requires all slots on one node (SGE "$pe_slots"),
	// the rule the paper uses for its 8-slot MPI jobs.
	SingleNode AllocationRule = iota
	// FillUp packs slots onto as few nodes as possible (SGE "$fill_up").
	FillUp
	// RoundRobin spreads slots one per node in rotation
	// (SGE "$round_robin"), maximizing per-rank memory.
	RoundRobin
)

// String implements fmt.Stringer.
func (r AllocationRule) String() string {
	switch r {
	case SingleNode:
		return "$pe_slots"
	case FillUp:
		return "$fill_up"
	case RoundRobin:
		return "$round_robin"
	default:
		return fmt.Sprintf("AllocationRule(%d)", int(r))
	}
}

// NodeSpec describes one execution host.
type NodeSpec struct {
	Name     string
	Slots    int
	MemoryGB float64
}

// node is the scheduler's mutable view of a host.
type node struct {
	spec    NodeSpec
	avail   []vclock.Time // per-slot next-free time
	removed bool
}

// JobSpec is a batch job submission.
type JobSpec struct {
	Name string
	// Slots is the total slot count requested (SGE -pe <env> <n>).
	Slots int
	Rule  AllocationRule
	// Duration is the job's runtime, computed a priori by the caller's
	// cost model.
	Duration vclock.Duration
	// MemoryGBPerSlot is the resident memory each slot needs; a node
	// whose memory divided by its allocated slots is below this cannot
	// host the job (SGE -l mem_free semantics, simplified).
	MemoryGBPerSlot float64
}

// Job is a scheduled job with its placement decision.
type Job struct {
	ID     int
	Spec   JobSpec
	Submit vclock.Time
	Start  vclock.Time
	End    vclock.Time
	// SlotsByNode maps node name → slots allocated there.
	SlotsByNode map[string]int
}

// Scheduler is the batch queue. It is not safe for concurrent use.
type Scheduler struct {
	nodes    []*node
	nextID   int
	observer func(*Job)
	// Placement scratch every Submit reuses: the candidate slots and
	// their free times.
	cands []slotRef
	times []vclock.Time
}

// SetObserver registers a callback invoked synchronously with every
// job the moment it is scheduled (placement decided). Observability
// layers use it to record queue-wait and placement metrics without a
// parallel accounting path. A nil fn detaches the observer.
func (s *Scheduler) SetObserver(fn func(*Job)) { s.observer = fn }

// QueueWait reports how long the job sat queued before starting.
func (j *Job) QueueWait() vclock.Duration { return j.Start.Sub(j.Submit) }

// New creates a scheduler over the given hosts, all available from
// time 0.
func New(specs []NodeSpec) (*Scheduler, error) {
	s := &Scheduler{}
	for _, sp := range specs {
		if err := s.AddNode(sp, 0); err != nil {
			return nil, err
		}
	}
	return s, nil
}

// AddNode registers a host whose slots become available at time `at`
// (a node added mid-simulation models the S2 scheme's cluster growth).
func (s *Scheduler) AddNode(sp NodeSpec, at vclock.Time) error {
	if sp.Name == "" || sp.Slots <= 0 || sp.MemoryGB <= 0 {
		return fmt.Errorf("sge: invalid node spec %+v", sp)
	}
	for _, n := range s.nodes {
		if n.spec.Name == sp.Name && !n.removed {
			return fmt.Errorf("sge: duplicate node %q", sp.Name)
		}
	}
	avail := make([]vclock.Time, sp.Slots)
	for i := range avail {
		avail[i] = at
	}
	s.nodes = append(s.nodes, &node{spec: sp, avail: avail})
	return nil
}

// RemoveNode withdraws a host from future allocations. Work already
// placed on it completes (the simulation has already accounted it).
func (s *Scheduler) RemoveNode(name string) error {
	for _, n := range s.nodes {
		if n.spec.Name == name && !n.removed {
			n.removed = true
			return nil
		}
	}
	return fmt.Errorf("sge: no active node %q", name)
}

// ActiveNodes reports the names of schedulable hosts.
func (s *Scheduler) ActiveNodes() []string {
	var out []string
	for _, n := range s.nodes {
		if !n.removed {
			out = append(out, n.spec.Name)
		}
	}
	return out
}

// slotRef identifies one slot of one node during allocation.
type slotRef struct {
	node *node
	slot int
}

// Submit schedules the job FIFO at submission time `at` and returns
// the placement. Submission fails when the request can never be
// satisfied (more slots than exist, or no memory-feasible placement).
func (s *Scheduler) Submit(spec JobSpec, at vclock.Time) (*Job, error) {
	start, chosen, err := s.place(spec, at)
	if err != nil {
		return nil, err
	}
	end := start.Add(spec.Duration)
	byNode := map[string]int{}
	for _, ref := range chosen {
		ref.node.avail[ref.slot] = end
		byNode[ref.node.spec.Name]++
	}
	s.nextID++
	job := &Job{ID: s.nextID, Spec: spec, Submit: at, Start: start, End: end, SlotsByNode: byNode}
	if s.observer != nil {
		s.observer(job)
	}
	return job, nil
}

// place decides when the job starts and on which slots, reserving
// nothing. The slots alias the scheduler's scratch.
func (s *Scheduler) place(spec JobSpec, at vclock.Time) (vclock.Time, []slotRef, error) {
	if spec.Slots <= 0 {
		return 0, nil, fmt.Errorf("sge: job %q requests %d slots", spec.Name, spec.Slots)
	}
	if spec.Duration < 0 {
		return 0, nil, fmt.Errorf("sge: job %q has negative duration", spec.Name)
	}
	candidates := s.feasibleSlots(spec)
	if len(candidates) < spec.Slots {
		return 0, nil, fmt.Errorf("sge: job %q needs %d slots, only %d feasible in queue %v",
			spec.Name, spec.Slots, len(candidates), s.ActiveNodes())
	}
	if spec.Rule != SingleNode {
		start, chosen := s.placeSpanning(spec, at, candidates)
		return start, chosen, nil
	}
	start, chosen := s.placeSingleNode(spec, at, candidates)
	if chosen == nil {
		return 0, nil, fmt.Errorf("sge: job %q: no single node offers %d slots", spec.Name, spec.Slots)
	}
	return start, chosen, nil
}

// feasibleSlots lists every slot on active, memory-feasible nodes,
// node by node, in the scheduler's scratch.
// Memory feasibility is conservative: a node qualifies if it could
// hold the job's per-slot demand for every slot it might contribute.
func (s *Scheduler) feasibleSlots(spec JobSpec) []slotRef {
	out := s.cands[:0]
	for _, n := range s.nodes {
		if n.removed {
			continue
		}
		if spec.MemoryGBPerSlot > 0 {
			// The worst case is this node hosting min(spec.Slots, node
			// slots) slots of the job.
			hosted := spec.Slots
			if hosted > n.spec.Slots {
				hosted = n.spec.Slots
			}
			if float64(hosted)*spec.MemoryGBPerSlot > n.spec.MemoryGB {
				continue
			}
		}
		for i := range n.avail {
			out = append(out, slotRef{node: n, slot: i})
		}
	}
	s.cands = out
	return out
}

// placeSingleNode finds the node that can run the whole job earliest.
// A node's candidates are one contiguous run (feasibleSlots lists them
// node by node); each run is sorted in place by free time, so the
// chosen slots are the front of the winning run.
func (s *Scheduler) placeSingleNode(spec JobSpec, at vclock.Time, candidates []slotRef) (vclock.Time, []slotRef) {
	var best []slotRef
	var bestStart vclock.Time
	for len(candidates) > 0 {
		n, run := candidates[0].node, 1
		for run < len(candidates) && candidates[run].node == n {
			run++
		}
		refs := candidates[:run]
		candidates = candidates[run:]
		if len(refs) < spec.Slots {
			continue
		}
		slices.SortFunc(refs, func(a, b slotRef) int { return cmp.Compare(n.avail[a.slot], n.avail[b.slot]) })
		pick := refs[:spec.Slots]
		start := at
		for _, ref := range pick {
			if t := n.avail[ref.slot]; t > start {
				start = t
			}
		}
		if best == nil || start < bestStart {
			bestStart = start
			best = pick
		}
	}
	return bestStart, best
}

// placeSpanning finds the earliest time at which spec.Slots slots are
// simultaneously free across nodes, then picks slots according to the
// allocation rule. From the spec.Slots-th earliest free time on, that
// many slots are free, so it is the start unless at is later.
func (s *Scheduler) placeSpanning(spec JobSpec, at vclock.Time, candidates []slotRef) (vclock.Time, []slotRef) {
	s.times = s.times[:0]
	for _, ref := range candidates {
		s.times = append(s.times, ref.node.avail[ref.slot])
	}
	slices.Sort(s.times)
	start := max(at, s.times[spec.Slots-1])
	free := candidates[:0]
	for _, ref := range candidates {
		if ref.node.avail[ref.slot] <= start {
			free = append(free, ref)
		}
	}
	if spec.Rule == RoundRobin {
		// Interleave: sort by (slot index, node order) so consecutive
		// picks land on different nodes.
		slices.SortStableFunc(free, func(a, b slotRef) int { return cmp.Compare(a.slot, b.slot) })
	}
	return start, free[:spec.Slots]
}
