package sge

import (
	"fmt"
	"math/rand"
	"slices"
	"sort"
	"testing"

	"rnascale/internal/vclock"
)

// The references the placement is held to: placeSingleNode and
// placeSpanning as they were before Submit reused the scheduler's
// scratch. They leave candidates untouched.

// refPlaceSingleNode groups the candidates by node in a map, ranks each
// node's slots by free time with sort.Slice and keeps a copy of the
// earliest-starting node's pick.
func refPlaceSingleNode(spec JobSpec, at vclock.Time, candidates []slotRef) (vclock.Time, []slotRef) {
	perNode := map[*node][]slotRef{}
	var order []*node
	for _, ref := range candidates {
		if _, seen := perNode[ref.node]; !seen {
			order = append(order, ref.node)
		}
		perNode[ref.node] = append(perNode[ref.node], ref)
	}
	var best []slotRef
	var bestStart vclock.Time
	found := false
	for _, n := range order {
		refs := perNode[n]
		if len(refs) < spec.Slots {
			continue
		}
		sort.Slice(refs, func(a, b int) bool {
			return n.avail[refs[a].slot] < n.avail[refs[b].slot]
		})
		pick := refs[:spec.Slots]
		start := at
		for _, ref := range pick {
			if t := n.avail[ref.slot]; t > start {
				start = t
			}
		}
		if !found || start < bestStart {
			found = true
			bestStart = start
			best = append([]slotRef(nil), pick...)
		}
	}
	if !found {
		return 0, nil
	}
	return bestStart, best
}

// refPlaceSpanning tries the submission time and every later free time
// in order, counting the slots free at each, until enough are.
func refPlaceSpanning(spec JobSpec, at vclock.Time, candidates []slotRef) (vclock.Time, []slotRef) {
	times := []vclock.Time{at}
	for _, ref := range candidates {
		if t := ref.node.avail[ref.slot]; t > at {
			times = append(times, t)
		}
	}
	sort.Slice(times, func(a, b int) bool { return times[a] < times[b] })
	var start vclock.Time
	for _, t := range times {
		free := 0
		for _, ref := range candidates {
			if ref.node.avail[ref.slot] <= t {
				free++
			}
		}
		if free >= spec.Slots {
			start = t
			break
		}
	}
	free := make([]slotRef, 0, len(candidates))
	for _, ref := range candidates {
		if ref.node.avail[ref.slot] <= start {
			free = append(free, ref)
		}
	}
	if spec.Rule == RoundRobin {
		sort.SliceStable(free, func(a, b int) bool { return free[a].slot < free[b].slot })
	}
	return start, free[:spec.Slots]
}

// placementsMatch submits seeded random jobs of all three rules to
// seeded random clusters that grow and shrink as they go, and holds
// every placement whose rule check selects to ref: the same start and
// the same slots in the same order. Durations and submission times
// come from a few values, so free times tie often, and nodes run to
// 32 slots, past the insertion-sort cut-off of the in-node sort.
func placementsMatch(t *testing.T, check func(AllocationRule) bool,
	ref func(JobSpec, vclock.Time, []slotRef) (vclock.Time, []slotRef)) {
	checked := 0
	for seed := int64(1); seed <= 200; seed++ {
		rng := rand.New(rand.NewSource(seed))
		s := &Scheduler{}
		names := 0
		addNode := func(at vclock.Time) {
			names++
			sp := NodeSpec{Name: fmt.Sprintf("node%03d", names), Slots: 1 + rng.Intn(32), MemoryGB: float64(4 + rng.Intn(60))}
			if err := s.AddNode(sp, at); err != nil {
				t.Fatal(err)
			}
		}
		for i := 1 + rng.Intn(5); i > 0; i-- {
			addNode(0)
		}
		var at vclock.Time
		for step := 0; step < 80; step++ {
			at += vclock.Time(rng.Intn(3))
			switch active := s.ActiveNodes(); {
			case rng.Intn(20) == 0:
				addNode(at)
			case rng.Intn(25) == 0 && len(active) > 1:
				if err := s.RemoveNode(active[rng.Intn(len(active))]); err != nil {
					t.Fatal(err)
				}
			}
			spec := JobSpec{
				Name:     fmt.Sprintf("job-%d", step),
				Slots:    1 + rng.Intn(12),
				Rule:     AllocationRule(rng.Intn(3)),
				Duration: vclock.Duration(rng.Intn(4) * 10),
			}
			if rng.Intn(3) == 0 {
				spec.MemoryGBPerSlot = float64(1 + rng.Intn(4))
			}
			what := fmt.Sprintf("seed %d step %d: %s job of %d slots at %v", seed, step, spec.Rule, spec.Slots, at)
			cands := slices.Clone(s.feasibleSlots(spec))
			start, chosen, err := s.place(spec, at)
			if check(spec.Rule) && len(cands) >= spec.Slots {
				checked++
				wantStart, want := ref(spec, at, cands)
				if (err == nil) != (want != nil) || start != wantStart || !slices.Equal(chosen, want) {
					t.Fatalf("%s: placed at %v on %v (%v), reference at %v on %v",
						what, start, slotNames(chosen), err, wantStart, slotNames(want))
				}
			}
			job, err := s.Submit(spec, at)
			if err != nil {
				continue
			}
			if job.Start != start {
				t.Fatalf("%s: Submit starts at %v, place at %v", what, job.Start, start)
			}
		}
	}
	if checked < 1000 {
		t.Fatalf("only %d placements checked", checked)
	}
}

func slotNames(refs []slotRef) []string {
	var out []string
	for _, ref := range refs {
		out = append(out, fmt.Sprintf("%s/%d", ref.node.spec.Name, ref.slot))
	}
	return out
}

func TestSingleNodeMatchesReference(t *testing.T) {
	placementsMatch(t, func(r AllocationRule) bool { return r == SingleNode }, refPlaceSingleNode)
}

func TestSpanningMatchesReference(t *testing.T) {
	placementsMatch(t, func(r AllocationRule) bool { return r != SingleNode }, refPlaceSpanning)
}
