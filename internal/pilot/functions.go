package pilot

import (
	"fmt"
	"math"

	"rnascale/internal/cloud"
	"rnascale/internal/vclock"
)

// function is a function-backed manager's vehicle: the stage's
// serverless function.
type function struct {
	prov *cloud.Provider
	name string
}

// NewFunctionRunner returns a unit manager whose units run as
// serverless function invocations instead of SGE jobs — the
// function-per-unit backend. It registers a pseudo-pilot named for
// the stage in the state store, so spans, transitions and the journal
// see the same event shapes a VM-backed stage produces.
//
// A unit whose reported runtime exceeds the per-invocation duration
// cap is split into ceil(duration/cap) parallel piece invocations;
// the unit's wall time is the slowest piece's start latency plus its
// share of the compute.
func NewFunctionRunner(prov *cloud.Provider, store *StateStore, name string) (*UnitManager, error) {
	fn := &function{prov: prov, name: name}
	um := &UnitManager{
		store: store, clock: prov.Clock(),
		id: fmt.Sprintf("faas(%s)", name), policy: "function-per-unit", execNote: "function exec", fn: fn,
		try: fn.try,
	}
	now := um.clock.Now()
	if err := store.Register(KindPilot, um.id, string(PilotNew), now); err != nil {
		return nil, err
	}
	if err := store.Transition(um.id, string(PilotLaunching), now, "provisioning function"); err != nil {
		return nil, err
	}
	// Functions need no boot or cluster configuration: the runner is
	// active immediately; provisioning latency shows up per-invocation
	// as cold starts instead.
	if err := store.Transition(um.id, string(PilotActive), now, "function deployed"); err != nil {
		return nil, err
	}
	return um, nil
}

// Complete drives a function-backed manager's pseudo-pilot to DONE
// once its stage finishes. A pilot completes through its Manager.
func (um *UnitManager) Complete() error {
	if um.fn == nil {
		return fmt.Errorf("pilot: %s completes through its pilot manager", um.id)
	}
	s, _ := um.store.State(um.id)
	if PilotState(s).Final() {
		return nil
	}
	return um.store.Transition(um.id, string(PilotDone), um.clock.Now(), "workload complete")
}

// record reports an attempt's outcome to the serverless circuit
// breaker; a pilot-backed manager (nil fn) records nothing here.
func (fn *function) record(ok bool) {
	switch {
	case fn == nil:
	case ok:
		fn.prov.Breaker().RecordSuccess(cloud.Serverless)
	default:
		fn.prov.Breaker().RecordFailure(cloud.Serverless)
	}
}

// try is a function's attempt step: the work function runs (yielding
// the true duration and memory), the runtime is split into as many
// pieces as the duration cap demands, and each piece invokes the
// stage's function in parallel.
func (fn *function) try(u *Unit, at vclock.Time) (end, failAt vclock.Time, err error) {
	maxTier := cloud.FnMemoryTiersGB[len(cloud.FnMemoryTiersGB)-1]
	env := &ExecEnv{
		Slots: u.Desc.Slots,
		Nodes: 1,
		// Functions are single-node allocations shaped by the largest
		// memory tier; per-unit memory is checked against the tier table
		// below, not here.
		InstanceType: cloud.InstanceType{Name: "serverless", Cores: u.Desc.Slots, MemoryGB: maxTier},
	}
	res, err := work(fn.prov, u, env, at)
	if err != nil {
		return 0, at, err
	}
	if _, ok := cloud.TierFor(res.PeakMemoryGB); !ok {
		return 0, at, fmt.Errorf("out of memory: peak %.1f GB exceeds the largest %.0f GB function tier",
			res.PeakMemoryGB, maxTier)
	}
	pieces := 1
	if res.Duration > cloud.FnMaxDuration {
		pieces = int(math.Ceil(float64(res.Duration) / float64(cloud.FnMaxDuration)))
	}
	pieceDur := res.Duration / vclock.Duration(pieces)
	var wall vclock.Duration
	for i := 0; i < pieces; i++ {
		inv, ierr := fn.prov.Invoke(fn.name, res.PeakMemoryGB, pieceDur)
		if ierr != nil {
			return 0, at, ierr
		}
		if d := inv.Latency + pieceDur; d > wall {
			wall = d
		}
	}
	u.Start, u.End = at, at.Add(wall)
	u.Result = res
	return u.End, 0, nil
}
