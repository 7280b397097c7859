package pilot

import (
	"fmt"
	"sort"
	"strings"

	"rnascale/internal/cloud"
	"rnascale/internal/obs"
	"rnascale/internal/sge"
	"rnascale/internal/vclock"
)

// ExecEnv is what a unit's work function sees: the resources its
// pilot granted.
type ExecEnv struct {
	// SlotsByNode is the SGE placement (node name → slots).
	SlotsByNode map[string]int
	// Slots is the total slot count granted.
	Slots int
	// Nodes is the number of distinct nodes granted.
	Nodes int
	// InstanceType describes the hardware of each node.
	InstanceType cloud.InstanceType
}

// WorkResult is what a unit's work function reports back.
type WorkResult struct {
	// Duration is the unit's virtual runtime on this allocation, from
	// the component's cost model.
	Duration vclock.Duration
	// PeakMemoryGB is the resident high-water mark per node; exceeding
	// the node's memory fails the unit (the paper's Table IV "X"
	// entries are exactly this failure).
	PeakMemoryGB float64
	// Output is an arbitrary result payload.
	Output any
}

// WorkFunc performs a unit's real computation.
type WorkFunc func(env *ExecEnv) (WorkResult, error)

// RetryPolicy governs how the pilot agent restarts a failing unit:
// up to MaxRetries restarts, each preceded by a capped exponential
// backoff in virtual time (Backoff, Backoff·Factor, … ≤ MaxBackoff).
type RetryPolicy struct {
	// MaxRetries is the number of restarts after the first attempt.
	MaxRetries int
	// Backoff precedes the first retry; 0 retries immediately.
	Backoff vclock.Duration
	// Factor multiplies the backoff per retry (≤0 defaults to 2).
	Factor float64
	// MaxBackoff caps the grown backoff (0 = uncapped).
	MaxBackoff vclock.Duration
}

// DefaultRetryPolicy is the stage policy a fault-injected run falls
// back to: three restarts at 30 s, 60 s, 120 s (capped at 10 min).
func DefaultRetryPolicy() RetryPolicy {
	return RetryPolicy{MaxRetries: 3, Backoff: 30 * vclock.Second, Factor: 2, MaxBackoff: 10 * vclock.Minute}
}

// BackoffFor reports the backoff preceding retry number `retry`
// (1-based).
func (p RetryPolicy) BackoffFor(retry int) vclock.Duration {
	if p.Backoff <= 0 || retry < 1 {
		return 0
	}
	f := p.Factor
	if f <= 0 {
		f = 2
	}
	d := float64(p.Backoff)
	for i := 1; i < retry; i++ {
		d *= f
		if p.MaxBackoff > 0 && d >= float64(p.MaxBackoff) {
			break
		}
	}
	if p.MaxBackoff > 0 && d > float64(p.MaxBackoff) {
		d = float64(p.MaxBackoff)
	}
	return vclock.Duration(d)
}

// UnitDescription describes one compute unit.
type UnitDescription struct {
	Name string
	// Slots is the SGE slot request.
	Slots int
	// Rule is the SGE parallel-environment allocation rule.
	Rule sge.AllocationRule
	// MemoryGBPerSlot is the declared per-slot memory demand used for
	// placement feasibility (0 = unconstrained).
	MemoryGBPerSlot float64
	// Retry is the restart policy — the pilot's "starting, monitoring,
	// and restarting" responsibility. The zero value never restarts.
	Retry RetryPolicy
	// Work is the unit body.
	Work WorkFunc
}

// Unit is a submitted compute unit.
type Unit struct {
	ID   string
	Desc UnitDescription
	// Pilot is the unit's pilot; nil when it runs as functions.
	Pilot *Pilot
	store *StateStore

	// Start and End bracket the unit's execution in virtual time.
	Start, End vclock.Time
	// Attempts counts work executions (1 for a clean run; >1 when the
	// agent restarted the unit).
	Attempts int
	// Result holds the work function's report when the unit is DONE.
	Result WorkResult
	// Err holds the failure cause when the unit is FAILED.
	Err error
}

// State reports the unit's current state.
func (u *Unit) State() UnitState {
	s, _ := u.store.State(u.ID)
	return UnitState(s)
}

// UnitManager binds compute units to one execution vehicle and executes
// them — the UnitManager of RADICAL-Pilot. The vehicle is a pilot, whose
// attempts are SGE jobs on its cluster, or a serverless function (see
// NewFunctionRunner), whose attempts are invocations. Submission, the
// retry loop, the run-wide budget, the cutoff and the terminal events
// are the same for both.
type UnitManager struct {
	store *StateStore
	clock *vclock.Clock
	// id names the vehicle in the binding note: the pilot's ID or the
	// function's pseudo-pilot.
	id string
	// policy and execNote are the vehicle's binding policy and its
	// note on the transition to AGENT_EXECUTING.
	policy, execNote string
	// pilot is a pilot-backed manager's vehicle; fn a function-backed
	// one's. Exactly one is set.
	pilot *Pilot
	fn    *function
	// try makes one attempt at a unit submitted at `at`: on success it
	// returns the unit's end, on failure the failure time and cause.
	try        func(u *Unit, at vclock.Time) (end, failAt vclock.Time, err error)
	units      []*Unit
	nextID     int
	obs        *obs.Obs
	onUnitDone func(u *Unit, at vclock.Time)
	// budget, when set, bounds restarts across every unit this manager
	// runs (shared run-wide by the pipeline); nil = unlimited.
	budget *RetryBudget
	// cutoff, when non-zero, is the virtual time past which no new
	// attempt may start: units whose submission or retry would begin at
	// or after it are canceled instead of executed.
	cutoff vclock.Time
}

// NewUnitManager returns a unit manager that binds every unit to the
// active pilot p. Its binding notes name RADICAL-Pilot's default
// round-robin policy, which over one pilot always picks p.
func NewUnitManager(p *Pilot) (*UnitManager, error) {
	if p.State() != PilotActive {
		return nil, fmt.Errorf("pilot: cannot bind units to %s in state %s", p.ID, p.State())
	}
	um := &UnitManager{
		store: p.store, clock: p.Cluster.Provider().Clock(),
		id: p.ID, policy: "round-robin", execNote: "agent exec", pilot: p,
	}
	um.try = um.tryPilot
	return um, nil
}

// ID reports the vehicle's state-store ID: the pilot's, or the
// function's pseudo-pilot.
func (um *UnitManager) ID() string { return um.id }

// SetObs attaches an observability bundle for the retry/recovery
// counters; nil detaches it.
func (um *UnitManager) SetObs(o *obs.Obs) { um.obs = o }

// SetOnUnitDone registers a callback invoked once per unit that
// reaches AGENT_DONE, in virtual-time order, with the unit's terminal
// time. The core pipeline hooks its run journal here: the callback
// fires after the Done transition, so the journaled unit is already
// durable in the state store when the record is written.
func (um *UnitManager) SetOnUnitDone(f func(u *Unit, at vclock.Time)) { um.onUnitDone = f }

// SetRetryBudget attaches a run-wide retry budget consulted before
// every restart; nil (the default) leaves retries bounded only by the
// per-unit policy.
func (um *UnitManager) SetRetryBudget(b *RetryBudget) { um.budget = b }

// SetCutoff sets the virtual time past which no new unit attempt may
// start — the run deadline (or operator cancellation point) pushed
// down from the pipeline. Zero disables it.
func (um *UnitManager) SetCutoff(t vclock.Time) { um.cutoff = t }

// count increments an unlabelled unit-manager counter.
func (um *UnitManager) count(name, help string) {
	if um.obs == nil || um.obs.Metrics == nil {
		return
	}
	um.obs.Metrics.Counter(name, help, nil).Inc()
}

// Submit registers units and binds each to the manager's vehicle,
// leaving them in AGENT_SCHEDULING. Execution happens in Run.
func (um *UnitManager) Submit(descs []UnitDescription) ([]*Unit, error) {
	now := um.clock.Now()
	units := make([]*Unit, 0, len(descs))
	for _, d := range descs {
		if d.Work == nil {
			return nil, fmt.Errorf("pilot: unit %q has no work function", d.Name)
		}
		if d.Slots <= 0 {
			return nil, fmt.Errorf("pilot: unit %q requests %d slots", d.Name, d.Slots)
		}
		um.nextID++
		u := &Unit{ID: fmt.Sprintf("unit.%05d(%s)", um.nextID, d.Name), Desc: d, Pilot: um.pilot, store: um.store}
		if err := um.store.Register(KindUnit, u.ID, string(UnitNew), now); err != nil {
			return nil, err
		}
		if err := um.store.Transition(u.ID, string(UnitScheduling), now, "submitted"); err != nil {
			return nil, err
		}
		if err := um.store.Transition(u.ID, string(UnitScheduled), now,
			"bound to "+um.id+" by "+um.policy); err != nil {
			return nil, err
		}
		units = append(units, u)
		um.units = append(um.units, u)
	}
	return units, nil
}

// Run executes every scheduled unit on the manager's vehicle: the work
// function runs for real and its reported duration is placed on the
// pilot's SGE queue (or split across function invocations), with its
// memory checked against the node (or function tier) size. All units
// start at the current time. Run returns when all units are terminal,
// with the clock advanced to the latest unit end ("waiting for
// completion").
func (um *UnitManager) Run() error {
	now := um.clock.Now()
	type outcome struct {
		u   *Unit
		at  vclock.Time
		err error
	}
	var outs []outcome
	var latest vclock.Time
	for _, u := range um.units {
		if u.State() != UnitScheduled {
			continue
		}
		if um.cutoff > 0 && now >= um.cutoff {
			// The run's deadline already passed: cancel cleanly instead
			// of starting work that cannot count.
			if err := um.store.Transition(u.ID, string(UnitCanceled), now, "run cutoff reached"); err != nil {
				return err
			}
			continue
		}
		if err := um.store.Transition(u.ID, string(UnitExecuting), now, um.execNote); err != nil {
			return err
		}
		end, err := um.execute(u, now)
		if err != nil {
			u.Err = err
			outs = append(outs, outcome{u: u, at: vclock.Max(end, now), err: err})
			continue
		}
		outs = append(outs, outcome{u: u, at: end})
		if end > latest {
			latest = end
		}
	}
	// Terminal events are recorded in virtual-time order so the global
	// event log stays chronological.
	sort.SliceStable(outs, func(a, b int) bool { return outs[a].at < outs[b].at })
	for _, o := range outs {
		if o.u.State().Final() {
			// Already canceled at the cutoff.
			continue
		}
		if o.err != nil {
			if err := um.store.Transition(o.u.ID, string(UnitFailed), o.at, o.err.Error()); err != nil {
				return err
			}
			continue
		}
		if err := um.store.Transition(o.u.ID, string(UnitDone), o.at, "exit 0"); err != nil {
			return err
		}
		if um.onUnitDone != nil {
			um.onUnitDone(o.u, o.at)
		}
	}
	um.clock.AdvanceTo(latest)
	return nil
}

// execute runs one unit under its retry policy — restarting it after
// a capped exponential virtual-time backoff, as the pilot agent's
// "starting, monitoring, and restarting" responsibility demands — and
// returns its virtual end time (the failure time when the error is
// non-nil).
func (um *UnitManager) execute(u *Unit, at vclock.Time) (vclock.Time, error) {
	pol := u.Desc.Retry
	submitAt := at
	for u.Attempts = 1; ; u.Attempts++ {
		end, failAt, err := um.try(u, submitAt)
		if err == nil {
			if um.cutoff > 0 && end > um.cutoff {
				// The attempt would outlive the run's deadline: the expired
				// deadline preempts it at the cutoff rather than letting
				// the run overrun.
				if terr := um.store.Transition(u.ID, string(UnitCanceled), um.cutoff, "run cutoff preempted execution"); terr != nil {
					return um.cutoff, terr
				}
				return um.cutoff, fmt.Errorf("canceled at run cutoff: execution would end at %v", end)
			}
			um.fn.record(true)
			if u.Attempts > 1 {
				um.count(MetricUnitsRecovered, "Units that reached DONE after at least one retry.")
			}
			return end, nil
		}
		um.fn.record(false)
		if u.Attempts > pol.MaxRetries {
			if u.Attempts > 1 {
				return failAt, fmt.Errorf("%w (after %d attempts)", err, u.Attempts)
			}
			return failAt, err
		}
		if !um.budget.Allow(failAt) {
			// The run-wide retry budget is spent: fail instead of
			// resubmitting, so correlated failure waves stay bounded.
			um.count(MetricRetryBudgetExhausted, "Retries denied by an exhausted run retry budget.")
			return failAt, fmt.Errorf("retry budget exhausted: %w", err)
		}
		backoff := pol.BackoffFor(u.Attempts)
		if terr := um.store.Transition(u.ID, string(UnitRetrying), failAt,
			fmt.Sprintf("attempt %d failed: %v; retry in %v", u.Attempts, err, backoff)); terr != nil {
			return failAt, terr
		}
		um.count(MetricRetries, "Unit attempt restarts by the pilot agent.")
		submitAt = failAt.Add(backoff)
		if um.cutoff > 0 && submitAt >= um.cutoff {
			// The backoff window crosses the run's deadline: the retry
			// would start past the cutoff, so cancel instead.
			if terr := um.store.Transition(u.ID, string(UnitCanceled), failAt, "run cutoff reached during retry backoff"); terr != nil {
				return failAt, terr
			}
			return failAt, fmt.Errorf("canceled at run cutoff: %w", err)
		}
		if terr := um.store.Transition(u.ID, string(UnitExecuting), submitAt,
			fmt.Sprintf("retry %d", u.Attempts+1)); terr != nil {
			return submitAt, terr
		}
	}
}

// work runs the unit body once, failing an injected transient fault
// first, and rejects a negative duration. Each vehicle checks the
// reported memory against its own limit.
func work(prov *cloud.Provider, u *Unit, env *ExecEnv, at vclock.Time) (WorkResult, error) {
	if prov.Faults().UnitAttemptFails(u.ID, u.Attempts, at) {
		return WorkResult{}, fmt.Errorf("injected transient failure (attempt %d)", u.Attempts)
	}
	res, err := u.Desc.Work(env)
	if err != nil {
		return WorkResult{}, fmt.Errorf("work: %w", err)
	}
	if res.Duration < 0 {
		return WorkResult{}, fmt.Errorf("work reported negative duration %v", res.Duration)
	}
	return res, nil
}

// tryPilot is a pilot's attempt step: the unit runs as one SGE job on
// the pilot's cluster. Node losses that surface during the attempt are
// recovered (replacement VM) before returning, so the retry lands on a
// healthy queue.
func (um *UnitManager) tryPilot(u *Unit, at vclock.Time) (end, failAt vclock.Time, err error) {
	p := um.pilot
	// Interruptions that already struck this pilot's nodes are
	// recovered first, so placement only sees live nodes.
	um.recoverLostNodes(p, at)
	it := p.Cluster.InstanceType()
	env := &ExecEnv{
		InstanceType: it,
		Slots:        u.Desc.Slots,
	}
	// SGE reserves on submit, so the work runs first (yielding the
	// true duration), then the job is scheduled.
	res, err := work(p.Cluster.Provider(), u, env, at)
	if err == nil && res.PeakMemoryGB > it.MemoryGB {
		err = fmt.Errorf("out of memory: peak %.1f GB exceeds %s's %.1f GB",
			res.PeakMemoryGB, it.Name, it.MemoryGB)
	}
	if err != nil {
		return 0, at, err
	}
	job, err := p.Cluster.Scheduler().Submit(sge.JobSpec{
		Name:            u.ID,
		Slots:           u.Desc.Slots,
		Rule:            u.Desc.Rule,
		Duration:        res.Duration,
		MemoryGBPerSlot: u.Desc.MemoryGBPerSlot,
	}, at)
	if err != nil {
		return 0, at, fmt.Errorf("sge: %w", err)
	}
	if iv := um.interruptionDuring(p, job); iv != nil {
		lossAt := vclock.Max(iv.At, job.Start)
		um.recoverNode(p, iv)
		return 0, lossAt, fmt.Errorf("node %s lost (%s)", iv.VM.ID, iv.Class)
	}
	env.SlotsByNode = job.SlotsByNode
	env.Nodes = len(job.SlotsByNode)
	u.Start, u.End = job.Start, job.End
	u.Result = res
	return job.End, 0, nil
}

// interruptionDuring reports the earliest scheduled interruption that
// kills one of the job's nodes before the job would finish, or nil.
func (um *UnitManager) interruptionDuring(p *Pilot, job *sge.Job) *cloud.Interruption {
	prov := p.Cluster.Provider()
	var hit *cloud.Interruption
	for node := range job.SlotsByNode {
		// Queue node names embed the backing VM ID ("node001:i-000002").
		_, vmID, ok := strings.Cut(node, ":")
		if !ok {
			continue
		}
		if iv, ok := prov.InterruptionFor(vmID); ok && !iv.Applied && iv.At < job.End {
			if hit == nil || iv.At < hit.At {
				hit = iv
			}
		}
	}
	return hit
}

// recoverLostNodes applies and recovers every interruption that has
// already struck this pilot's cluster as of `until`.
func (um *UnitManager) recoverLostNodes(p *Pilot, until vclock.Time) {
	for _, iv := range p.Cluster.Provider().PendingInterruptions(until) {
		if p.Cluster.HasVM(iv.VM.ID) {
			um.recoverNode(p, iv)
		}
	}
}

// recoverNode handles one node loss: the interruption is applied (the
// VM terminates and bills to the loss time), the pilot degrades, a
// replacement VM boots and joins the queue, and the pilot reactivates
// — the pilot-level resubmission path that keeps a stage alive across
// involuntary node loss.
func (um *UnitManager) recoverNode(p *Pilot, iv *cloud.Interruption) {
	prov := p.Cluster.Provider()
	if !prov.ApplyInterruption(iv) {
		return
	}
	dead := iv.VM
	if p.State() == PilotActive {
		_ = um.store.Transition(p.ID, string(PilotDegraded), dead.TerminatedAt,
			fmt.Sprintf("node %s lost (%s)", dead.ID, iv.Class))
	}
	repl, err := p.Cluster.ReplaceVM(dead)
	if err != nil {
		// No replacement available: the pilot limps along on its
		// surviving nodes and stays degraded.
		return
	}
	if p.State() == PilotDegraded {
		_ = um.store.Transition(p.ID, string(PilotActive), prov.Clock().Now(),
			fmt.Sprintf("replacement %s joined for %s", repl.ID, dead.ID))
	}
}
