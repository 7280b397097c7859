// Package cloud simulates an on-demand Infrastructure-as-a-Service
// provider in the style of Amazon EC2, the platform used by the paper.
//
// The simulation covers the aspects of IaaS the pipeline's behaviour
// depends on: an instance-type catalogue (cores, memory, price), the
// VM lifecycle (pending → running → terminated) with boot latency,
// ingress data transfer from the submitting "local server", and a
// billing ledger. Time is virtual (see internal/vclock); one Provider
// shares a clock with the rest of a simulation.
//
// Billing is fractional by instance-seconds, which is the model that
// reproduces the paper's sample-run arithmetic (48.3 instance-hours of
// c3.2xlarge × $0.42 ≈ $20.28).
//
// The model's calibrated values are package constants, fitted once to
// the paper's sample run: a 4.4 GB upload took 3 min 35 s (≈ 20.5 MB/s
// ingress) and EC2 instances of the era took about a minute to boot.
// Options carries only what a caller varies: an account limit, a fault
// plan and a spot market.
package cloud

import (
	"fmt"
	"sort"

	"rnascale/internal/faults"
	"rnascale/internal/obs"
	"rnascale/internal/vclock"
)

// InstanceType describes a purchasable VM flavour.
type InstanceType struct {
	Name         string
	Cores        int
	MemoryGB     float64
	PricePerHour float64 // USD
}

// The instance types used throughout the paper's experiments, plus a
// few smaller flavours for ablation studies. Prices and shapes follow
// the paper (Section III.B): both benchmark types have 8 cores;
// r3.2xlarge has 61 GB at $0.70/h, c3.2xlarge has 16 GB at $0.42/h.
var (
	C3XLarge  = InstanceType{Name: "c3.xlarge", Cores: 4, MemoryGB: 7.5, PricePerHour: 0.21}
	C32XLarge = InstanceType{Name: "c3.2xlarge", Cores: 8, MemoryGB: 16, PricePerHour: 0.42}
	R3XLarge  = InstanceType{Name: "r3.xlarge", Cores: 4, MemoryGB: 30.5, PricePerHour: 0.35}
	R32XLarge = InstanceType{Name: "r3.2xlarge", Cores: 8, MemoryGB: 61, PricePerHour: 0.70}
	M3Medium  = InstanceType{Name: "m3.medium", Cores: 1, MemoryGB: 3.75, PricePerHour: 0.067}
)

// DefaultCatalog lists every built-in instance type.
func DefaultCatalog() []InstanceType {
	return []InstanceType{M3Medium, C3XLarge, C32XLarge, R3XLarge, R32XLarge}
}

// VMState is the lifecycle state of a virtual machine.
type VMState int

const (
	// VMPending means the boot request was accepted but the VM is not
	// yet usable.
	VMPending VMState = iota
	// VMRunning means the VM is booted and billable work can run.
	VMRunning
	// VMTerminated means the VM was shut down; billing has stopped.
	VMTerminated
)

// String implements fmt.Stringer.
func (s VMState) String() string {
	switch s {
	case VMPending:
		return "pending"
	case VMRunning:
		return "running"
	case VMTerminated:
		return "terminated"
	default:
		return fmt.Sprintf("VMState(%d)", int(s))
	}
}

// VM is one simulated virtual machine.
type VM struct {
	ID   string
	Type InstanceType
	// Backend is the purchasing model (on-demand or spot); AZ is the
	// availability zone a spot VM was placed in (empty for on-demand).
	Backend      Backend
	AZ           string
	LaunchedAt   vclock.Time // when the boot request was made
	RunningAt    vclock.Time // LaunchedAt + boot latency
	TerminatedAt vclock.Time // meaningful only once terminated
	// InterruptedAt/InterruptReason record an injected interruption
	// (crash or reclamation) once it strikes; zero otherwise.
	InterruptedAt   vclock.Time
	InterruptReason string
	state           VMState
}

// State reports the lifecycle state of the VM as of time t.
func (vm *VM) State(t vclock.Time) VMState {
	if vm.state == VMTerminated && t >= vm.TerminatedAt {
		return VMTerminated
	}
	if t >= vm.RunningAt {
		return VMRunning
	}
	return VMPending
}

// BilledHours reports the fractional instance-hours billed for this VM
// as of time now.
func (vm *VM) BilledHours(now vclock.Time) float64 {
	end := now
	if vm.state == VMTerminated && vm.TerminatedAt < now {
		end = vm.TerminatedAt
	}
	if end < vm.LaunchedAt {
		return 0
	}
	return end.Sub(vm.LaunchedAt).Hours()
}

// bootLatency is the pending→running delay of every VM.
const bootLatency = 60 * vclock.Second

// The provider's links. ingress runs from the submitting local server
// into the cloud (the dataset upload); InterNode runs between two VMs
// in the same cluster placement group, and is the one definition the
// MPI assemblers' worlds share with the provider's handovers. Neither
// is ever assigned.
var (
	ingress   = vclock.CommCost{Latency: 2, Bandwidth: 20.5e6}
	InterNode = vclock.CommCost{Latency: 0.0005, Bandwidth: 120e6}
)

// Options configure a Provider. The zero value is the calibrated
// on-demand provider.
type Options struct {
	// MaxInstances caps concurrently running+pending VMs; zero means
	// no cap. Exceeding the cap makes RunInstances fail, modelling an
	// EC2 account limit.
	MaxInstances int
	// Faults, when non-nil, drives seed-deterministic fault injection:
	// injected boot capacity errors, scheduled VM interruptions (crash
	// or spot reclamation) and degraded ingress transfers (see
	// internal/faults).
	Faults *faults.Injector
	// Spot, when non-nil, enables the spot-market backend: a
	// seed-deterministic per-AZ price walk with price-coupled
	// reclamation (see SpotOptions).
	Spot *SpotOptions
}

// Provider is the simulated IaaS endpoint. It is not safe for
// concurrent use; simulations drive it sequentially.
type Provider struct {
	clock   *vclock.Clock
	opts    Options
	catalog map[string]InstanceType
	vms     map[string]*VM
	order   []string // VM IDs in launch order, for deterministic reports
	nextID  int
	boots   int // RunInstances calls, for fault injection
	metrics *obs.Registry

	// interruptions holds fault-plan- and market-scheduled VM losses in
	// launch order; interruptByVM indexes them by VM ID.
	interruptions []*Interruption
	interruptByVM map[string]*Interruption

	// spot backs the spot market, nil when Options.Spot is unset; faas
	// is the function backend, which every provider has.
	spot *SpotMarket
	faas faas

	// breaker, when set, observes per-backend failures (spot reclaims,
	// serverless attempt failures) so callers can route around a
	// tripped backend; nil = no breaker.
	breaker *CircuitBreaker
}

// Interruption is a scheduled involuntary VM loss (an injected crash
// or a spot-style reclamation). It exists from the VM's launch; it
// takes effect — terminating the VM — only when applied, which is how
// the simulation discovers a failure "after the fact", as a pilot
// polling a dead node would.
type Interruption struct {
	VM *VM
	// At is the virtual time the VM dies.
	At vclock.Time
	// Class is the fault class (faults.ClassCrash or ClassReclaim).
	Class faults.Class
	// NoticeAt is when the advance warning becomes visible (reclaim
	// rules carry a notice lead; crashes give none, NoticeAt == At).
	NoticeAt vclock.Time
	// Applied reports whether the loss has been acted on.
	Applied bool
	// FromPlan distinguishes fault-plan interruptions from the spot
	// market's own reclaims: only the former count toward the
	// faults-injected metric (market reclaims are counted separately,
	// under MetricVMInterruptions).
	FromPlan bool
}

// NewProvider returns a provider over the given clock with the default
// catalogue.
func NewProvider(clock *vclock.Clock, opts Options) *Provider {
	p := &Provider{
		clock:         clock,
		opts:          opts,
		catalog:       make(map[string]InstanceType),
		vms:           make(map[string]*VM),
		interruptByVM: make(map[string]*Interruption),
		faas:          faas{clock: clock, pools: map[string][]vclock.Time{}, ledger: map[float64]*serverlessLedger{}},
	}
	for _, it := range DefaultCatalog() {
		p.catalog[it.Name] = it
	}
	if opts.Spot != nil {
		p.spot = NewSpotMarket(*opts.Spot)
	}
	return p
}

// SetBreaker attaches a per-backend circuit breaker; the provider
// feeds it spot-reclaim failures and clean spot terminations. Nil
// detaches it.
func (p *Provider) SetBreaker(cb *CircuitBreaker) { p.breaker = cb }

// Breaker exposes the attached circuit breaker (nil when none).
func (p *Provider) Breaker() *CircuitBreaker { return p.breaker }

// Clock exposes the provider's virtual clock.
func (p *Provider) Clock() *vclock.Clock { return p.clock }

// Faults exposes the provider's fault injector (nil when no fault
// plan is configured).
func (p *Provider) Faults() *faults.Injector { return p.opts.Faults }

// LookupType resolves an instance-type name.
func (p *Provider) LookupType(name string) (InstanceType, error) {
	it, ok := p.catalog[name]
	if !ok {
		return InstanceType{}, fmt.Errorf("cloud: unknown instance type %q", name)
	}
	return it, nil
}

// active counts VMs that are not terminated.
func (p *Provider) active() int {
	n := 0
	for _, vm := range p.vms {
		if vm.state != VMTerminated {
			n++
		}
	}
	return n
}

// RunInstancesOn requests count VMs of the named type on a purchasing
// backend, EC2's RunInstances. The VMs are created in pending state and
// become running bootLatency later; the call itself does not advance
// the clock (the API returns immediately, as EC2's does). Spot VMs are
// placed in the currently cheapest AZ, billed at the
// market's integrated price over their lifetime, and may be reclaimed
// by the market (scheduled through the same Interruption machinery a
// fault plan uses, with the standard advance notice, so pilot
// retry/recovery and the journal see market reclaims exactly like
// injected ones).
func (p *Provider) RunInstancesOn(typeName string, count int, backend Backend) ([]*VM, error) {
	it, err := p.LookupType(typeName)
	if err != nil {
		return nil, err
	}
	if count <= 0 {
		return nil, fmt.Errorf("cloud: RunInstances count %d", count)
	}
	switch backend {
	case OnDemand:
	case Spot:
		if p.spot == nil {
			return nil, fmt.Errorf("cloud: spot backend requested but Options.Spot is not configured")
		}
	default:
		return nil, fmt.Errorf("cloud: backend %v has no instances to run", backend)
	}
	if p.opts.MaxInstances > 0 && p.active()+count > p.opts.MaxInstances {
		p.countBootFailure(typeName, BootFailLimit)
		return nil, fmt.Errorf("cloud: instance limit exceeded: %d active + %d requested > %d",
			p.active(), count, p.opts.MaxInstances)
	}
	p.boots++
	if p.opts.Faults.BootFails(p.boots, typeName, p.clock.Now()) {
		p.countBootFailure(typeName, BootFailInjected)
		return nil, fmt.Errorf("cloud: insufficient instance capacity for %s (injected, boot #%d)", typeName, p.boots)
	}
	now := p.clock.Now()
	var az string
	if backend == Spot {
		az = p.spot.CheapestAZ(now)
	}
	vms := make([]*VM, count)
	for i := range vms {
		p.nextID++
		vm := &VM{
			ID:         fmt.Sprintf("i-%06d", p.nextID),
			Type:       it,
			Backend:    backend,
			AZ:         az,
			LaunchedAt: now,
			RunningAt:  now.Add(bootLatency),
			state:      VMRunning, // state field tracks terminal transitions; State(t) handles pending
		}
		p.vms[vm.ID] = vm
		p.order = append(p.order, vm.ID)
		vms[i] = vm
		// The fault plan's draw and (for spot VMs) the market's own
		// reclaim draw are independent streams; whichever strikes first
		// wins, so a spot run under a fault plan replays the plan's
		// decisions unchanged.
		var iv *Interruption
		if at, class, notice, ok := p.opts.Faults.VMInterruption(vm.ID, p.nextID, vm.RunningAt); ok {
			iv = &Interruption{VM: vm, At: at, Class: class, NoticeAt: at, FromPlan: true}
			if notice > 0 && at.Add(-notice) > vm.LaunchedAt {
				iv.NoticeAt = at.Add(-notice)
			}
		}
		if backend == Spot {
			if at, ok := p.spot.ReclaimAt(vm.ID, az, vm.RunningAt); ok && (iv == nil || at < iv.At) {
				at = vclock.Max(at, vm.RunningAt)
				iv = &Interruption{VM: vm, At: at, Class: faults.ClassReclaim, NoticeAt: at}
				if at.Add(-faults.DefaultReclaimNotice) > vm.LaunchedAt {
					iv.NoticeAt = at.Add(-faults.DefaultReclaimNotice)
				}
			}
		}
		if iv != nil {
			p.interruptions = append(p.interruptions, iv)
			p.interruptByVM[vm.ID] = iv
		}
	}
	p.countBoot(typeName, count)
	return vms, nil
}

// WaitRunning advances the clock until every given VM is running and
// returns the new time.
func (p *Provider) WaitRunning(vms []*VM) vclock.Time {
	for _, vm := range vms {
		p.clock.AdvanceTo(vm.RunningAt)
	}
	return p.clock.Now()
}

// Terminate shuts down the given VMs at the current time. Terminating
// a terminated VM is a no-op, as with EC2. A VM whose scheduled
// interruption already struck dies at the interruption time instead —
// it must not bill past the moment it was lost.
func (p *Provider) Terminate(vms ...*VM) {
	now := p.clock.Now()
	for _, vm := range vms {
		if vm.state == VMTerminated {
			continue
		}
		if iv, ok := p.interruptByVM[vm.ID]; ok && !iv.Applied && iv.At < now {
			p.ApplyInterruption(iv)
			continue
		}
		vm.state = VMTerminated
		vm.TerminatedAt = vclock.Max(now, vm.RunningAt)
		p.countTermination(vm)
		if vm.Backend == Spot {
			// A spot VM that reached voluntary termination was never
			// reclaimed — evidence the market is healthy.
			p.breaker.RecordSuccess(Spot)
		}
	}
}

// PendingInterruptions lists scheduled-but-unapplied interruptions
// striking at or before `until`, in launch order. Callers that learn
// of a loss (a pilot finding a dead node) apply it.
func (p *Provider) PendingInterruptions(until vclock.Time) []*Interruption {
	var out []*Interruption
	for _, iv := range p.interruptions {
		if !iv.Applied && iv.At <= until && iv.VM.state != VMTerminated {
			out = append(out, iv)
		}
	}
	return out
}

// ApplyInterruption makes a scheduled interruption take effect: the
// VM terminates at the interruption time (clamped to its boot) and
// the loss is billed and counted. Returns false if the interruption
// was already applied or the VM already terminated.
func (p *Provider) ApplyInterruption(iv *Interruption) bool {
	if iv == nil || iv.Applied {
		return false
	}
	iv.Applied = true
	vm := iv.VM
	if vm.state == VMTerminated {
		return false
	}
	vm.state = VMTerminated
	vm.TerminatedAt = vclock.Max(iv.At, vm.RunningAt)
	vm.InterruptedAt = vm.TerminatedAt
	vm.InterruptReason = string(iv.Class)
	p.countTermination(vm)
	p.countInterruption(vm, iv.Class)
	if iv.FromPlan {
		p.opts.Faults.CountInjected(iv.Class)
	}
	if vm.Backend == Spot {
		p.breaker.RecordFailure(Spot)
	}
	return true
}

// Interruptions lists every scheduled interruption (applied or not)
// in launch order.
func (p *Provider) Interruptions() []*Interruption {
	return append([]*Interruption(nil), p.interruptions...)
}

// InterruptionFor reports the interruption scheduled for a VM, if any.
func (p *Provider) InterruptionFor(vmID string) (*Interruption, bool) {
	iv, ok := p.interruptByVM[vmID]
	return iv, ok
}

// TerminateAll shuts down every non-terminated VM.
func (p *Provider) TerminateAll() {
	for _, id := range p.order {
		p.Terminate(p.vms[id])
	}
}

// Running lists currently running VMs in launch order.
func (p *Provider) Running() []*VM {
	now := p.clock.Now()
	var out []*VM
	for _, id := range p.order {
		if vm := p.vms[id]; vm.State(now) == VMRunning {
			out = append(out, vm)
		}
	}
	return out
}

// UploadFromLocal models moving n bytes from the submitting local
// server into the cloud and advances the clock by the transfer time.
// It returns the transfer duration.
func (p *Provider) UploadFromLocal(n int64) vclock.Duration {
	d := p.opts.Faults.DegradeTransfer(ingress.Transfer(n))
	p.clock.Advance(d)
	p.countIngress(n)
	return d
}

// InterNodeTransfer reports (without advancing the clock) the time to
// move n bytes between two VMs.
func (p *Provider) InterNodeTransfer(n int64) vclock.Duration {
	return InterNode.Transfer(n)
}

// BillLine is one row of the billing report.
type BillLine struct {
	Type string
	// Backend distinguishes purchasing models; empty for on-demand so
	// existing reports render unchanged. Serverless lines carry
	// Instances = invocations and InstanceHours = GB-hours.
	Backend       string
	Instances     int
	InstanceHours float64
	USD           float64
}

// vmRate reports a VM's effective hourly rate as of now: the fixed
// catalogue price on-demand, or the market price integrated over the
// VM's billed lifetime for spot.
func (p *Provider) vmRate(vm *VM, now vclock.Time) float64 {
	rate := vm.Type.PricePerHour
	if vm.Backend == Spot && p.spot != nil {
		end := now
		if vm.state == VMTerminated && vm.TerminatedAt < now {
			end = vm.TerminatedAt
		}
		if end < vm.LaunchedAt {
			end = vm.LaunchedAt
		}
		rate *= p.spot.AvgFrac(vm.AZ, vm.LaunchedAt, end)
	}
	return rate
}

// Bill computes the cost ledger as of the current time, one line per
// (instance type, backend), with serverless invocations appended as
// per-tier lines.
func (p *Provider) Bill() []BillLine {
	now := p.clock.Now()
	agg := map[string]*BillLine{}
	keys := make([]string, 0, len(agg))
	for _, id := range p.order {
		vm := p.vms[id]
		hours := vm.BilledHours(now)
		backend := ""
		if vm.Backend != OnDemand {
			backend = vm.Backend.String()
		}
		key := vm.Type.Name + "\x00" + backend
		line, ok := agg[key]
		if !ok {
			line = &BillLine{Type: vm.Type.Name, Backend: backend}
			agg[key] = line
			keys = append(keys, key)
		}
		line.Instances++
		line.InstanceHours += hours
		line.USD += hours * p.vmRate(vm, now)
	}
	sort.Strings(keys)
	out := make([]BillLine, 0, len(keys))
	for _, k := range keys {
		out = append(out, *agg[k])
	}
	return append(out, p.faas.billLines()...)
}

// Invoke runs one serverless function invocation of dur virtual
// compute with memGB peak memory, starting now, and emits invocation
// metrics. The clock is NOT advanced (the caller owns concurrency and
// wall-time accounting); the invocation's latency, tier and cost are
// returned. Durations above FnMaxDuration are rejected — callers split
// the work instead.
func (p *Provider) Invoke(fn string, memGB float64, dur vclock.Duration) (Invocation, error) {
	inv, err := p.faas.invoke(fn, memGB, dur)
	if err != nil {
		return Invocation{}, err
	}
	p.countInvocation(inv)
	return inv, nil
}

// TotalCost sums the billing ledger in USD.
func (p *Provider) TotalCost() float64 {
	var usd float64
	for _, line := range p.Bill() {
		usd += line.USD
	}
	return usd
}

// TotalInstanceHours sums billed instance-hours across all types.
func (p *Provider) TotalInstanceHours() float64 {
	var h float64
	for _, line := range p.Bill() {
		h += line.InstanceHours
	}
	return h
}
