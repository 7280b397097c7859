// Package faults provides deterministic, seed-driven fault injection
// for the simulated cloud pipeline. A Plan describes what can go wrong
// (VM crashes at a virtual time, spot-style reclamations, boot
// capacity errors, transient unit failures, degraded transfer rates);
// an Injector makes the concrete decisions by consulting a splittable
// seeded PRNG keyed off stable entity IDs and the virtual clock. No
// global random state is involved, so two runs with the same plan and
// seed inject exactly the same faults at exactly the same virtual
// times — the property the chaos test harness asserts byte-for-byte
// on run snapshots.
package faults

import (
	"fmt"
	"math"
	"sort"
	"strconv"
	"strings"

	"rnascale/internal/obs"
	"rnascale/internal/vclock"
)

// Class names a fault category.
type Class string

// The fault classes a plan can inject.
const (
	// ClassCrash terminates a running VM abruptly at a virtual time.
	ClassCrash Class = "crash"
	// ClassReclaim is a spot-style reclamation: like a crash, but the
	// provider issues an advance notice (Rule.Notice before impact).
	ClassReclaim Class = "reclaim"
	// ClassBootFail makes RunInstances fail with a capacity error.
	ClassBootFail Class = "bootfail"
	// ClassUnitFlake fails a unit attempt with a transient error.
	ClassUnitFlake Class = "unitflake"
	// ClassSlowXfer degrades ingress transfer rates by a factor.
	ClassSlowXfer Class = "slowxfer"
	// ClassDriverCrash kills the driver process itself at a virtual
	// time: the run aborts at its next journal checkpoint at or after
	// At, leaving the write-ahead journal prefix behind for resume.
	ClassDriverCrash Class = "drivercrash"
)

// DefaultReclaimNotice is the advance warning a reclamation carries
// when the rule does not set one (EC2 spot gives two minutes).
const DefaultReclaimNotice = 120 * vclock.Second

// Rule is one fault directive. Which fields are meaningful depends on
// the class; ParseSpec documents the accepted spec syntax.
type Rule struct {
	Class Class
	// P is the per-decision probability for probabilistic rules.
	P float64
	// At pins a crash/reclaim to an absolute virtual time (0 = unused).
	At vclock.Time
	// VM restricts an absolute-time crash/reclaim to the VM with this
	// 1-based launch ordinal (0 = the first VM whose lifetime covers At).
	VM int
	// After delays a probabilistic crash/reclaim past the VM's running
	// time; Window adds a uniform random slack on top.
	After  vclock.Duration
	Window vclock.Duration
	// N is an exact ordinal: for bootfail, the RunInstances call to
	// fail; for unitflake, the number of leading attempts eligible to
	// flake (guaranteeing eventual progress). 0 = unused.
	N int
	// Factor multiplies the effective transfer bandwidth for slowxfer
	// (0 < Factor < 1 slows transfers down).
	Factor float64
	// Notice is the reclamation's advance warning lead.
	Notice vclock.Duration
}

// Plan is a parsed set of fault rules.
type Plan struct {
	Rules []Rule
}

// ParseSpec parses a fault plan from its compact textual form:
// semicolon-separated rules, each "class:key=val,key=val". Examples:
//
//	crash:at=900,vm=2          crash VM #2 at t=900s
//	reclaim:p=0.1,after=300,window=600
//	bootfail:p=0.05            each boot fails with probability 0.05
//	bootfail:n=2               exactly the 2nd RunInstances call fails
//	unitflake:p=0.3,n=1        first attempt of a unit may flake
//	slowxfer:x=0.5             ingress at half bandwidth
//	drivercrash:at=900         kill the driver at the first journal
//	                           checkpoint at or after t=900s
//
// Rules compose: "crash:at=900;unitflake:p=0.2,n=1". Every value is a
// finite, non-negative number, and vm and n are whole numbers.
func ParseSpec(spec string) (*Plan, error) {
	plan := &Plan{}
	for _, part := range strings.Split(spec, ";") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		head, params, _ := strings.Cut(part, ":")
		r := Rule{Class: Class(strings.TrimSpace(head))}
		switch r.Class {
		case ClassCrash, ClassReclaim, ClassBootFail, ClassUnitFlake, ClassSlowXfer, ClassDriverCrash:
		default:
			return nil, fmt.Errorf("faults: unknown fault class %q in %q", head, part)
		}
		if r.Class == ClassReclaim {
			r.Notice = DefaultReclaimNotice
		}
		if params != "" {
			for _, kv := range strings.Split(params, ",") {
				key, val, ok := strings.Cut(strings.TrimSpace(kv), "=")
				if !ok {
					return nil, fmt.Errorf("faults: bad parameter %q in %q", kv, part)
				}
				f, ferr := strconv.ParseFloat(val, 64)
				switch {
				case ferr != nil:
					return nil, fmt.Errorf("faults: bad value %q for %s in %q", val, key, part)
				case math.IsNaN(f) || math.IsInf(f, 0) || f < 0:
					// NaN passes every range check below, and a NaN or
					// infinite time poisons the virtual clock.
					return nil, fmt.Errorf("faults: %s=%s in %q is not a finite non-negative number", key, val, part)
				case (key == "vm" || key == "n") && (f != math.Trunc(f) || f > math.MaxInt32):
					return nil, fmt.Errorf("faults: %s=%s in %q is not a whole number up to %d", key, val, part, math.MaxInt32)
				}
				switch key {
				case "p":
					r.P = f
				case "at":
					r.At = vclock.Time(f)
				case "vm":
					r.VM = int(f)
				case "after":
					r.After = vclock.Duration(f)
				case "window":
					r.Window = vclock.Duration(f)
				case "n":
					r.N = int(f)
				case "x":
					r.Factor = f
				case "notice":
					r.Notice = vclock.Duration(f)
				default:
					return nil, fmt.Errorf("faults: unknown parameter %q in %q", key, part)
				}
			}
		}
		if err := r.validate(); err != nil {
			return nil, err
		}
		plan.Rules = append(plan.Rules, r)
	}
	if len(plan.Rules) == 0 {
		return nil, fmt.Errorf("faults: empty fault spec %q", spec)
	}
	return plan, nil
}

// validate applies per-class sanity checks.
func (r Rule) validate() error {
	if r.P < 0 || r.P > 1 {
		return fmt.Errorf("faults: %s probability %v out of [0,1]", r.Class, r.P)
	}
	switch r.Class {
	case ClassCrash, ClassReclaim:
		if r.At <= 0 && r.P <= 0 {
			return fmt.Errorf("faults: %s rule needs at=T or p>0", r.Class)
		}
	case ClassBootFail:
		if r.N <= 0 && r.P <= 0 {
			return fmt.Errorf("faults: bootfail rule needs n=K or p>0")
		}
	case ClassUnitFlake:
		if r.P <= 0 {
			return fmt.Errorf("faults: unitflake rule needs p>0")
		}
	case ClassSlowXfer:
		if r.Factor <= 0 || r.Factor > 1 {
			return fmt.Errorf("faults: slowxfer factor %v out of (0,1]", r.Factor)
		}
	}
	return nil
}

// String renders the plan back in ParseSpec's syntax.
func (p *Plan) String() string {
	var parts []string
	for _, r := range p.Rules {
		var kv []string
		put := func(k string, v float64) {
			kv = append(kv, k+"="+strconv.FormatFloat(v, 'g', -1, 64))
		}
		add := func(k string, v float64) {
			if v != 0 {
				put(k, v)
			}
		}
		add("p", r.P)
		add("at", float64(r.At))
		add("vm", float64(r.VM))
		add("after", float64(r.After))
		add("window", float64(r.Window))
		add("n", float64(r.N))
		add("x", r.Factor)
		// A reclaim's notice defaults to DefaultReclaimNotice, not 0, so
		// any other value, 0 included, must be written out.
		if r.Class != ClassReclaim {
			add("notice", float64(r.Notice))
		} else if r.Notice != DefaultReclaimNotice {
			put("notice", float64(r.Notice))
		}
		s := string(r.Class)
		if len(kv) > 0 {
			s += ":" + strings.Join(kv, ",")
		}
		parts = append(parts, s)
	}
	return strings.Join(parts, ";")
}

// MetricFaultsInjected counts faults at the moment they take effect,
// labelled by class.
const MetricFaultsInjected = "rnascale_faults_injected_total"

// Injector makes the concrete fault decisions for one run. It is
// consulted by the cloud provider (boots, interruptions, transfers)
// and the pilot agent (unit attempts); every decision is a pure
// function of (seed, entity ID, virtual time), so replays are exact.
type Injector struct {
	plan    Plan
	rng     *RNG
	clock   *vclock.Clock
	metrics *obs.Registry
}

// NewInjector builds an injector for a plan, seed and simulation
// clock. A nil plan yields a nil injector, whose consumers treat it as
// "no faults".
func NewInjector(plan *Plan, seed uint64, clock *vclock.Clock) *Injector {
	if plan == nil || len(plan.Rules) == 0 {
		return nil
	}
	return &Injector{plan: *plan, rng: NewRNG(seed), clock: clock}
}

// SetMetrics attaches a registry for the faults_injected counter; nil
// detaches it.
func (in *Injector) SetMetrics(reg *obs.Registry) {
	if in != nil {
		in.metrics = reg
	}
}

// CountInjected records one applied fault of the given class. The
// provider calls this when a scheduled interruption actually strikes;
// the injector's own decision methods call it internally.
func (in *Injector) CountInjected(class Class) {
	if in == nil || in.metrics == nil {
		return
	}
	in.metrics.Counter(MetricFaultsInjected, "Faults injected by the fault plan, by class.",
		obs.Labels{"class": string(class)}).Inc()
}

// timeKey renders a virtual time as a stable split key.
func timeKey(t vclock.Time) string {
	return strconv.FormatFloat(float64(t), 'g', -1, 64)
}

// VMInterruption decides, at VM launch, whether and when the VM will
// be interrupted (crash or reclamation). ordinal is the VM's 1-based
// launch ordinal; runningAt its boot-complete time. The interruption
// is scheduled, not yet applied — counting happens when it strikes.
func (in *Injector) VMInterruption(vmID string, ordinal int, runningAt vclock.Time) (at vclock.Time, class Class, notice vclock.Duration, ok bool) {
	if in == nil {
		return 0, "", 0, false
	}
	for _, r := range in.plan.Rules {
		if r.Class != ClassCrash && r.Class != ClassReclaim {
			continue
		}
		if r.At > 0 {
			if r.VM != 0 && r.VM != ordinal {
				continue
			}
			// A VM still booting when the fault time arrives dies the
			// moment it comes up.
			return vclock.Max(r.At, runningAt), r.Class, r.Notice, true
		}
		rng := in.rng.Split("vm", string(r.Class), vmID, timeKey(runningAt))
		if rng.Float64() < r.P {
			delay := r.After + vclock.Duration(rng.Float64()*float64(r.Window))
			return runningAt.Add(delay), r.Class, r.Notice, true
		}
	}
	return 0, "", 0, false
}

// BootFails decides whether RunInstances call #ordinal fails with an
// injected capacity error. Applied (and counted) immediately.
func (in *Injector) BootFails(ordinal int, typeName string, now vclock.Time) bool {
	if in == nil {
		return false
	}
	for _, r := range in.plan.Rules {
		if r.Class != ClassBootFail {
			continue
		}
		if r.N > 0 {
			if ordinal == r.N {
				in.CountInjected(ClassBootFail)
				return true
			}
			continue
		}
		rng := in.rng.Split("boot", strconv.Itoa(ordinal), typeName, timeKey(now))
		if rng.Float64() < r.P {
			in.CountInjected(ClassBootFail)
			return true
		}
	}
	return false
}

// UnitAttemptFails decides whether a unit's attempt (1-based) fails
// with an injected transient error. Rules with n=K only flake the
// first K attempts, so a retrying unit always makes progress.
func (in *Injector) UnitAttemptFails(unitID string, attempt int, now vclock.Time) bool {
	if in == nil {
		return false
	}
	for _, r := range in.plan.Rules {
		if r.Class != ClassUnitFlake {
			continue
		}
		if r.N > 0 && attempt > r.N {
			continue
		}
		rng := in.rng.Split("unit", unitID, strconv.Itoa(attempt), timeKey(now))
		if rng.Float64() < r.P {
			in.CountInjected(ClassUnitFlake)
			return true
		}
	}
	return false
}

// DriverCrashTimes returns the virtual times at which drivercrash
// rules kill the driver, sorted ascending. The pipeline arms these
// against its journal checkpoints; the decision is fully static, so
// resumption can disarm the rules the surviving journal already
// covers.
func (in *Injector) DriverCrashTimes() []vclock.Time {
	if in == nil {
		return nil
	}
	var out []vclock.Time
	for _, r := range in.plan.Rules {
		if r.Class == ClassDriverCrash {
			out = append(out, r.At)
		}
	}
	sort.Slice(out, func(a, b int) bool { return out[a] < out[b] })
	return out
}

// DegradeTransfer stretches a transfer duration according to any
// slowxfer rules (duration / factor), counting each application.
func (in *Injector) DegradeTransfer(d vclock.Duration) vclock.Duration {
	if in == nil {
		return d
	}
	for _, r := range in.plan.Rules {
		if r.Class != ClassSlowXfer || r.Factor >= 1 {
			continue
		}
		d = vclock.Duration(float64(d) / r.Factor)
		in.CountInjected(ClassSlowXfer)
	}
	return d
}
