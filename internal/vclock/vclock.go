// Package vclock provides the virtual-time substrate used by every
// simulated runtime in rnascale (cloud, cluster, SGE, MPI, MapReduce,
// pilot framework).
//
// The build/evaluation machine for this reproduction has a single CPU,
// so wall-clock measurements cannot exhibit scale-out behaviour. All
// time-to-completion (TTC) numbers reported by the pipeline are instead
// *virtual seconds*: deterministic, calibrated accumulations of compute
// cost (work units divided by a rate) and communication cost
// (latency plus bytes over bandwidth). The computation itself — read
// processing, assembly, merging, scoring — is performed for real; only
// elapsed time is modelled.
//
// The package provides three building blocks:
//
//   - Time and Duration arithmetic with human-readable formatting,
//   - Clock, a manual monotonic clock,
//   - SlotPool, a deterministic list scheduler used to model queueing
//     on finite resources (SGE slots, CPU cores, VM boot workers).
package vclock

import (
	"fmt"
	"math"
)

// Time is a point in virtual time, in seconds since the start of a
// simulation. Virtual time is a float64 so cost models may produce
// fractional seconds without rounding drift.
type Time float64

// Duration is a span of virtual time in seconds.
type Duration float64

// Common durations, for readability at call sites.
const (
	Second Duration = 1
	Minute Duration = 60
	Hour   Duration = 3600
)

// Add returns the time d after t.
func (t Time) Add(d Duration) Time { return t + Time(d) }

// Sub returns the duration elapsed from u to t.
func (t Time) Sub(u Time) Duration { return Duration(t - u) }

// Seconds reports the duration as a float64 number of seconds.
func (d Duration) Seconds() float64 { return float64(d) }

// Hours reports the duration as fractional hours.
func (d Duration) Hours() float64 { return float64(d) / 3600 }

// String formats a duration as e.g. "2h47m12s", or "42s"/"42.50s"
// for spans under two minutes, matching the style used in the paper's
// sample-run narrative.
//
// The format seam sits at 120 displayed seconds: the value is first
// rounded to its display precision (hundredths below the seam, whole
// seconds above), and the rounded value chooses the branch. Rounding
// after branching printed "120.00s" for 119.999 (a number the seconds
// branch promises never to show) and "60.00s" for 59.9999 (fractional
// digits on a value that displays as a whole second).
func (d Duration) String() string {
	s := float64(d)
	if s < 0 {
		return "-" + Duration(-d).String()
	}
	if r := math.Round(s*100) / 100; r < 120 {
		if r == math.Trunc(r) {
			return fmt.Sprintf("%.0fs", r)
		}
		return fmt.Sprintf("%.2fs", r)
	}
	total := int64(math.Round(s))
	h := total / 3600
	m := (total % 3600) / 60
	sec := total % 60
	switch {
	case h > 0:
		return fmt.Sprintf("%dh%02dm%02ds", h, m, sec)
	default:
		return fmt.Sprintf("%dm%02ds", m, sec)
	}
}

// String formats a point in time the same way as the duration since 0.
func (t Time) String() string { return Duration(t).String() }

// Max returns the later of two times.
func Max(a, b Time) Time {
	if a > b {
		return a
	}
	return b
}

// Clock is a manual monotonic virtual clock. The zero value is a clock
// at time 0, ready to use. Clock is not safe for concurrent use; the
// simulated runtimes that share one are sequential by construction.
type Clock struct {
	now Time
}

// NewClock returns a clock starting at the given time.
func NewClock(start Time) *Clock { return &Clock{now: start} }

// Now reports the current virtual time.
func (c *Clock) Now() Time { return c.now }

// Advance moves the clock forward by d. Negative advances are a
// programming error and panic: virtual time is monotonic.
func (c *Clock) Advance(d Duration) Time {
	if d < 0 {
		panic(fmt.Sprintf("vclock: negative advance %v", d))
	}
	c.now = c.now.Add(d)
	return c.now
}

// AdvanceTo moves the clock to t if t is later than the current time;
// earlier targets are ignored (the clock never moves backwards).
func (c *Clock) AdvanceTo(t Time) Time {
	if t > c.now {
		c.now = t
	}
	return c.now
}

// SlotPool is a deterministic list scheduler over n identical slots.
// It models queueing delay on a finite resource: each Acquire asks for
// k slots for a given duration and receives the earliest start time at
// which k slots are simultaneously free. The pool is the core of the
// SGE simulator and of per-node core accounting.
//
// The zero value is unusable; create pools with NewSlotPool.
type SlotPool struct {
	// avail holds each slot's next free time in ascending order. Slots
	// are interchangeable, so only the multiset matters.
	avail []Time
}

// NewSlotPool returns a pool of n slots, all free at time 0.
func NewSlotPool(n int) *SlotPool {
	if n <= 0 {
		panic(fmt.Sprintf("vclock: slot pool size %d", n))
	}
	return &SlotPool{avail: make([]Time, n)}
}

// Acquire reserves k slots for duration d, no earlier than time at.
// It returns the scheduled start time. Acquire panics if k exceeds the
// pool size; callers model oversized requests as failures before
// scheduling.
func (p *SlotPool) Acquire(k int, at Time, d Duration) (start Time) {
	if k <= 0 || k > len(p.avail) {
		panic(fmt.Sprintf("vclock: acquire %d of %d slots", k, len(p.avail)))
	}
	if d < 0 {
		panic(fmt.Sprintf("vclock: acquire negative duration %v", d))
	}
	// The k earliest-free slots determine the start: all k must be free.
	start = max(at, p.avail[k-1])
	end := start.Add(d)
	// They become free at end, no earlier than any of them was: the
	// slots after them that free up by end move down, and the k follow.
	rest := p.avail[k:]
	n := 0
	for n < len(rest) && rest[n] <= end {
		n++
	}
	copy(p.avail, rest[:n])
	for i := n; i < n+k; i++ {
		p.avail[i] = end
	}
	return start
}

// Horizon reports the time at which every slot becomes free — the
// makespan of all work scheduled so far.
func (p *SlotPool) Horizon() Time { return p.avail[len(p.avail)-1] }

// CommCost models a link with fixed per-message latency and a
// bandwidth in bytes per virtual second. The zero value is a free,
// infinitely fast link.
type CommCost struct {
	Latency   Duration // per message
	Bandwidth float64  // bytes per second; <=0 means infinite
}

// Transfer reports the virtual time needed to move n bytes in one
// message over the link.
func (c CommCost) Transfer(n int64) Duration {
	d := c.Latency
	if c.Bandwidth > 0 && n > 0 {
		d += Duration(float64(n) / c.Bandwidth)
	}
	return d
}

// ComputeCost models a processing rate in abstract work units per
// virtual second per core.
type ComputeCost struct {
	UnitsPerSecond float64
}

// Time reports the virtual time for `units` of work spread perfectly
// over `cores` cores. A non-positive rate or core count panics: cost
// models must be fully specified.
func (c ComputeCost) Time(units float64, cores int) Duration {
	if c.UnitsPerSecond <= 0 {
		panic("vclock: compute cost with non-positive rate")
	}
	if cores <= 0 {
		panic("vclock: compute cost with non-positive cores")
	}
	if units < 0 {
		panic("vclock: negative work units")
	}
	return Duration(units / (c.UnitsPerSecond * float64(cores)))
}
