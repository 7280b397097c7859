package cloud

import (
	"fmt"
	"strconv"
	"strings"

	"rnascale/internal/faults"
	"rnascale/internal/vclock"
)

// Backend selects the purchasing model a VM (or function invocation)
// runs under. The zero value is the fixed-price on-demand market the
// paper's experiments use, so existing configurations are unchanged.
type Backend int

const (
	// OnDemand is the paper's fixed-price EC2 model.
	OnDemand Backend = iota
	// Spot buys reclaimable capacity at the current market price of a
	// seed-deterministic per-AZ price walk; reclamation probability
	// rises with the price level.
	Spot
	// Serverless runs work as function invocations: no VMs, cold/warm
	// start latency, memory-tier pricing and a hard per-invocation
	// duration cap.
	Serverless
)

// String implements fmt.Stringer.
func (b Backend) String() string {
	switch b {
	case OnDemand:
		return "on-demand"
	case Spot:
		return "spot"
	case Serverless:
		return "serverless"
	default:
		return fmt.Sprintf("Backend(%d)", int(b))
	}
}

// ParseBackend resolves a backend name ("on-demand"/"od", "spot",
// "serverless"/"fn").
func ParseBackend(s string) (Backend, error) {
	switch strings.TrimSpace(strings.ToLower(s)) {
	case "", "on-demand", "ondemand", "od":
		return OnDemand, nil
	case "spot":
		return Spot, nil
	case "serverless", "fn", "faas":
		return Serverless, nil
	default:
		return OnDemand, fmt.Errorf("cloud: unknown backend %q", s)
	}
}

// The spot market's fixed shape: three availability zones with
// independent price walks, a walk step of 5 min, and a 12 h horizon
// bounding how far ahead of a VM's boot reclaim draws are evaluated —
// a VM that survives its horizon keeps running.
const (
	spotStep    = 5 * vclock.Minute
	spotHorizon = 12 * vclock.Hour
)

// spotAZs is never assigned.
var spotAZs = [...]string{"a", "b", "c"}

// SpotOptions parameterize the spot market simulation.
type SpotOptions struct {
	// Seed drives the market's own splittable PRNG (independent of the
	// fault injector's streams, so adding a spot market never perturbs
	// an existing fault plan's draws).
	Seed uint64
	// InitialFrac is the starting price as a fraction of the on-demand
	// price (default 0.35).
	InitialFrac float64
	// FloorFrac/CeilFrac clamp the walk (defaults 0.2 and 1.1 — spot
	// can briefly exceed on-demand, as the real market did).
	FloorFrac, CeilFrac float64
	// Volatility is the per-step multiplicative swing half-width
	// (default 0.08: each step multiplies by 1 ± U(0,0.08)).
	Volatility float64
	// ReclaimKnee is the price fraction above which reclaim pressure
	// starts (default 0.5); MaxReclaimPerStep is the per-step reclaim
	// probability when the walk pins the ceiling (default 0.12).
	ReclaimKnee       float64
	MaxReclaimPerStep float64
}

// DefaultSpotOptions returns the calibrated market defaults.
func DefaultSpotOptions() SpotOptions {
	return SpotOptions{
		InitialFrac:       0.35,
		FloorFrac:         0.2,
		CeilFrac:          1.1,
		Volatility:        0.08,
		ReclaimKnee:       0.5,
		MaxReclaimPerStep: 0.12,
	}
}

// withDefaults normalizes zero fields.
func (o SpotOptions) withDefaults() SpotOptions {
	d := DefaultSpotOptions()
	if o.InitialFrac <= 0 {
		o.InitialFrac = d.InitialFrac
	}
	if o.FloorFrac <= 0 {
		o.FloorFrac = d.FloorFrac
	}
	if o.CeilFrac <= 0 {
		o.CeilFrac = d.CeilFrac
	}
	if o.Volatility <= 0 {
		o.Volatility = d.Volatility
	}
	if o.ReclaimKnee <= 0 {
		o.ReclaimKnee = d.ReclaimKnee
	}
	if o.MaxReclaimPerStep <= 0 {
		o.MaxReclaimPerStep = d.MaxReclaimPerStep
	}
	return o
}

// SpotMarket is a seed-deterministic per-AZ price walk. Every price is
// a pure function of (seed, az, step index): step i multiplies step
// i-1 by a factor drawn from the market's own splittable PRNG stream,
// so consulting the market never advances any fault-injection stream
// and replays are byte-identical in any query order.
type SpotMarket struct {
	opts SpotOptions
	rng  *faults.RNG
	// walk memoizes the per-AZ price fractions by step index.
	walk map[string][]float64
}

// NewSpotMarket builds a market.
func NewSpotMarket(opts SpotOptions) *SpotMarket {
	opts = opts.withDefaults()
	return &SpotMarket{
		opts: opts,
		rng:  faults.NewRNG(opts.Seed),
		walk: map[string][]float64{},
	}
}

// step maps a virtual time to its walk step index.
func (m *SpotMarket) step(t vclock.Time) int {
	if t <= 0 {
		return 0
	}
	return int(float64(t) / float64(spotStep))
}

// fracAt extends the memoized walk for an AZ through step i and
// returns its price fraction. Step k's factor is drawn from the stream
// Split("price", az, k), so the value is independent of the order (and
// number) of queries.
func (m *SpotMarket) fracAt(az string, i int) float64 {
	w := m.walk[az]
	if len(w) == 0 {
		w = append(w, m.opts.InitialFrac)
	}
	for k := len(w); k <= i; k++ {
		r := m.rng.Split("price", az, strconv.Itoa(k))
		// Symmetric multiplicative swing in [1-v, 1+v).
		f := w[k-1] * (1 + m.opts.Volatility*(2*r.Float64()-1))
		if f < m.opts.FloorFrac {
			f = m.opts.FloorFrac
		}
		if f > m.opts.CeilFrac {
			f = m.opts.CeilFrac
		}
		w = append(w, f)
	}
	m.walk[az] = w
	return w[i]
}

// PriceFrac reports the AZ's price at time t as a fraction of the
// on-demand price.
func (m *SpotMarket) PriceFrac(az string, t vclock.Time) float64 {
	return m.fracAt(az, m.step(t))
}

// Price reports the AZ's absolute price for an instance type at t.
func (m *SpotMarket) Price(it InstanceType, az string, t vclock.Time) float64 {
	return it.PricePerHour * m.PriceFrac(az, t)
}

// AvgFrac integrates the price fraction over [from, to] — the
// effective billing rate of a VM alive across that window. A window
// shorter than one step bills at the step's price.
func (m *SpotMarket) AvgFrac(az string, from, to vclock.Time) float64 {
	if to <= from {
		return m.PriceFrac(az, from)
	}
	step := float64(spotStep)
	i0, i1 := m.step(from), m.step(to)
	if i0 == i1 {
		return m.fracAt(az, i0)
	}
	var weighted float64
	// Partial first step, whole middle steps, partial last step.
	weighted += m.fracAt(az, i0) * (float64(i0+1)*step - float64(from))
	for i := i0 + 1; i < i1; i++ {
		weighted += m.fracAt(az, i) * step
	}
	weighted += m.fracAt(az, i1) * (float64(to) - float64(i1)*step)
	return weighted / float64(to.Sub(from))
}

// CheapestAZ reports the AZ with the lowest price at t (ties broken
// lexicographically, so the choice is deterministic).
func (m *SpotMarket) CheapestAZ(t vclock.Time) string {
	best := spotAZs[0]
	bestFrac := m.PriceFrac(best, t)
	for _, az := range spotAZs[1:] {
		f := m.PriceFrac(az, t)
		if f < bestFrac || (f == bestFrac && az < best) {
			best, bestFrac = az, f
		}
	}
	return best
}

// reclaimP reports the per-step reclaim probability at a price
// fraction: zero below the knee, ramping linearly to
// MaxReclaimPerStep at the ceiling.
func (m *SpotMarket) reclaimP(frac float64) float64 {
	if frac <= m.opts.ReclaimKnee {
		return 0
	}
	span := m.opts.CeilFrac - m.opts.ReclaimKnee
	if span <= 0 {
		return m.opts.MaxReclaimPerStep
	}
	p := (frac - m.opts.ReclaimKnee) / span * m.opts.MaxReclaimPerStep
	if p > m.opts.MaxReclaimPerStep {
		p = m.opts.MaxReclaimPerStep
	}
	return p
}

// ReclaimAt decides, at VM launch, whether and when the market
// reclaims a spot VM booted in az at time from. Each walk step within
// the market horizon draws against the price-coupled reclaim
// probability on the VM's own stream Split("reclaim", vmID, step), so
// the decision depends only on (seed, az, vmID) — never on other VMs
// or on fault-plan draws.
func (m *SpotMarket) ReclaimAt(vmID, az string, from vclock.Time) (vclock.Time, bool) {
	first := m.step(from) + 1 // never reclaim within the boot step
	last := m.step(from.Add(spotHorizon))
	for i := first; i <= last; i++ {
		p := m.reclaimP(m.fracAt(az, i))
		if p <= 0 {
			continue
		}
		r := m.rng.Split("reclaim", vmID, strconv.Itoa(i))
		if r.Float64() < p {
			return vclock.Time(float64(i) * float64(spotStep)), true
		}
	}
	return 0, false
}
