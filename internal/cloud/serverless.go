package cloud

import (
	"fmt"
	"sort"

	"rnascale/internal/vclock"
)

// ServerlessOptions parameterize the function-as-a-service backend.
type ServerlessOptions struct {
	// MemoryTiersGB are the purchasable function sizes, ascending; an
	// invocation bills at the smallest tier holding its peak memory.
	// Empty defaults to {1, 2, 4, 8, 16}.
	MemoryTiersGB []float64
	// PricePerGBHour is the compute rate (default $0.06/GB-hour, the
	// Lambda-era $0.0000166667 per GB-second).
	PricePerGBHour float64
	// PricePerInvocation is the flat per-request fee (default $2e-7).
	PricePerInvocation float64
	// ColdStart/WarmStart are the invocation latencies without and with
	// a warm execution environment (defaults 20 s and 0.2 s — the
	// "resource-intensive aligner in FaaS" papers measure cold starts
	// in the tens of seconds for large packages).
	ColdStart, WarmStart vclock.Duration
	// KeepWarm is how long a freed environment stays reusable
	// (default 15 min).
	KeepWarm vclock.Duration
	// MaxDuration is the hard per-invocation duration cap (default
	// 15 min); work predicted to run longer must be split.
	MaxDuration vclock.Duration
}

// DefaultServerlessOptions returns the calibrated FaaS defaults.
func DefaultServerlessOptions() ServerlessOptions {
	return ServerlessOptions{
		MemoryTiersGB:      []float64{1, 2, 4, 8, 16},
		PricePerGBHour:     0.06,
		PricePerInvocation: 2e-7,
		ColdStart:          20 * vclock.Second,
		WarmStart:          vclock.Duration(0.2),
		KeepWarm:           15 * vclock.Minute,
		MaxDuration:        15 * vclock.Minute,
	}
}

// withDefaults normalizes zero fields.
func (o ServerlessOptions) withDefaults() ServerlessOptions {
	d := DefaultServerlessOptions()
	if len(o.MemoryTiersGB) == 0 {
		o.MemoryTiersGB = d.MemoryTiersGB
	}
	if o.PricePerGBHour <= 0 {
		o.PricePerGBHour = d.PricePerGBHour
	}
	if o.PricePerInvocation <= 0 {
		o.PricePerInvocation = d.PricePerInvocation
	}
	if o.ColdStart <= 0 {
		o.ColdStart = d.ColdStart
	}
	if o.WarmStart <= 0 {
		o.WarmStart = d.WarmStart
	}
	if o.KeepWarm <= 0 {
		o.KeepWarm = d.KeepWarm
	}
	if o.MaxDuration <= 0 {
		o.MaxDuration = d.MaxDuration
	}
	sort.Float64s(o.MemoryTiersGB)
	return o
}

// MaxTierGB reports the largest purchasable function size.
func (o ServerlessOptions) MaxTierGB() float64 {
	o = o.withDefaults()
	return o.MemoryTiersGB[len(o.MemoryTiersGB)-1]
}

// TierFor reports the smallest tier holding memGB, or false when the
// demand exceeds the largest tier.
func (o ServerlessOptions) TierFor(memGB float64) (float64, bool) {
	o = o.withDefaults()
	for _, t := range o.MemoryTiersGB {
		if memGB <= t {
			return t, true
		}
	}
	return 0, false
}

// InvocationUSD prices one invocation of dur at a tier.
func (o ServerlessOptions) InvocationUSD(tierGB float64, dur vclock.Duration) float64 {
	o = o.withDefaults()
	return o.PricePerInvocation + tierGB*dur.Hours()*o.PricePerGBHour
}

// Invocation is the outcome of one function invocation.
type Invocation struct {
	// Cold reports whether a new execution environment was provisioned.
	Cold bool
	// Latency is the start overhead (cold or warm) preceding Duration.
	Latency vclock.Duration
	// TierGB is the billed memory tier.
	TierGB float64
	// USD is the invocation's bill (flat fee plus GB-hours).
	USD float64
}

// Faas is the function backend's execution-environment pool and
// billing ledger. Environment reuse is deterministic: an invocation
// reuses the most recently freed eligible environment of its function,
// so the cold/warm sequence is a pure function of the invocation
// sequence.
type Faas struct {
	clock *vclock.Clock
	opts  ServerlessOptions
	// pools maps function name → environment free-at times.
	pools map[string][]vclock.Time
	// ledger aggregates billing per tier.
	ledger map[float64]*serverlessLedger
}

type serverlessLedger struct {
	invocations int
	gbHours     float64
	usd         float64
}

// NewFaas builds the backend over a clock.
func NewFaas(clock *vclock.Clock, opts ServerlessOptions) *Faas {
	return &Faas{
		clock:  clock,
		opts:   opts.withDefaults(),
		pools:  map[string][]vclock.Time{},
		ledger: map[float64]*serverlessLedger{},
	}
}

// Options reports the normalized options.
func (s *Faas) Options() ServerlessOptions { return s.opts }

// Invoke runs one function invocation of `dur` virtual compute with
// `memGB` peak memory, starting now. The clock is NOT advanced (the
// caller owns concurrency and wall-time accounting); the invocation's
// latency, tier and cost are returned. Durations above MaxDuration
// are rejected — callers split the work instead.
func (s *Faas) Invoke(fn string, memGB float64, dur vclock.Duration) (Invocation, error) {
	if dur < 0 {
		return Invocation{}, fmt.Errorf("cloud: serverless invocation with negative duration %v", dur)
	}
	if dur > s.opts.MaxDuration {
		return Invocation{}, fmt.Errorf("cloud: serverless invocation of %v exceeds the %v duration cap (split the unit)",
			dur, s.opts.MaxDuration)
	}
	tier, ok := s.opts.TierFor(memGB)
	if !ok {
		return Invocation{}, fmt.Errorf("cloud: serverless peak memory %.1f GB exceeds the largest %.0f GB tier",
			memGB, s.opts.MaxTierGB())
	}
	now := s.clock.Now()
	inv := Invocation{TierGB: tier}

	// Reuse the most recently freed eligible environment (ties by
	// lowest index); expired environments are dropped.
	pool := s.pools[fn][:0]
	reuse := -1
	for _, freeAt := range s.pools[fn] {
		if freeAt.Add(s.opts.KeepWarm) < now {
			continue // expired
		}
		pool = append(pool, freeAt)
		if freeAt <= now && (reuse < 0 || freeAt > pool[reuse]) {
			reuse = len(pool) - 1
		}
	}
	if reuse >= 0 {
		inv.Latency = s.opts.WarmStart
	} else {
		inv.Cold = true
		inv.Latency = s.opts.ColdStart
		pool = append(pool, 0)
		reuse = len(pool) - 1
	}
	pool[reuse] = now.Add(inv.Latency + dur)
	s.pools[fn] = pool

	inv.USD = s.opts.InvocationUSD(tier, dur)
	led := s.ledger[tier]
	if led == nil {
		led = &serverlessLedger{}
		s.ledger[tier] = led
	}
	led.invocations++
	led.gbHours += tier * dur.Hours()
	led.usd += inv.USD
	return inv, nil
}

// billLines renders the ledger as billing rows, one per tier (sorted),
// with Instances = invocation count and InstanceHours = GB-hours.
func (s *Faas) billLines() []BillLine {
	tiers := make([]float64, 0, len(s.ledger))
	for t := range s.ledger {
		tiers = append(tiers, t)
	}
	sort.Float64s(tiers)
	out := make([]BillLine, 0, len(tiers))
	for _, t := range tiers {
		led := s.ledger[t]
		out = append(out, BillLine{
			Type:          fmt.Sprintf("fn-%ggb", t),
			Backend:       Serverless.String(),
			Instances:     led.invocations,
			InstanceHours: led.gbHours,
			USD:           led.usd,
		})
	}
	return out
}
