package cloud

import (
	"fmt"
	"sort"

	"rnascale/internal/vclock"
)

// The function backend's calibration. An invocation bills at the
// smallest memory tier holding its peak memory, a per-request fee plus
// GB-hours at the Lambda-era $0.0000166667 per GB-second. Cold starts
// are in the tens of seconds: the serverless-STAR paper (arXiv
// 2504.05078) measures them for a resource-intensive aligner's large
// package; a reused warm environment starts in 0.2 s.
const (
	fnPricePerGBHour     = 0.06
	fnPricePerInvocation = 2e-7
	// FnColdStart is the latency of an invocation that provisions a new
	// execution environment.
	FnColdStart = 20 * vclock.Second
	fnWarmStart = vclock.Duration(0.2)
	// fnKeepWarm is how long a freed environment stays reusable.
	fnKeepWarm = 15 * vclock.Minute
	// FnMaxDuration is the hard per-invocation duration cap; work
	// predicted to run longer must be split.
	FnMaxDuration = 15 * vclock.Minute
)

// FnMemoryTiersGB are the purchasable function sizes, ascending. It is
// never assigned.
var FnMemoryTiersGB = [...]float64{1, 2, 4, 8, 16}

// TierFor reports the smallest tier holding memGB, or false when the
// demand exceeds the largest tier.
func TierFor(memGB float64) (float64, bool) {
	for _, t := range FnMemoryTiersGB {
		if memGB <= t {
			return t, true
		}
	}
	return 0, false
}

// invocationUSD prices one invocation of dur at a tier.
func invocationUSD(tierGB float64, dur vclock.Duration) float64 {
	return fnPricePerInvocation + tierGB*dur.Hours()*fnPricePerGBHour
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

// faas is the function backend's execution-environment pool and
// billing ledger. Environment reuse is deterministic: an invocation
// reuses the most recently freed eligible environment of its function,
// so the cold/warm sequence is a pure function of the invocation
// sequence.
type faas struct {
	clock *vclock.Clock
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

// invoke is Provider.Invoke without the metrics.
func (s *faas) invoke(fn string, memGB float64, dur vclock.Duration) (Invocation, error) {
	if dur < 0 {
		return Invocation{}, fmt.Errorf("cloud: serverless invocation with negative duration %v", dur)
	}
	if dur > FnMaxDuration {
		return Invocation{}, fmt.Errorf("cloud: serverless invocation of %v exceeds the %v duration cap (split the unit)",
			dur, FnMaxDuration)
	}
	tier, ok := TierFor(memGB)
	if !ok {
		return Invocation{}, fmt.Errorf("cloud: serverless peak memory %.1f GB exceeds the largest %.0f GB tier",
			memGB, FnMemoryTiersGB[len(FnMemoryTiersGB)-1])
	}
	now := s.clock.Now()
	inv := Invocation{TierGB: tier}

	// Reuse the most recently freed eligible environment (ties by
	// lowest index); expired environments are dropped.
	pool := s.pools[fn][:0]
	reuse := -1
	for _, freeAt := range s.pools[fn] {
		if freeAt.Add(fnKeepWarm) < now {
			continue // expired
		}
		pool = append(pool, freeAt)
		if freeAt <= now && (reuse < 0 || freeAt > pool[reuse]) {
			reuse = len(pool) - 1
		}
	}
	if reuse >= 0 {
		inv.Latency = fnWarmStart
	} else {
		inv.Cold = true
		inv.Latency = FnColdStart
		pool = append(pool, 0)
		reuse = len(pool) - 1
	}
	pool[reuse] = now.Add(inv.Latency + dur)
	s.pools[fn] = pool

	inv.USD = invocationUSD(tier, dur)
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
func (s *faas) billLines() []BillLine {
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
