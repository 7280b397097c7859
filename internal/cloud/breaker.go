package cloud

import (
	"fmt"

	"rnascale/internal/obs"
	"rnascale/internal/vclock"
)

// MetricBreakerState is the per-backend circuit-breaker state gauge:
// 0 = closed, 1 = half-open, 2 = open, labelled by backend. Both
// tracked backends are registered eagerly so the cardinality is
// constant whether or not the breaker ever trips.
const MetricBreakerState = "rnascale_breaker_state"

// BreakerState is a circuit breaker's position for one backend.
type BreakerState int

const (
	// BreakerClosed passes traffic and counts consecutive failures.
	BreakerClosed BreakerState = iota
	// BreakerHalfOpen lets a probe through after the cooldown; the
	// probe's outcome closes or re-opens the circuit.
	BreakerHalfOpen
	// BreakerOpen refuses the backend until the cooldown elapses.
	BreakerOpen
)

// String implements fmt.Stringer.
func (s BreakerState) String() string {
	switch s {
	case BreakerClosed:
		return "closed"
	case BreakerHalfOpen:
		return "half-open"
	case BreakerOpen:
		return "open"
	default:
		return fmt.Sprintf("BreakerState(%d)", int(s))
	}
}

// BreakerOptions configure the per-backend circuit breaker.
type BreakerOptions struct {
	// Threshold is how many consecutive failures trip a backend open
	// (≤0 defaults to 3).
	Threshold int
	// Cooldown is the virtual time an open backend waits before a
	// half-open probe may go through (≤0 defaults to 30 min).
	Cooldown vclock.Duration
}

// withDefaults fills unset options.
func (o BreakerOptions) withDefaults() BreakerOptions {
	if o.Threshold <= 0 {
		o.Threshold = 3
	}
	if o.Cooldown <= 0 {
		o.Cooldown = 30 * vclock.Minute
	}
	return o
}

// breakerBackends are the purchasing models the breaker tracks.
// On-demand is deliberately absent: it is the fallback the breaker
// routes work *to*, so it must never itself be refused.
var breakerBackends = []Backend{Spot, Serverless}

// backendBreaker is one backend's circuit state.
type backendBreaker struct {
	state    BreakerState
	failures int // consecutive failures while closed
	openedAt vclock.Time
}

// CircuitBreaker is a per-backend circuit breaker over virtual time:
// a wave of correlated failures (spot reclaim storm, serverless
// cold-start storm) trips the backend open, the pipeline routes
// affected stages to the on-demand fallback, and after a virtual-time
// cooldown a half-open probe decides whether the backend recovers.
// Everything is driven by the shared vclock, so breaker decisions
// replay deterministically with the run.
//
// Like the Provider it attaches to, a CircuitBreaker is not safe for
// concurrent use. A nil *CircuitBreaker is "disabled": Allow always
// passes and records are no-ops.
type CircuitBreaker struct {
	clock    *vclock.Clock
	opts     BreakerOptions
	backends map[Backend]*backendBreaker
	metrics  *obs.Registry
}

// NewCircuitBreaker returns a closed breaker over the clock.
func NewCircuitBreaker(clock *vclock.Clock, opts BreakerOptions) *CircuitBreaker {
	cb := &CircuitBreaker{clock: clock, opts: opts.withDefaults(), backends: map[Backend]*backendBreaker{}}
	for _, b := range breakerBackends {
		cb.backends[b] = &backendBreaker{}
	}
	return cb
}

// SetMetrics attaches a registry and eagerly registers the state
// gauge for every tracked backend (constant cardinality); nil
// detaches instrumentation.
func (cb *CircuitBreaker) SetMetrics(reg *obs.Registry) {
	if cb == nil {
		return
	}
	cb.metrics = reg
	for _, b := range breakerBackends {
		cb.gauge(b)
	}
}

// gauge publishes one backend's current state.
func (cb *CircuitBreaker) gauge(b Backend) {
	if cb.metrics == nil {
		return
	}
	cb.metrics.Gauge(MetricBreakerState, "Circuit-breaker state per backend: 0 closed, 1 half-open, 2 open.",
		obs.Labels{"backend": b.String()}).Set(float64(cb.backends[b].state))
}

// tracked resolves a backend's circuit, or nil for untracked backends
// (on-demand) and a nil breaker.
func (cb *CircuitBreaker) tracked(b Backend) *backendBreaker {
	if cb == nil {
		return nil
	}
	return cb.backends[b]
}

// Allow reports whether the backend may take new work now. An open
// circuit whose cooldown has elapsed moves to half-open and lets this
// call through as the probe.
func (cb *CircuitBreaker) Allow(b Backend) bool {
	s := cb.tracked(b)
	if s == nil {
		return true
	}
	if s.state == BreakerOpen {
		if cb.clock.Now() < s.openedAt.Add(cb.opts.Cooldown) {
			return false
		}
		s.state = BreakerHalfOpen
		cb.gauge(b)
	}
	return true
}

// RecordFailure counts one backend failure: Threshold consecutive
// failures trip the circuit open, and a half-open probe failure
// re-opens it immediately.
func (cb *CircuitBreaker) RecordFailure(b Backend) {
	s := cb.tracked(b)
	if s == nil {
		return
	}
	switch s.state {
	case BreakerClosed:
		s.failures++
		if s.failures < cb.opts.Threshold {
			return
		}
	case BreakerOpen:
		return
	}
	s.state = BreakerOpen
	s.failures = 0
	s.openedAt = cb.clock.Now()
	cb.gauge(b)
}

// RecordSuccess resets the failure streak; a half-open probe success
// closes the circuit.
func (cb *CircuitBreaker) RecordSuccess(b Backend) {
	s := cb.tracked(b)
	if s == nil {
		return
	}
	s.failures = 0
	if s.state == BreakerHalfOpen {
		s.state = BreakerClosed
		cb.gauge(b)
	}
}

// state reports a backend's circuit position (closed for untracked
// backends and a nil breaker). It does not advance open→half-open;
// only Allow does.
func (cb *CircuitBreaker) state(b Backend) BreakerState {
	if s := cb.tracked(b); s != nil {
		return s.state
	}
	return BreakerClosed
}
