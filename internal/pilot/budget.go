package pilot

import (
	"math"

	"rnascale/internal/vclock"
)

// MetricRetryBudgetExhausted counts retries that were denied because
// the run's retry budget was empty — each one fails its unit (and so
// its stage) instead of resubmitting.
const MetricRetryBudgetExhausted = "rnascale_retry_budget_exhausted_total"

// RetryBudget is a virtual-time token bucket bounding how many unit
// restarts a whole run may spend. Every retry — across all stages and
// runners sharing the budget — consumes one token; an empty bucket
// fails the unit instead of resubmitting, converting a correlated
// failure wave (reclaim storm, cold-start storm) into a bounded
// number of attempts rather than an amplifying retry storm.
//
// Tokens refill at one per RefillPer of virtual time (0 = no refill).
// A nil *RetryBudget means "unlimited": every method is nil-safe, so
// callers never branch.
type RetryBudget struct {
	capacity float64
	tokens   float64
	refill   vclock.Duration // virtual time per replenished token
	last     vclock.Time     // last virtual time the bucket was observed
}

// NewRetryBudget returns a full bucket of `capacity` retry tokens that
// regains one token per refillPer of virtual time (0 disables refill).
func NewRetryBudget(capacity int, refillPer vclock.Duration) *RetryBudget {
	if capacity < 0 {
		capacity = 0
	}
	return &RetryBudget{
		capacity: float64(capacity),
		tokens:   float64(capacity),
		refill:   refillPer,
	}
}

// Allow spends one token at virtual time `at` and reports whether the
// retry may proceed. A nil budget always allows.
func (b *RetryBudget) Allow(at vclock.Time) bool {
	if b == nil {
		return true
	}
	if b.refill > 0 && at > b.last {
		b.tokens = math.Min(b.capacity, b.tokens+float64(at-b.last)/float64(b.refill))
	}
	if at > b.last {
		b.last = at
	}
	if b.tokens >= 1 {
		b.tokens--
		return true
	}
	return false
}
