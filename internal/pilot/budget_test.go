package pilot

import (
	"testing"

	"rnascale/internal/vclock"
)

func TestRetryBudgetNilUnlimited(t *testing.T) {
	var b *RetryBudget
	for i := 0; i < 100; i++ {
		if !b.Allow(vclock.Time(i)) {
			t.Fatalf("nil budget denied retry %d", i)
		}
	}
}

func TestRetryBudgetExhausts(t *testing.T) {
	b := NewRetryBudget(3, 0)
	for i := 0; i < 3; i++ {
		if !b.Allow(vclock.Time(i)) {
			t.Fatalf("retry %d denied with tokens left", i)
		}
	}
	if b.tokens != 0 {
		t.Fatalf("%v tokens left after spending the capacity, want 0", b.tokens)
	}
	// No refill configured: the bucket stays dry forever after.
	if b.Allow(vclock.Time(1e9)) {
		t.Fatal("empty bucket with no refill allowed a retry")
	}
}

func TestRetryBudgetNegativeCapacityClamped(t *testing.T) {
	b := NewRetryBudget(-5, 0)
	if b.Allow(0) {
		t.Fatal("negative-capacity budget allowed a retry")
	}
	if b.tokens != 0 {
		t.Fatalf("%v tokens, want 0", b.tokens)
	}
}

func TestRetryBudgetRefillsOverVirtualTime(t *testing.T) {
	b := NewRetryBudget(2, vclock.Minute)
	if !b.Allow(0) || !b.Allow(0) {
		t.Fatal("full bucket denied")
	}
	if b.Allow(0) {
		t.Fatal("empty bucket allowed with no time elapsed")
	}
	// Half a refill period accrues half a token: still not enough.
	if b.Allow(30) {
		t.Fatal("allowed on a fractional token")
	}
	// A full minute past the last observation accrues the rest.
	if !b.Allow(90) {
		t.Fatal("refilled token denied after a full refill period")
	}
	// Refill never exceeds capacity: after a long idle stretch only
	// `capacity` retries are available, not one per elapsed period.
	long := vclock.Time(100 * vclock.Hour)
	if !b.Allow(long) || !b.Allow(long) {
		t.Fatal("capacity tokens denied after long idle")
	}
	if b.Allow(long) {
		t.Fatal("refill overflowed the bucket capacity")
	}
}
