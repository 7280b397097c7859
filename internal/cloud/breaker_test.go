package cloud

import (
	"strings"
	"testing"

	"rnascale/internal/obs"
	"rnascale/internal/vclock"
)

func TestBreakerTripsAfterThreshold(t *testing.T) {
	clk := vclock.NewClock(0)
	cb := NewCircuitBreaker(clk, BreakerOptions{Threshold: 3, Cooldown: 10 * vclock.Minute})

	for i := 0; i < 2; i++ {
		cb.RecordFailure(Spot)
		if !cb.Allow(Spot) || cb.state(Spot) != BreakerClosed {
			t.Fatalf("after %d failures: state %v, want closed and allowed", i+1, cb.state(Spot))
		}
	}
	cb.RecordFailure(Spot)
	if cb.state(Spot) != BreakerOpen {
		t.Fatalf("after threshold failures: state %v, want open", cb.state(Spot))
	}
	if cb.Allow(Spot) {
		t.Fatal("open breaker allowed traffic before cooldown")
	}
	// Failures while open are absorbed without resetting openedAt.
	cb.RecordFailure(Spot)
	if cb.state(Spot) != BreakerOpen {
		t.Fatalf("failure while open: state %v, want open", cb.state(Spot))
	}
}

func TestBreakerSuccessResetsStreak(t *testing.T) {
	clk := vclock.NewClock(0)
	cb := NewCircuitBreaker(clk, BreakerOptions{Threshold: 2})
	cb.RecordFailure(Spot)
	cb.RecordSuccess(Spot)
	cb.RecordFailure(Spot)
	if cb.state(Spot) != BreakerClosed {
		t.Fatalf("interleaved success did not reset the streak: state %v", cb.state(Spot))
	}
}

func TestBreakerHalfOpenProbe(t *testing.T) {
	cool := 10 * vclock.Minute
	for _, tc := range []struct {
		name        string
		probePasses bool
		want        BreakerState
	}{
		{"probe-success-closes", true, BreakerClosed},
		{"probe-failure-reopens", false, BreakerOpen},
	} {
		t.Run(tc.name, func(t *testing.T) {
			clk := vclock.NewClock(0)
			cb := NewCircuitBreaker(clk, BreakerOptions{Threshold: 1, Cooldown: cool})
			cb.RecordFailure(Spot)
			if cb.state(Spot) != BreakerOpen {
				t.Fatal("threshold 1 did not trip on first failure")
			}
			// Mid-cooldown the circuit stays shut.
			clk.Advance(cool / 2)
			if cb.Allow(Spot) {
				t.Fatal("allowed mid-cooldown")
			}
			clk.Advance(cool)
			if !cb.Allow(Spot) {
				t.Fatal("cooldown elapsed but probe refused")
			}
			if cb.state(Spot) != BreakerHalfOpen {
				t.Fatalf("state %v after probe admission, want half-open", cb.state(Spot))
			}
			if tc.probePasses {
				cb.RecordSuccess(Spot)
			} else {
				cb.RecordFailure(Spot)
			}
			if cb.state(Spot) != tc.want {
				t.Fatalf("after probe: state %v, want %v", cb.state(Spot), tc.want)
			}
		})
	}
}

func TestBreakerBackendsIndependent(t *testing.T) {
	clk := vclock.NewClock(0)
	cb := NewCircuitBreaker(clk, BreakerOptions{Threshold: 1})
	cb.RecordFailure(Spot)
	if cb.state(Spot) != BreakerOpen {
		t.Fatal("spot did not trip")
	}
	if cb.state(Serverless) != BreakerClosed || !cb.Allow(Serverless) {
		t.Fatal("spot trip leaked into serverless")
	}
}

// On-demand is the fallback the breaker routes to; it must never be
// refused, no matter how many failures are recorded against it.
func TestBreakerOnDemandUntracked(t *testing.T) {
	clk := vclock.NewClock(0)
	cb := NewCircuitBreaker(clk, BreakerOptions{Threshold: 1})
	cb.RecordFailure(OnDemand)
	cb.RecordFailure(OnDemand)
	if !cb.Allow(OnDemand) || cb.state(OnDemand) != BreakerClosed {
		t.Fatal("on-demand became refusable")
	}
}

func TestBreakerNilSafe(t *testing.T) {
	var cb *CircuitBreaker
	if !cb.Allow(Spot) {
		t.Fatal("nil breaker refused traffic")
	}
	cb.RecordFailure(Spot)
	cb.RecordSuccess(Spot)
	cb.SetMetrics(obs.NewRegistry())
	if cb.state(Spot) != BreakerClosed {
		t.Fatal("nil breaker reported a non-closed state")
	}
}

// The state gauge is registered eagerly for both tracked backends and
// follows transitions with values 0/1/2; its cardinality never moves.
func TestBreakerStateGauge(t *testing.T) {
	clk := vclock.NewClock(0)
	cb := NewCircuitBreaker(clk, BreakerOptions{Threshold: 1, Cooldown: vclock.Minute})
	reg := obs.NewRegistry()
	cb.SetMetrics(reg)

	series := func() map[string]float64 {
		out := map[string]float64{}
		for _, p := range reg.Points() {
			if p.Name == MetricBreakerState {
				out[p.Labels["backend"]] = p.Value
			}
		}
		return out
	}

	got := series()
	if len(got) != 2 || got["spot"] != 0 || got["serverless"] != 0 {
		t.Fatalf("initial gauge series %v, want spot=0 serverless=0", got)
	}
	cb.RecordFailure(Spot)
	if got = series(); got["spot"] != 2 {
		t.Fatalf("open gauge %v, want spot=2", got)
	}
	clk.Advance(2 * vclock.Minute)
	cb.Allow(Spot)
	if got = series(); got["spot"] != 1 {
		t.Fatalf("half-open gauge %v, want spot=1", got)
	}
	cb.RecordSuccess(Spot)
	if got = series(); got["spot"] != 0 {
		t.Fatalf("closed gauge %v, want spot=0", got)
	}
	if len(got) != 2 {
		t.Fatalf("gauge cardinality moved to %d series", len(got))
	}
}

func TestBreakerStateStrings(t *testing.T) {
	for s, want := range map[BreakerState]string{
		BreakerClosed:   "closed",
		BreakerHalfOpen: "half-open",
		BreakerOpen:     "open",
		BreakerState(9): "BreakerState(9)",
	} {
		if got := s.String(); !strings.Contains(got, want) {
			t.Errorf("state %d: %q, want %q", int(s), got, want)
		}
	}
}
