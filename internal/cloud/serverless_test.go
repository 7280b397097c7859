package cloud

import (
	"math"
	"strings"
	"testing"

	"rnascale/internal/vclock"
)

func newFaasProvider() (*Provider, *vclock.Clock) {
	clk := vclock.NewClock(0)
	return NewProvider(clk, Options{}), clk
}

func TestServerlessTierSelection(t *testing.T) {
	cases := []struct {
		mem  float64
		want float64
		ok   bool
	}{
		{0, 1, true},
		{0.5, 1, true},
		{1, 1, true},
		{1.1, 2, true},
		{4, 4, true},
		{9, 16, true},
		{16, 16, true},
		{16.1, 0, false},
	}
	for _, c := range cases {
		got, ok := TierFor(c.mem)
		if got != c.want || ok != c.ok {
			t.Errorf("TierFor(%v) = %v, %v; want %v, %v", c.mem, got, ok, c.want, c.ok)
		}
	}
}

func TestServerlessColdWarmSequence(t *testing.T) {
	p, clk := newFaasProvider()
	// First invocation is cold.
	inv1, err := p.Invoke("assemble", 3, 60*vclock.Second)
	if err != nil {
		t.Fatal(err)
	}
	if !inv1.Cold || inv1.Latency != FnColdStart {
		t.Errorf("first invocation %+v, want cold", inv1)
	}
	if inv1.TierGB != 4 {
		t.Errorf("tier %v, want 4", inv1.TierGB)
	}
	// A second concurrent invocation (env still busy) is also cold.
	inv2, err := p.Invoke("assemble", 3, 60*vclock.Second)
	if err != nil {
		t.Fatal(err)
	}
	if !inv2.Cold {
		t.Error("concurrent invocation reused a busy environment")
	}
	// After both finish, a new invocation reuses a warm environment.
	clk.Advance(5 * vclock.Minute)
	inv3, err := p.Invoke("assemble", 3, 60*vclock.Second)
	if err != nil {
		t.Fatal(err)
	}
	if inv3.Cold || inv3.Latency != fnWarmStart {
		t.Errorf("post-idle invocation %+v, want warm", inv3)
	}
	// Functions have separate pools.
	inv4, err := p.Invoke("preprocess", 1, vclock.Second)
	if err != nil {
		t.Fatal(err)
	}
	if !inv4.Cold {
		t.Error("different function reused another function's environment")
	}
	// After KeepWarm expires, environments go away again.
	clk.Advance(fnKeepWarm + 10*vclock.Minute)
	inv5, err := p.Invoke("assemble", 3, 60*vclock.Second)
	if err != nil {
		t.Fatal(err)
	}
	if !inv5.Cold {
		t.Error("expired environment still reusable")
	}
}

func TestServerlessDurationCapAndErrors(t *testing.T) {
	p, _ := newFaasProvider()
	cap := FnMaxDuration
	if _, err := p.Invoke("f", 1, cap+vclock.Second); err == nil || !strings.Contains(err.Error(), "split") {
		t.Errorf("over-cap invocation: %v", err)
	}
	if _, err := p.Invoke("f", 1, -vclock.Second); err == nil {
		t.Error("negative duration accepted")
	}
	if _, err := p.Invoke("f", 100, vclock.Second); err == nil || !strings.Contains(err.Error(), "tier") {
		t.Errorf("over-memory invocation: %v", err)
	}
	// Exactly at the cap is fine.
	if _, err := p.Invoke("f", 1, cap); err != nil {
		t.Errorf("at-cap invocation rejected: %v", err)
	}
	// Errors do not bill.
	if got := p.TotalCost(); got != invocationUSD(1, cap) {
		t.Errorf("failed invocations billed: %v", got)
	}
}

func TestServerlessPerInvocationBilling(t *testing.T) {
	p, _ := newFaasProvider()
	// One 90 s invocation at the 2 GB tier.
	if _, err := p.Invoke("f", 1.5, 90*vclock.Second); err != nil {
		t.Fatal(err)
	}
	want := fnPricePerInvocation + 2*(90.0/3600.0)*fnPricePerGBHour
	if got := p.TotalCost(); math.Abs(got-want) > 1e-15 {
		t.Errorf("bill = %v, want %v", got, want)
	}
	// Zero-duration invocation still pays the flat request fee.
	if _, err := p.Invoke("f", 1.5, 0); err != nil {
		t.Fatal(err)
	}
	want += fnPricePerInvocation
	if got := p.TotalCost(); math.Abs(got-want) > 1e-15 {
		t.Errorf("bill after zero-duration = %v, want %v", got, want)
	}
	// The provider bill carries per-tier serverless lines and TotalCost
	// includes them.
	lines := p.Bill()
	if len(lines) != 1 {
		t.Fatalf("bill lines = %+v", lines)
	}
	l := lines[0]
	if l.Type != "fn-2gb" || l.Backend != "serverless" || l.Instances != 2 {
		t.Errorf("serverless line %+v", l)
	}
	if math.Abs(l.USD-want) > 1e-15 || math.Abs(p.TotalCost()-want) > 1e-15 {
		t.Errorf("line USD %v, total %v, want %v", l.USD, p.TotalCost(), want)
	}
	wantGBH := 2 * (90.0 / 3600.0)
	if math.Abs(l.InstanceHours-wantGBH) > 1e-15 {
		t.Errorf("GB-hours %v, want %v", l.InstanceHours, wantGBH)
	}
}

func TestServerlessMultiTierBillSorted(t *testing.T) {
	p, _ := newFaasProvider()
	for _, mem := range []float64{9, 0.5, 3, 0.5} {
		if _, err := p.Invoke("f", mem, vclock.Minute); err != nil {
			t.Fatal(err)
		}
	}
	lines := p.Bill()
	if len(lines) != 3 {
		t.Fatalf("bill lines = %+v", lines)
	}
	for i, want := range []string{"fn-1gb", "fn-4gb", "fn-16gb"} {
		if lines[i].Type != want {
			t.Errorf("line %d type %q, want %q (sorted by tier)", i, lines[i].Type, want)
		}
	}
	if lines[0].Instances != 2 {
		t.Errorf("1gb invocations = %d, want 2", lines[0].Instances)
	}
}
