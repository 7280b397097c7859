package cloud

import (
	"math"
	"testing"

	"rnascale/internal/vclock"
)

func TestBilledHoursEdges(t *testing.T) {
	clk := vclock.NewClock(0)
	p := NewProvider(clk, Options{})
	clk.Advance(100 * vclock.Second)
	vms, err := p.RunInstancesOn("c3.2xlarge", 1, OnDemand)
	if err != nil {
		t.Fatal(err)
	}
	vm := vms[0]
	// Before launch: zero, not negative.
	if got := vm.BilledHours(0); got != 0 {
		t.Errorf("pre-launch hours = %v", got)
	}
	// At launch: zero.
	if got := vm.BilledHours(vm.LaunchedAt); got != 0 {
		t.Errorf("at-launch hours = %v", got)
	}
	// Billing runs from launch (not boot): 30 min after launch = 0.5 h
	// even though the first 60 s were pending.
	if got := vm.BilledHours(vm.LaunchedAt.Add(30 * vclock.Minute)); math.Abs(got-0.5) > 1e-12 {
		t.Errorf("mid-life hours = %v, want 0.5", got)
	}
	// Partial hours stay fractional in the default billing mode.
	if got := vm.BilledHours(vm.LaunchedAt.Add(90 * vclock.Minute)); math.Abs(got-1.5) > 1e-12 {
		t.Errorf("90 min = %v hours, want 1.5", got)
	}
	// After termination the meter stops.
	clk.AdvanceTo(vm.LaunchedAt.Add(vclock.Hour))
	p.Terminate(vm)
	if got := vm.BilledHours(vm.TerminatedAt.Add(24 * vclock.Hour)); math.Abs(got-1) > 1e-12 {
		t.Errorf("post-termination hours = %v, want 1", got)
	}
}

func TestSpotBillingTracksMarketPrice(t *testing.T) {
	// A constant-price market bills exactly price × frac × hours.
	clk := vclock.NewClock(0)
	p := NewProvider(clk, Options{Spot: &SpotOptions{Seed: 6, InitialFrac: 0.4, FloorFrac: 0.399, CeilFrac: 0.401, Volatility: 1e-9}})
	vms, err := p.RunInstancesOn("c3.2xlarge", 1, Spot)
	if err != nil {
		t.Fatal(err)
	}
	clk.Advance(2 * vclock.Hour)
	p.Terminate(vms[0])
	lines := p.Bill()
	if len(lines) != 1 {
		t.Fatalf("bill = %+v", lines)
	}
	l := lines[0]
	if l.Type != "c3.2xlarge" || l.Backend != "spot" {
		t.Errorf("line %+v", l)
	}
	want := 2 * 0.42 * 0.4
	if math.Abs(l.USD-want)/want > 2e-3 { // walk wiggles within ±0.001/0.4
		t.Errorf("spot bill %v, want ≈%v", l.USD, want)
	}
	if od := 2 * 0.42; l.USD >= od {
		t.Errorf("spot bill %v not cheaper than on-demand %v", l.USD, od)
	}
}

func TestSpotBillingIntegratesPriceChanges(t *testing.T) {
	// The effective rate must equal the market's own AvgFrac over the
	// VM's lifetime — i.e. mid-lifetime price changes are integrated,
	// not sampled at termination.
	clk := vclock.NewClock(0)
	p := NewProvider(clk, Options{Spot: &SpotOptions{Seed: 17, Volatility: 0.25, InitialFrac: 0.5}})
	vms, err := p.RunInstancesOn("c3.2xlarge", 1, Spot)
	if err != nil {
		t.Fatal(err)
	}
	vm := vms[0]
	clk.Advance(3 * vclock.Hour)
	p.Terminate(vm)
	m := p.spot
	frac := m.AvgFrac(vm.AZ, vm.LaunchedAt, vm.TerminatedAt)
	want := vm.BilledHours(clk.Now()) * 0.42 * frac
	var total float64
	for _, l := range p.Bill() {
		total += l.USD
	}
	if math.Abs(total-want) > 1e-12 {
		t.Errorf("integrated spot bill %v, want %v", total, want)
	}
	// With 25% per-step volatility the start and end prices differ, so
	// the test really exercises a changing price.
	if a, b := m.PriceFrac(vm.AZ, vm.LaunchedAt), m.PriceFrac(vm.AZ, vm.TerminatedAt); a == b {
		t.Errorf("price did not move over 3 h (%v)", a)
	}
}

func TestMixedBackendBillLines(t *testing.T) {
	clk := vclock.NewClock(0)
	p := NewProvider(clk, Options{Spot: &SpotOptions{Seed: 6}})
	if _, err := p.RunInstancesOn("c3.2xlarge", 2, OnDemand); err != nil {
		t.Fatal(err)
	}
	if _, err := p.RunInstancesOn("c3.2xlarge", 1, Spot); err != nil {
		t.Fatal(err)
	}
	if _, err := p.Invoke("f", 1, vclock.Minute); err != nil {
		t.Fatal(err)
	}
	clk.Advance(vclock.Hour)
	lines := p.Bill()
	if len(lines) != 3 {
		t.Fatalf("bill = %+v, want on-demand + spot + fn lines", lines)
	}
	// On-demand first (empty backend sorts before "spot"), then spot,
	// then the serverless tier lines.
	if lines[0].Backend != "" || lines[0].Instances != 2 {
		t.Errorf("line 0 = %+v, want on-demand pair", lines[0])
	}
	if lines[1].Backend != "spot" || lines[1].Instances != 1 {
		t.Errorf("line 1 = %+v, want spot single", lines[1])
	}
	if lines[2].Type != "fn-1gb" || lines[2].Backend != "serverless" {
		t.Errorf("line 2 = %+v, want fn tier", lines[2])
	}
	var sum float64
	for _, l := range lines {
		sum += l.USD
	}
	if math.Abs(sum-p.TotalCost()) > 1e-12 {
		t.Errorf("TotalCost %v != line sum %v", p.TotalCost(), sum)
	}
}
