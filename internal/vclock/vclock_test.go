package vclock

import (
	"math"
	"testing"
	"testing/quick"
)

func TestDurationString(t *testing.T) {
	cases := []struct {
		d    Duration
		want string
	}{
		{0, "0s"},
		{42, "42s"},
		{42.5, "42.50s"},
		{119, "119s"},
		{120, "2m00s"},
		{882, "14m42s"},
		{1721, "28m41s"},
		{6720, "1h52m00s"},
		{2*Hour + 47*Minute, "2h47m00s"},
		{-90, "-90s"},
	}
	for _, c := range cases {
		if got := c.d.String(); got != c.want {
			t.Errorf("Duration(%v).String() = %q, want %q", float64(c.d), got, c.want)
		}
	}
}

// TestDurationStringSeam pins the format seam: the value is rounded
// to display precision before the <120s branch is chosen, so no
// rendered string ever shows a seconds value of 120 or more, and no
// whole-second value carries fractional digits. (Duration(60) renders
// "60s", so 59.9999 — indistinguishable at display precision — must
// render the same, not "60.00s".)
func TestDurationStringSeam(t *testing.T) {
	cases := []struct {
		d    Duration
		want string
	}{
		{119.999, "2m00s"},   // rounds across the seam: minute branch
		{119.996, "2m00s"},   // smallest value that displays as 120.00
		{119.994, "119.99s"}, // still under the seam after rounding
		{59.9999, "60s"},     // rounds to a whole second: integer form
		{60, "60s"},          // the value 59.9999 is indistinguishable from
		{60.004, "60s"},      // rounds down to a whole second
		{60.005, "60.01s"},   // genuinely fractional after rounding
		{0.004, "0s"},        // rounds to zero
		{0.005, "0.01s"},     // smallest nonzero rendering
		{-119.999, "-2m00s"}, // sign recurses through the same seam
		{179.999, "3m00s"},   // minute branch rounds whole seconds
		{7199.9, "2h00m00s"}, // hour rollover from rounding
	}
	for _, c := range cases {
		if got := c.d.String(); got != c.want {
			t.Errorf("Duration(%v).String() = %q, want %q", float64(c.d), got, c.want)
		}
	}
}

func TestTimeArithmetic(t *testing.T) {
	var zero Time
	later := zero.Add(90 * Second)
	if later != 90 {
		t.Fatalf("Add: got %v, want 90", later)
	}
	if d := later.Sub(zero); d != 90 {
		t.Fatalf("Sub: got %v, want 90", d)
	}
	if got := Max(later, zero); got != later {
		t.Errorf("Max picked %v", got)
	}
}

func TestClockMonotonic(t *testing.T) {
	c := NewClock(10)
	if c.Now() != 10 {
		t.Fatalf("start: %v", c.Now())
	}
	c.Advance(5)
	if c.Now() != 15 {
		t.Fatalf("advance: %v", c.Now())
	}
	c.AdvanceTo(12) // earlier target: ignored
	if c.Now() != 15 {
		t.Fatalf("backwards AdvanceTo moved clock: %v", c.Now())
	}
	c.AdvanceTo(20)
	if c.Now() != 20 {
		t.Fatalf("AdvanceTo: %v", c.Now())
	}
	defer func() {
		if recover() == nil {
			t.Error("negative Advance did not panic")
		}
	}()
	c.Advance(-1)
}

func TestSlotPoolSingleSlotSerializes(t *testing.T) {
	p := NewSlotPool(1)
	s1 := p.Acquire(1, 0, 10)
	s2 := p.Acquire(1, 0, 10)
	s3 := p.Acquire(1, 25, 10)
	if s1 != 0 || s2 != 10 || s3 != 25 {
		t.Fatalf("starts = %v %v %v, want 0 10 25", s1, s2, s3)
	}
	if h := p.Horizon(); h != 35 {
		t.Fatalf("horizon = %v, want 35", h)
	}
}

func TestSlotPoolParallelFit(t *testing.T) {
	p := NewSlotPool(4)
	for i := 0; i < 4; i++ {
		if s := p.Acquire(1, 0, 100); s != 0 {
			t.Fatalf("job %d start %v, want 0", i, s)
		}
	}
	// Fifth job queues behind the earliest finisher.
	if s := p.Acquire(1, 0, 100); s != 100 {
		t.Fatalf("queued start %v, want 100", s)
	}
}

func TestSlotPoolGangScheduling(t *testing.T) {
	p := NewSlotPool(4)
	p.Acquire(3, 0, 50) // occupies 3 slots until t=50
	// A 2-slot gang cannot start until one of the three frees at 50,
	// even though one slot is idle the whole time.
	if s := p.Acquire(2, 0, 10); s != 50 {
		t.Fatalf("gang start %v, want 50", s)
	}
}

// TestSlotPoolNextFree: a k-slot request starts when the k-th
// earliest slot frees.
func TestSlotPoolNextFree(t *testing.T) {
	for k, want := range []Time{0, 10, 20} {
		p := NewSlotPool(3)
		p.Acquire(1, 0, 10)
		p.Acquire(1, 0, 20)
		if got := p.Acquire(k+1, 0, 1); got != want {
			t.Errorf("%d-slot start %v, want %v", k+1, got, want)
		}
	}
}

func TestSlotPoolPanics(t *testing.T) {
	p := NewSlotPool(2)
	for name, fn := range map[string]func(){
		"oversized":    func() { p.Acquire(3, 0, 1) },
		"zero":         func() { p.Acquire(0, 0, 1) },
		"negative-dur": func() { p.Acquire(1, 0, -1) },
		"bad-pool":     func() { NewSlotPool(0) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: expected panic", name)
				}
			}()
			fn()
		}()
	}
}

func TestCommCost(t *testing.T) {
	free := CommCost{}
	if d := free.Transfer(1 << 30); d != 0 {
		t.Errorf("free link transfer = %v, want 0", d)
	}
	link := CommCost{Latency: 0.001, Bandwidth: 1e6}
	if d := link.Transfer(0); d != 0.001 {
		t.Errorf("latency-only = %v", d)
	}
	got := link.Transfer(2e6)
	if math.Abs(float64(got)-2.001) > 1e-9 {
		t.Errorf("transfer = %v, want 2.001", got)
	}
}

func TestComputeCost(t *testing.T) {
	c := ComputeCost{UnitsPerSecond: 100}
	if d := c.Time(1000, 1); d != 10 {
		t.Errorf("1 core: %v, want 10", d)
	}
	if d := c.Time(1000, 4); d != 2.5 {
		t.Errorf("4 cores: %v, want 2.5", d)
	}
	defer func() {
		if recover() == nil {
			t.Error("zero-rate cost did not panic")
		}
	}()
	ComputeCost{}.Time(1, 1)
}

// Property: for any workload, a larger pool never finishes later
// (list scheduling on identical machines is monotone in machine count
// for single-slot jobs).
func TestSlotPoolMonotoneProperty(t *testing.T) {
	f := func(durs []uint8) bool {
		if len(durs) == 0 {
			return true
		}
		run := func(n int) Time {
			p := NewSlotPool(n)
			for _, d := range durs {
				p.Acquire(1, 0, Duration(d))
			}
			return p.Horizon()
		}
		return run(4) <= run(2) && run(2) <= run(1)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// Property: total busy time is conserved — the sum of slot horizons in
// a fresh pool equals the sum of durations when every job starts
// immediately (single slot, sequential).
func TestSlotPoolConservationProperty(t *testing.T) {
	f := func(durs []uint8) bool {
		p := NewSlotPool(1)
		var sum Duration
		for _, d := range durs {
			p.Acquire(1, 0, Duration(d))
			sum += Duration(d)
		}
		return p.Horizon() == Time(0).Add(sum)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}
