package kernelbench

import (
	"strings"
	"testing"
)

// TestKernelsRun runs every registered kernel once (at reduced
// iteration counts) and checks the measurements are sane.
func TestKernelsRun(t *testing.T) {
	for _, k := range Kernels() {
		k := k
		t.Run(k.Name, func(t *testing.T) {
			k.Iters = 2
			r := Run(k)
			if r.Name != k.Name {
				t.Fatalf("Run named result %q, want %q", r.Name, k.Name)
			}
			if r.Iters != 2 {
				t.Fatalf("Iters = %d, want 2", r.Iters)
			}
			if r.NsPerOp <= 0 {
				t.Fatalf("NsPerOp = %v, want > 0", r.NsPerOp)
			}
			if r.AllocsPerOp < 0 || r.BytesPerOp < 0 {
				t.Fatalf("negative alloc columns: %+v", r.Measurement)
			}
		})
	}
}

// TestKernelNamesUnique guards the registry against copy-paste
// duplicates, which would make baseline comparison ambiguous.
func TestKernelNamesUnique(t *testing.T) {
	seen := map[string]bool{}
	for _, k := range Kernels() {
		if seen[k.Name] {
			t.Fatalf("duplicate kernel name %q", k.Name)
		}
		seen[k.Name] = true
		if k.Iters < 1 {
			t.Fatalf("kernel %q has Iters = %d", k.Name, k.Iters)
		}
	}
}

// TestWorkloadsDeterministic re-runs a kernel and checks the
// allocation columns — which depend only on the workload, not the
// machine — are stable to well within the gate's alloc tolerance.
// (Exact equality is too strong: the runtime occasionally charges an
// op with a map-growth or mutex-shim allocation, and under the race
// detector sync.Pool drops a random quarter of what is put back, so
// encoding/json's pooled encoder state — buffer and all — is
// re-allocated at random: on journal.append, at two allocations an
// append, that wobble is 2–3 % over a few ops, hence 24 ops and a 5 %
// line, half the gate's tightest tolerance.)
func TestWorkloadsDeterministic(t *testing.T) {
	for _, name := range []string{"seq.count_distinct", "journal.append"} {
		k, ok := find(name)
		if !ok {
			t.Fatalf("kernel %q not registered", name)
		}
		k.Iters = 24
		a, b := Run(k), Run(k)
		if drift(a.AllocsPerOp, b.AllocsPerOp) > 0.05 {
			t.Errorf("%s: allocsPerOp drifts across runs: %v vs %v", name, a.AllocsPerOp, b.AllocsPerOp)
		}
		if drift(a.BytesPerOp, b.BytesPerOp) > 0.05 {
			t.Errorf("%s: bytesPerOp drifts across runs: %v vs %v", name, a.BytesPerOp, b.BytesPerOp)
		}
	}
}

// drift is the relative difference between two measurements.
func drift(a, b float64) float64 {
	if a == b {
		return 0
	}
	max := a
	if b > max {
		max = b
	}
	d := a - b
	if d < 0 {
		d = -d
	}
	return d / max
}

func find(name string) (Kernel, bool) {
	for _, k := range Kernels() {
		if k.Name == name {
			return k, true
		}
	}
	return Kernel{}, false
}

// sink defeats dead-store elimination in allocation tests.
var sink []byte

func TestMeasure(t *testing.T) {
	m := Measure(10, func() {
		sink = make([]byte, 4096)
	})
	if m.Iters != 10 {
		t.Errorf("iters: %d", m.Iters)
	}
	if m.NsPerOp <= 0 {
		t.Errorf("nsPerOp: %v", m.NsPerOp)
	}
	// One 4 KiB slice per op: allocs ≈ 1, bytes ≥ 4096.
	if m.AllocsPerOp < 0.9 || m.AllocsPerOp > 2 {
		t.Errorf("allocsPerOp: %v", m.AllocsPerOp)
	}
	if m.BytesPerOp < 4096 {
		t.Errorf("bytesPerOp: %v", m.BytesPerOp)
	}

	defer func() {
		if recover() == nil {
			t.Error("Measure with 0 iters did not panic")
		}
	}()
	Measure(0, func() {})
}

func baselineFixture() []Result {
	return []Result{
		{Name: "seq.count_distinct", Measurement: Measurement{Iters: 10, NsPerOp: 1000, AllocsPerOp: 100, BytesPerOp: 4096}},
		{Name: "dbg.build", Measurement: Measurement{Iters: 10, NsPerOp: 2000, AllocsPerOp: 200, BytesPerOp: 8192}},
	}
}

// TestCompareGateFailsOnSyntheticSlowdown is the gate's self-test:
// inject a synthetic 2x slowdown into one kernel and assert the gate,
// asked to hold wall time to +50%, reports failure naming that kernel
// — and that by default the time column is printed, not gated.
func TestCompareGateFailsOnSyntheticSlowdown(t *testing.T) {
	base := baselineFixture()
	cur := baselineFixture()
	cur[0].NsPerOp *= 2

	if table, err := Compare(base, cur, DefaultTolerance()); err != nil || !strings.Contains(table, "100%") {
		t.Fatalf("default gate must print a 2x slowdown and pass: %v\n%s", err, table)
	}
	timed := DefaultTolerance()
	timed.Time = 0.5
	table, err := Compare(base, cur, timed)
	if err == nil {
		t.Fatalf("gate passed a 2x slowdown; table:\n%s", table)
	}
	if !strings.Contains(err.Error(), "seq.count_distinct") {
		t.Errorf("gate error does not name the regressed kernel: %v", err)
	}
	if !strings.Contains(err.Error(), "time") {
		t.Errorf("gate error does not name the regressed column: %v", err)
	}
	if !strings.Contains(table, "REGRESSED") {
		t.Errorf("delta table does not flag the regression:\n%s", table)
	}
}

func TestCompareGateFailsOnAllocGrowth(t *testing.T) {
	base := baselineFixture()
	cur := baselineFixture()
	cur[1].AllocsPerOp *= 1.5 // +50% against a +10% tolerance

	_, err := Compare(base, cur, DefaultTolerance())
	if err == nil {
		t.Fatal("gate passed a +50% alloc growth")
	}
	if !strings.Contains(err.Error(), "dbg.build") || !strings.Contains(err.Error(), "allocs") {
		t.Errorf("gate error = %v, want dbg.build allocs failure", err)
	}
}

func TestCompareGatePassesWithinTolerance(t *testing.T) {
	base := baselineFixture()
	cur := baselineFixture()
	cur[0].NsPerOp *= 1.2   // +20% < 50%
	cur[1].NsPerOp *= 0.5   // improvements never fail
	cur[1].AllocsPerOp -= 1 // nor do alloc drops

	table, err := Compare(base, cur, Tolerance{Time: 0.5, Allocs: 0.10, Bytes: 0.25})
	if err != nil {
		t.Fatalf("gate failed within tolerance: %v\n%s", err, table)
	}
	if !strings.Contains(table, "ok") {
		t.Errorf("delta table missing ok status:\n%s", table)
	}
}

// TestCompareGateFailsOnMissingKernel: deleting a kernel without
// re-baselining must fail, or a removed benchmark would silently
// shrink gate coverage.
func TestCompareGateFailsOnMissingKernel(t *testing.T) {
	base := baselineFixture()
	cur := baselineFixture()[:1]

	table, err := Compare(base, cur, DefaultTolerance())
	if err == nil {
		t.Fatal("gate passed with a baseline kernel missing from current")
	}
	if !strings.Contains(err.Error(), "dbg.build") {
		t.Errorf("gate error = %v, want missing dbg.build", err)
	}
	if !strings.Contains(table, "MISSING") {
		t.Errorf("delta table does not flag the missing kernel:\n%s", table)
	}
}

// TestCompareNewKernelIsNotFailure: a kernel added since the baseline
// has nothing to regress against; it is listed but does not fail.
func TestCompareNewKernelIsNotFailure(t *testing.T) {
	base := baselineFixture()[:1]
	cur := baselineFixture()

	table, err := Compare(base, cur, DefaultTolerance())
	if err != nil {
		t.Fatalf("gate failed on a new kernel: %v", err)
	}
	if !strings.Contains(table, "new") {
		t.Errorf("delta table does not list the new kernel:\n%s", table)
	}
}

func TestCaptureEnv(t *testing.T) {
	env := CaptureEnv(7)
	if env.GoVersion == "" || env.GOOS == "" || env.GOARCH == "" {
		t.Fatalf("incomplete env: %+v", env)
	}
	if env.GOMAXPROCS < 1 {
		t.Fatalf("GOMAXPROCS = %d", env.GOMAXPROCS)
	}
	if env.Workers != 7 {
		t.Fatalf("Workers = %d, want 7", env.Workers)
	}
}

// TestCompareGateZeroAllocKernel: a kernel that allocates nothing
// passes when the runtime's background allocations leak a fraction of
// an allocation into the measurement, and fails when it starts
// allocating once per op.
func TestCompareGateZeroAllocKernel(t *testing.T) {
	base := []Result{{Name: "seq.canonical_scan", Measurement: Measurement{Iters: 200, NsPerOp: 1000}}}
	cur := []Result{{Name: "seq.canonical_scan", Measurement: Measurement{Iters: 200, NsPerOp: 1000, AllocsPerOp: 0.005, BytesPerOp: 0.1}}}
	if table, err := Compare(base, cur, DefaultTolerance()); err != nil {
		t.Fatalf("gate failed on background allocation noise: %v\n%s", err, table)
	}
	cur[0].AllocsPerOp, cur[0].BytesPerOp = 1, 16
	if _, err := Compare(base, cur, DefaultTolerance()); err == nil || !strings.Contains(err.Error(), "allocs") {
		t.Fatalf("gate passed a zero-alloc kernel that now allocates per op: %v", err)
	}
}
