package kernelbench

import (
	"os"
	"runtime"
	"testing"
)

// TestMain removes the inputs file-backed kernels wrote.
func TestMain(m *testing.M) {
	code := m.Run()
	if dir, err := scratchDir(); err == nil {
		os.RemoveAll(dir)
	}
	os.Exit(code)
}

// BenchmarkKernels measures every registered kernel. Setup runs once
// per kernel outside b.Run, so the workload's allocations never reach
// the sub-benchmark's counters and the N=1 calibration run is the op's
// warm-up. `make bench-gate` runs it at -benchtime 10x, and
// cmd/benchgate compares the output with BENCH_baseline.txt.
func BenchmarkKernels(b *testing.B) {
	for _, k := range Kernels() {
		op := k.Setup()
		b.Run(k.Name, func(b *testing.B) {
			b.ReportAllocs()
			for range b.N {
				op()
			}
		})
	}
}

// TestKernelsRun runs every registered kernel's op once, so the sanity
// panics inside each op fire in the ordinary test suite.
func TestKernelsRun(t *testing.T) {
	for _, k := range Kernels() {
		t.Run(k.Name, func(t *testing.T) { k.Setup()() })
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

// TestWorkloadsDeterministic re-measures a kernel and checks the
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
		op := k.Setup()
		aAllocs, aBytes := measure(op)
		bAllocs, bBytes := measure(op)
		if drift(aAllocs, bAllocs) > 0.05 {
			t.Errorf("%s: allocs/op drifts across runs: %v vs %v", name, aAllocs, bAllocs)
		}
		if drift(aBytes, bBytes) > 0.05 {
			t.Errorf("%s: bytes/op drifts across runs: %v vs %v", name, aBytes, bBytes)
		}
	}
}

// measure returns op's allocations and allocated bytes per call over
// 24 calls. testing.AllocsPerRun adds a warm-up call of its own, which
// the bytes average spreads over all 25; the first call's one-off
// allocations fall before both windows.
func measure(op func()) (allocs, bytes float64) {
	const runs = 24
	op()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	allocs = testing.AllocsPerRun(runs, op)
	runtime.ReadMemStats(&after)
	return allocs, float64(after.TotalAlloc-before.TotalAlloc) / (runs + 1)
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
