package main

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// kernel renders one kernel's line as `go test -bench -benchmem`
// prints it at GOMAXPROCS 2.
func kernel(name string, ns, bytes, allocs int) string {
	return fmt.Sprintf("BenchmarkKernels/%s-2\t%8d\t%10d ns/op\t%8d B/op\t%8d allocs/op", name, 10, ns, bytes, allocs)
}

// output wraps benchmark lines in the header and trailer go test
// prints around them.
func output(lines ...string) string {
	return "goos: linux\ngoarch: amd64\npkg: rnascale/internal/kernelbench\ncpu: Test CPU\n" +
		strings.Join(lines, "\n") + "\nPASS\nok  \trnascale/internal/kernelbench\t3.021s\n"
}

var (
	countDistinct = kernel("seq.count_distinct", 1000, 4096, 100)
	dbgBuild      = kernel("dbg.build", 2000, 8192, 200)
)

// writeFile writes text to a file named name under dir.
func writeFile(t *testing.T, dir, name, text string) string {
	t.Helper()
	path := filepath.Join(dir, name)
	if err := os.WriteFile(path, []byte(text), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// gate runs the comparer over two outputs the way main does.
func gate(t *testing.T, baseline, current string) (string, error) {
	t.Helper()
	dir := t.TempDir()
	base, err := load(writeFile(t, dir, "BENCH_baseline.txt", baseline))
	if err != nil {
		t.Fatalf("loading baseline: %v", err)
	}
	cur, err := load(writeFile(t, dir, "kernels.txt", current))
	if err != nil {
		return "", err
	}
	return compare(base, cur)
}

// TestCompareGatePrintsSyntheticSlowdown: a 2x slowdown is printed in
// the time column but never fails the gate.
func TestCompareGatePrintsSyntheticSlowdown(t *testing.T) {
	table, err := gate(t, output(countDistinct, dbgBuild),
		output(kernel("seq.count_distinct", 2000, 4096, 100), dbgBuild))
	if err != nil || !strings.Contains(table, "100%") {
		t.Fatalf("gate must print a 2x slowdown and pass: %v\n%s", err, table)
	}
}

func TestCompareGateFailsOnAllocGrowth(t *testing.T) {
	table, err := gate(t, output(countDistinct, dbgBuild),
		output(countDistinct, kernel("dbg.build", 2000, 8192, 300))) // +50% against a +10% tolerance
	if err == nil {
		t.Fatalf("gate passed a +50%% alloc growth:\n%s", table)
	}
	if !strings.Contains(err.Error(), "dbg.build") || !strings.Contains(err.Error(), "allocs") {
		t.Errorf("gate error = %v, want dbg.build allocs failure", err)
	}
	if !strings.Contains(table, "REGRESSED") {
		t.Errorf("delta table does not flag the regression:\n%s", table)
	}
}

func TestCompareGatePassesWithinTolerance(t *testing.T) {
	table, err := gate(t, output(countDistinct, dbgBuild), output(
		kernel("seq.count_distinct", 1200, 4915, 109), // +9% allocs, +20% bytes
		kernel("dbg.build", 1000, 8000, 199),          // improvements never fail
	))
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
	table, err := gate(t, output(countDistinct, dbgBuild), output(countDistinct))
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
	table, err := gate(t, output(countDistinct), output(countDistinct, dbgBuild))
	if err != nil {
		t.Fatalf("gate failed on a new kernel: %v", err)
	}
	if !strings.Contains(table, "new") {
		t.Errorf("delta table does not list the new kernel:\n%s", table)
	}
}

// TestCompareGateZeroAllocKernel: a kernel that allocates nothing
// passes when the runtime's background allocations leak a few bytes
// into the measurement, and fails when it starts allocating once per
// op.
func TestCompareGateZeroAllocKernel(t *testing.T) {
	base := output(kernel("seq.canonical_scan", 1000, 0, 0))
	if table, err := gate(t, base, output(kernel("seq.canonical_scan", 1000, 4, 0))); err != nil {
		t.Fatalf("gate failed on background allocation noise: %v\n%s", err, table)
	}
	if _, err := gate(t, base, output(kernel("seq.canonical_scan", 1000, 16, 1))); err == nil || !strings.Contains(err.Error(), "allocs") {
		t.Fatalf("gate passed a zero-alloc kernel that now allocates per op: %v", err)
	}
}

// TestLoadStripsProcsSuffix: go test names a benchmark without the
// -GOMAXPROCS suffix at -cpu 1, so a baseline recorded on two cores
// must compare cleanly against a current run on one.
func TestLoadStripsProcsSuffix(t *testing.T) {
	table, err := gate(t, output(countDistinct, dbgBuild), output(
		strings.Replace(countDistinct, "-2\t", "\t", 1),
		strings.Replace(dbgBuild, "-2\t", "\t", 1),
	))
	if err != nil {
		t.Fatalf("gate failed across GOMAXPROCS suffixes: %v\n%s", err, table)
	}
	if strings.Contains(table, "new") || strings.Contains(table, "MISSING") {
		t.Errorf("suffixed and unsuffixed names did not match:\n%s", table)
	}
}

// TestLoadRejectsOutputWithoutKernels: a current output with no
// BenchmarkKernels lines (a -bench pattern that matched nothing, or
// the wrong file) fails naming the file instead of passing vacuously.
func TestLoadRejectsOutputWithoutKernels(t *testing.T) {
	_, err := gate(t, output(countDistinct), "PASS\nok  \trnascale/internal/kernelbench\t0.012s\n")
	if err == nil || !strings.Contains(err.Error(), "kernels.txt") {
		t.Fatalf("gate error = %v, want one naming kernels.txt", err)
	}
}

// TestLoadRejectsMalformedLine: a kernel line the comparer cannot read
// fails the gate instead of being skipped, which would turn into a
// MISSING kernel at best and a silently ungated one at worst.
func TestLoadRejectsMalformedLine(t *testing.T) {
	for _, tc := range []struct{ name, line string }{
		{"no benchmem", "BenchmarkKernels/dbg.build-2\t10\t2000 ns/op"},
		{"name only", "BenchmarkKernels/dbg.build-2"},
		{"odd fields", "BenchmarkKernels/dbg.build-2\t10\t2000 ns/op\t8192"},
		{"bad iterations", "BenchmarkKernels/dbg.build-2\tten\t2000 ns/op\t8192 B/op\t200 allocs/op"},
		{"bad value", "BenchmarkKernels/dbg.build-2\t10\t2000 ns/op\t8k B/op\t200 allocs/op"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			_, err := gate(t, output(countDistinct), output(countDistinct, tc.line))
			if err == nil || !strings.Contains(err.Error(), "kernels.txt:") {
				t.Fatalf("gate error = %v, want one naming a line of kernels.txt", err)
			}
		})
	}
}
