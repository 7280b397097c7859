// Command benchgate compares two `go test -bench -benchmem` outputs of
// internal/kernelbench's BenchmarkKernels, a baseline and a current
// one, and exits non-zero when any kernel regressed beyond tolerance
// or is missing. It is the teeth behind `make bench-gate`:
//
//	go test -run '^$' -bench Kernels -benchmem -benchtime 10x ./internal/kernelbench > build/kernels.txt
//	benchgate BENCH_baseline.txt build/kernels.txt
//
// Allocation counts are held tight because the workloads are
// fixed-seed and their allocation behaviour is deterministic for a
// given toolchain. Wall time is printed but never gated: on a shared
// machine untouched kernels drift past any bound that would still
// catch a real slowdown. A kernel new since the baseline passes, and
// improvements never fail the gate; re-baseline with `make
// bench-baseline` to lock them in.
package main

import (
	"bufio"
	"fmt"
	"os"
	"regexp"
	"strconv"
	"strings"
)

// The gate's tolerances: the growth allowed, as a fraction of the baseline.
const (
	allocsTolerance = 0.10
	bytesTolerance  = 0.25
)

// result is one kernel's line of benchmark output.
type result struct {
	name                             string
	nsPerOp, allocsPerOp, bytesPerOp float64
}

func main() {
	if len(os.Args) != 3 {
		fmt.Fprintln(os.Stderr, "usage: benchgate BASELINE CURRENT")
		os.Exit(2)
	}
	baseline, err := load(os.Args[1])
	if err != nil {
		fatal(err)
	}
	current, err := load(os.Args[2])
	if err != nil {
		fatal(err)
	}
	table, err := compare(baseline, current)
	fmt.Print(table)
	if err != nil {
		fatal(err)
	}
	fmt.Println("bench-gate: ok")
}

// kernelLine matches one kernel's line of `go test -bench -benchmem`
// output. The optional -N after the name is the GOMAXPROCS suffix go
// test adds when GOMAXPROCS is not 1; dropping it lets outputs recorded
// at different core counts compare.
var kernelLine = regexp.MustCompile(`^BenchmarkKernels/(\S+?)(?:-\d+)?\s+\d+\s+(\d+(?:\.\d+)?) ns/op\s+(\d+) B/op\s+(\d+) allocs/op$`)

// load reads the kernel lines of a `go test -bench -benchmem` output
// in file order, ignoring every line not starting BenchmarkKernels/.
// A kernel line kernelLine does not match and an output with no kernel
// lines are errors.
func load(path string) ([]result, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var out []result
	sc := bufio.NewScanner(f)
	for n := 1; sc.Scan(); n++ {
		if !strings.HasPrefix(sc.Text(), "BenchmarkKernels/") {
			continue
		}
		m := kernelLine.FindStringSubmatch(sc.Text())
		if m == nil {
			return nil, fmt.Errorf("%s:%d: malformed benchmark line %q (want ns/op, B/op and allocs/op)", path, n, sc.Text())
		}
		// The pattern admits only decimal numbers, which always parse.
		ns, _ := strconv.ParseFloat(m[2], 64)
		bytes, _ := strconv.ParseFloat(m[3], 64)
		allocs, _ := strconv.ParseFloat(m[4], 64)
		out = append(out, result{name: m[1], nsPerOp: ns, allocsPerOp: allocs, bytesPerOp: bytes})
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("%s: no BenchmarkKernels/ lines", path)
	}
	return out, nil
}

// compare judges current kernel results against a baseline. It
// returns a human-readable delta table and, when any baseline kernel
// regressed beyond tolerance or is missing from current, an error
// listing every failure. Kernels present only in current are listed
// as new and do not fail the gate (they have no baseline yet).
func compare(baseline, current []result) (string, error) {
	cur := make(map[string]result, len(current))
	for _, r := range current {
		cur[r.name] = r
	}
	base := make(map[string]bool, len(baseline))

	var b strings.Builder
	fmt.Fprintf(&b, "%-24s %12s %12s %8s %8s %8s  %s\n",
		"kernel", "base ns/op", "cur ns/op", "Δtime", "Δallocs", "Δbytes", "status")
	var failures []string
	for _, br := range baseline {
		base[br.name] = true
		cr, ok := cur[br.name]
		if !ok {
			fmt.Fprintf(&b, "%-24s %12.0f %12s %8s %8s %8s  MISSING\n",
				br.name, br.nsPerOp, "-", "-", "-", "-")
			failures = append(failures, fmt.Sprintf("%s: missing from current results", br.name))
			continue
		}
		dTime := delta(br.nsPerOp, cr.nsPerOp, 1)
		dAllocs := delta(br.allocsPerOp, cr.allocsPerOp, 1)
		dBytes := delta(br.bytesPerOp, cr.bytesPerOp, 4096)
		status := "ok"
		var why []string
		if dAllocs > allocsTolerance {
			why = append(why, fmt.Sprintf("allocs %+.0f%% > %+.0f%%", dAllocs*100, allocsTolerance*100))
		}
		if dBytes > bytesTolerance {
			why = append(why, fmt.Sprintf("bytes %+.0f%% > %+.0f%%", dBytes*100, bytesTolerance*100))
		}
		if len(why) > 0 {
			status = "REGRESSED"
			failures = append(failures, fmt.Sprintf("%s: %s", br.name, strings.Join(why, ", ")))
		}
		fmt.Fprintf(&b, "%-24s %12.0f %12.0f %7.0f%% %7.0f%% %7.0f%%  %s\n",
			br.name, br.nsPerOp, cr.nsPerOp, dTime*100, dAllocs*100, dBytes*100, status)
	}
	for _, r := range current {
		if !base[r.name] {
			fmt.Fprintf(&b, "%-24s %12s %12.0f %8s %8s %8s  new\n",
				r.name, "-", r.nsPerOp, "-", "-", "-")
		}
	}
	if len(failures) > 0 {
		return b.String(), fmt.Errorf("%d kernel(s) regressed beyond tolerance:\n  %s",
			len(failures), strings.Join(failures, "\n  "))
	}
	return b.String(), nil
}

// delta returns the growth from base to cur as a fraction of base,
// or of floor if base is smaller. The floors — one allocation, one
// page — are what keep a kernel that allocates nothing gateable: the
// runtime's own background allocations put a few bytes per op into a
// measurement now and then, which is an unbounded growth of zero but
// a tenth of a percent of one page.
func delta(base, cur, floor float64) float64 {
	return (cur - base) / max(base, floor)
}

func fatal(err error) {
	fmt.Fprintf(os.Stderr, "benchgate: %v\n", err)
	os.Exit(1)
}
