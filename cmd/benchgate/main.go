// Command benchgate compares a BENCH_results.json kernel section
// against a committed baseline and exits non-zero when any kernel
// regressed beyond tolerance. It is the teeth behind `make
// bench-gate`:
//
//	benchtab -kernels -json build/BENCH_results.json
//	benchgate -baseline BENCH_baseline.json -current build/BENCH_results.json
//
// Tolerances are per-column fractions of the baseline (0.5 = +50%).
// Allocation counts default tight because the workloads are fixed-seed
// and their allocation behaviour is deterministic for a given
// toolchain. Wall time is printed but not gated unless -tol-time is
// set: on a shared machine untouched kernels drift past any bound
// that would still catch a real slowdown.
// Improvements never fail the gate; re-baseline with `make
// bench-baseline` to lock them in.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"

	"rnascale/internal/kernelbench"
)

// benchDoc is the subset of the BENCH_results.json schema the gate
// reads. Unknown fields (runs, wallClockSeconds) are ignored.
type benchDoc struct {
	Schema  string               `json:"schema"`
	Env     *kernelbench.Env     `json:"env"`
	Kernels []kernelbench.Result `json:"kernels"`
}

func main() {
	var (
		baselinePath = flag.String("baseline", "BENCH_baseline.json", "committed baseline kernel measurements")
		currentPath  = flag.String("current", "build/BENCH_results.json", "freshly measured kernel results (benchtab -kernels)")
		tolTime      = flag.Float64("tol-time", kernelbench.DefaultTolerance().Time, "max ns/op growth as a fraction of baseline (0 = print the column, do not gate it)")
		tolAllocs    = flag.Float64("tol-allocs", kernelbench.DefaultTolerance().Allocs, "max allocs/op growth as a fraction of baseline")
		tolBytes     = flag.Float64("tol-bytes", kernelbench.DefaultTolerance().Bytes, "max bytes/op growth as a fraction of baseline")
	)
	flag.Parse()

	baseline, err := load(*baselinePath)
	if err != nil {
		fatal(err)
	}
	current, err := load(*currentPath)
	if err != nil {
		fatal(err)
	}
	if baseline.Env != nil && current.Env != nil && baseline.Env.GoVersion != current.Env.GoVersion {
		fmt.Printf("note: baseline built with %s, current with %s — alloc columns may shift across toolchains\n",
			baseline.Env.GoVersion, current.Env.GoVersion)
	}

	tol := kernelbench.Tolerance{Time: *tolTime, Allocs: *tolAllocs, Bytes: *tolBytes}
	table, err := kernelbench.Compare(baseline.Kernels, current.Kernels, tol)
	fmt.Print(table)
	if err != nil {
		fatal(err)
	}
	fmt.Println("bench-gate: ok")
}

func load(path string) (benchDoc, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return benchDoc{}, err
	}
	var doc benchDoc
	if err := json.Unmarshal(b, &doc); err != nil {
		return benchDoc{}, fmt.Errorf("%s: %w", path, err)
	}
	if len(doc.Kernels) == 0 {
		return benchDoc{}, fmt.Errorf("%s: no kernels section (generate with `benchtab -kernels`)", path)
	}
	return doc, nil
}

func fatal(err error) {
	fmt.Fprintf(os.Stderr, "benchgate: %v\n", err)
	os.Exit(1)
}
