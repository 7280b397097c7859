// Command bench is rnascale's whole-system benchmark: four workloads,
// end-to-end host-time/allocation/memory metrics measured with tracing
// off, and per-layer metrics from a separate traced run. See README.md
// in this directory; BENCHMARK.json at the repo root is its contract.
//
// With -workload it makes one run of one workload and prints the
// result object as the last line of standard output. Without, it runs
// every workload untraced then traced, each in a child process so
// memory peaks do not bleed, and writes <out>/results.json.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
)

const usageText = `usage:
  bench [-workload NAME] [-seed N] [-seconds S] [-trace 0|1] [-scale full|smoke] [-out DIR]
  bench -compare A.json B.json
`

type options struct {
	workload     string
	seed         int64
	seconds      float64
	trace        int
	scale        string
	out          string
	updateGolden string
}

func main() {
	var o options
	compareMode := flag.Bool("compare", false, "compare two results.json files (baseline, candidate) and exit non-zero past a bound")
	flag.StringVar(&o.workload, "workload", "", "run one workload: mamp_bglumae, mpi_pcrispa, replay_bglumae or gateway_burst (default: all, in child processes)")
	flag.Int64Var(&o.seed, "seed", 0, "workload seed: selects the read set drawn from each dataset and the gateway request order")
	flag.Float64Var(&o.seconds, "seconds", 20, "how long the measured phase of a run repeats its operation")
	flag.IntVar(&o.trace, "trace", 0, "1 makes the traced run (per-layer metrics, trace file) instead of the untraced one (end-to-end metrics)")
	flag.StringVar(&o.scale, "scale", "full", "full, or smoke: tiny dataset, 1 run, 3 replays, 20 submissions")
	flag.StringVar(&o.out, "out", "bench/out", "directory for results.json, traces and scratch files")
	flag.StringVar(&o.updateGolden, "update-golden", "", "write the digests this run saw to DIR/<workload>.json instead of checking them")
	flag.Usage = func() { fmt.Fprint(os.Stderr, usageText); flag.PrintDefaults() }
	flag.Parse()

	var err error
	switch {
	case *compareMode:
		if flag.NArg() != 2 {
			flag.Usage()
			os.Exit(2)
		}
		err = compareFiles(flag.Arg(0), flag.Arg(1))
	case flag.NArg() != 0 || (o.scale != "full" && o.scale != "smoke") || (o.trace != 0 && o.trace != 1):
		flag.Usage()
		os.Exit(2)
	case o.workload == "":
		err = runAll(o)
	default:
		var res result
		if res, err = runOne(o); err == nil {
			err = printResult(res)
		}
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}

// printResult prints the result object as the last line of standard
// output; a run with failed operations still prints it, then fails.
func printResult(res result) error {
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	if !res.Correct {
		return fmt.Errorf("%d of %d operations failed", res.Failed, res.Attempted)
	}
	return nil
}

// runOne makes one run of one workload in this process.
func runOne(o options) (result, error) {
	w, ok := findWorkload(o.workload)
	if !ok {
		return result{}, fmt.Errorf("unknown workload %q", o.workload)
	}
	smoke := o.scale == "smoke"
	e := &env{workload: w.name, seed: o.seed, seconds: o.seconds, maxOps: w.maxOps, smoke: smoke}
	if smoke {
		e.seconds, e.maxOps = math.Inf(1), w.smokeOps
	}
	var err error
	// Goldens hold the digests of seed 0 at full scale only.
	if e.check, err = newChecker(w.name, o.seed == 0 && !smoke && o.updateGolden == ""); err != nil {
		return result{}, err
	}
	if err := os.MkdirAll(o.out, 0o755); err != nil {
		return result{}, err
	}
	if e.workDir, err = os.MkdirTemp(o.out, "work."+w.name+"."); err != nil {
		return result{}, err
	}
	defer os.RemoveAll(e.workDir)

	var res result
	if o.trace == 1 {
		res, err = runTraced(w, e, o.out)
	} else {
		res, err = runUntraced(w, e)
	}
	if err == nil && o.updateGolden != "" {
		err = e.check.writeGolden(o.updateGolden)
	}
	return res, err
}

func runUntraced(w workload, e *env) (result, error) {
	m, err := w.measure(e)
	if err != nil {
		return result{}, err
	}
	vals, notes, err := m.endToEndValues(w, e.smoke)
	if err != nil {
		return result{}, err
	}
	res, err := newResult(endToEnd, vals, e.check.attempted, e.check.failed)
	if err != nil {
		return result{}, err
	}
	res.print(endToEnd, w.name, notes)
	return res, nil
}

func runTraced(w workload, e *env, out string) (result, error) {
	tr := &tracer{workload: w.name}
	vals, err := w.layers(e, tr)
	if err != nil {
		return result{}, err
	}
	if err := checkSpans(tr.spans); err != nil {
		return result{}, fmt.Errorf("trace of %s is malformed: %w", w.name, err)
	}
	vals["bench.spans"] = float64(len(tr.spans))
	res, err := newResult(perLayer, vals, e.check.attempted, e.check.failed)
	if err != nil {
		return result{}, err
	}
	res.print(perLayer, w.name, nil)
	printSelfTimes(w.name, tr.spans)
	path := filepath.Join(out, "trace."+w.name+".json")
	if err := writeChromeTrace(path, tr.spans); err != nil {
		return result{}, err
	}
	fmt.Printf("%-16s trace: %d spans -> %s\n", w.name, len(tr.spans), path)
	return res, nil
}
