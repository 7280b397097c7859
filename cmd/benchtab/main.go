// Command benchtab regenerates the paper's tables and figures from
// the reproduction's components, printing each alongside the paper's
// reported values for shape comparison.
//
// Usage:
//
//	benchtab -experiment all               # everything, quick scale
//	benchtab -experiment table3 -scale full
//	benchtab -experiment fig5 -workers 4
//
// -workers fans experiment grids across the sweep engine; the printed
// tables are byte-identical for every worker count (ordered
// collection), so parallelism only changes wall-clock time — which is
// recorded in the -json document for trajectory tracking.
//
// Experiments: table1 table2 table3 table4 table5 fig1 fig2 fig3
// fig4a fig4b fig5 backends ablations all
//
// backends is beyond the paper's figures: it sweeps the per-stage
// execution backend (on-demand / spot / serverless), prints the
// planner's cost–TTC Pareto frontier and validates every frontier
// point against the simulation.
//
// Alongside the printed tables, benchtab executes a canonical set of
// quick pipeline runs and writes their observability snapshots
// (per-stage TTC and cost) to -json (default BENCH_results.json), so
// the performance trajectory is machine-comparable across revisions.
//
// -kernels switches to the per-kernel microbenchmark mode: instead of
// experiment tables it runs internal/kernelbench's fixed-seed kernels
// (k-mer counting, DBG build, FASTX parsing, slot scheduling, MPI
// collectives, journal appends) and writes their
// {nsPerOp, allocsPerOp, bytesPerOp} plus an environment block into
// the kernels section of -json. `make bench-gate` compares that
// document against the committed BENCH_baseline.json.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"rnascale/internal/core"
	"rnascale/internal/experiments"
	"rnascale/internal/kernelbench"
	"rnascale/internal/obs"
	"rnascale/internal/simdata"
	"rnascale/internal/sweep"
)

func main() {
	var (
		exp      = flag.String("experiment", "all", "experiment to run (table1..table5, fig1..fig5, ablations, all)")
		scale    = flag.String("scale", "quick", "dataset scale: quick or full")
		workers  = flag.Int("workers", 0, "sweep workers for experiment grids (<1 uses GOMAXPROCS)")
		jsonPath = flag.String("json", "BENCH_results.json", "write machine-readable stage TTC/cost snapshots here (empty disables)")
		kernels  = flag.Bool("kernels", false, "run per-kernel microbenchmarks instead of experiments; record them in -json")
	)
	flag.Parse()
	experiments.Workers = *workers

	if *kernels {
		if err := runKernels(*jsonPath, *workers); err != nil {
			fmt.Fprintf(os.Stderr, "benchtab: %v\n", err)
			os.Exit(1)
		}
		return
	}

	sc := experiments.Quick
	if strings.ToLower(*scale) == "full" {
		sc = experiments.Full
	}

	runners := map[string]func() (string, error){
		"table1": func() (string, error) { return experiments.Table1(), nil },
		"table2": experiments.Table2,
		"table3": func() (string, error) { _, s, err := experiments.Table3(sc); return s, err },
		"table4": func() (string, error) { _, s := experiments.Table4(); return s, nil },
		"table5": func() (string, error) { _, s, err := experiments.Table5(sc); return s, err },
		"fig1":   func() (string, error) { return experiments.Fig1(), nil },
		"fig2":   func() (string, error) { return experiments.Fig2(), nil },
		"fig3":   func() (string, error) { _, s, err := experiments.Fig3(sc, nil); return s, err },
		"fig4a":  func() (string, error) { _, s, err := experiments.Fig4a(sc); return s, err },
		"fig4b":  func() (string, error) { _, s, err := experiments.Fig4b(sc); return s, err },
		"fig5":   func() (string, error) { _, s, err := experiments.Fig5(sc); return s, err },
		"backends": func() (string, error) {
			_, s, err := experiments.BackendGrid(sc)
			return s, err
		},
		"ablations": func() (string, error) {
			var b strings.Builder
			for _, fn := range []func(experiments.Scale) (string, error){
				experiments.AblationSchemes,
				experiments.AblationDynamicSizing,
				experiments.AblationHadoopTax,
				experiments.AblationJobShape,
				experiments.AblationPlanner,
				experiments.AblationNetwork,
			} {
				s, err := fn(sc)
				if err != nil {
					return "", err
				}
				b.WriteString(s)
				b.WriteString("\n")
			}
			return b.String(), nil
		},
	}
	order := []string{"table1", "table2", "table3", "table4", "table5",
		"fig1", "fig2", "fig3", "fig4a", "fig4b", "fig5", "backends", "ablations"}

	names := []string{strings.ToLower(*exp)}
	if names[0] == "all" {
		names = order
	}
	start := time.Now() //rnavet:allow wallclock — bench records real elapsed seconds for throughput tracking
	for _, name := range names {
		run, ok := runners[name]
		if !ok {
			fmt.Fprintf(os.Stderr, "benchtab: unknown experiment %q (have %v)\n", name, order)
			os.Exit(1)
		}
		out, err := run()
		if err != nil {
			fmt.Fprintf(os.Stderr, "benchtab: %s: %v\n", name, err)
			os.Exit(1)
		}
		fmt.Println("================================================================")
		fmt.Println(out)
	}

	if *jsonPath != "" {
		//rnavet:allow wallclock — wall-clock seconds are the quantity BENCH_results.json exists to record
		if err := writeBenchResults(*jsonPath, *workers, time.Since(start).Seconds()); err != nil {
			fmt.Fprintf(os.Stderr, "benchtab: %v\n", err)
			os.Exit(1)
		}
		fmt.Printf("wrote %s\n", *jsonPath)
	}
}

// benchSchema identifies the BENCH_results.json format. v2 added the
// env and kernels sections and changed workers from the raw flag
// value to the resolved worker count.
const benchSchema = "rnascale.bench-results/v2"

// benchRun is one canonical configuration tracked across revisions.
type benchRun struct {
	Name     string           `json:"name"`
	Snapshot *obs.RunSnapshot `json:"snapshot"`
}

// benchResults is the BENCH_results.json document. WallClockSeconds
// is the real elapsed time of the pass (virtual TTCs live in the
// snapshots), and Workers is the resolved sweep worker count — not
// the raw flag, which is 0 for "use GOMAXPROCS" — so throughput is
// comparable across revisions. Runs is populated in experiment mode,
// Kernels in -kernels mode; Env is recorded in both.
type benchResults struct {
	Schema           string               `json:"schema"`
	Workers          int                  `json:"workers"`
	WallClockSeconds float64              `json:"wallClockSeconds"`
	Runs             []benchRun           `json:"runs,omitempty"`
	Env              *kernelbench.Env     `json:"env,omitempty"`
	Kernels          []kernelbench.Result `json:"kernels,omitempty"`
}

// runKernels is the -kernels mode: measure every registered kernel at
// its fixed seed and iteration count and write the results with the
// environment block that makes them comparable.
func runKernels(path string, workers int) error {
	start := time.Now() //rnavet:allow wallclock — kernel benchmarks measure real elapsed time by definition
	results := kernelbench.RunAll()
	fmt.Printf("%-22s %12s %12s %14s\n", "kernel", "ns/op", "allocs/op", "bytes/op")
	for _, r := range results {
		fmt.Printf("%-22s %12.0f %12.1f %14.1f\n", r.Name, r.NsPerOp, r.AllocsPerOp, r.BytesPerOp)
	}
	if path == "" {
		return nil
	}
	env := kernelbench.CaptureEnv(sweep.ResolveWorkers(workers))
	doc := benchResults{
		Schema:  benchSchema,
		Workers: env.Workers,
		//rnavet:allow wallclock — wall-clock seconds are the quantity BENCH_results.json exists to record
		WallClockSeconds: time.Since(start).Seconds(),
		Env:              &env,
		Kernels:          results,
	}
	if err := writeJSON(path, doc); err != nil {
		return err
	}
	fmt.Printf("wrote %s\n", path)
	return nil
}

// writeBenchResults executes the canonical quick runs on the sweep
// engine and dumps their snapshots in fixed order. The set spans the
// design space's corners: the paper's sample setup (S2 dynamic), its
// S1 counterpart, and the conventional single-pilot baseline.
func writeBenchResults(path string, workers int, wallSeconds float64) error {
	cases := []struct {
		name    string
		scheme  core.MatchingScheme
		pattern core.WorkflowPattern
	}{
		{"conventional", core.S1, core.Conventional},
		{"static-S1", core.S1, core.DistributedStatic},
		{"dynamic-S1", core.S1, core.DistributedDynamic},
		{"dynamic-S2", core.S2, core.DistributedDynamic},
	}
	runs, err := sweep.Map(len(cases), func(i int) (benchRun, error) {
		c := cases[i]
		ds, err := simdata.GenerateCached(simdata.Tiny())
		if err != nil {
			return benchRun{}, err
		}
		cfg := core.DefaultConfig()
		cfg.Scheme = c.scheme
		cfg.Pattern = c.pattern
		cfg.ContrailNodes = 2
		rep, err := core.Run(ds, cfg)
		if err != nil {
			return benchRun{}, fmt.Errorf("bench run %s: %w", c.name, err)
		}
		return benchRun{Name: c.name, Snapshot: rep.Snapshot}, nil
	}, sweep.Options{Workers: workers})
	if err != nil {
		return err
	}
	env := kernelbench.CaptureEnv(sweep.ResolveWorkers(workers))
	doc := benchResults{
		Schema:           benchSchema,
		Workers:          env.Workers,
		WallClockSeconds: wallSeconds,
		Runs:             runs,
		Env:              &env,
	}
	return writeJSON(path, doc)
}

func writeJSON(path string, doc any) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	enc.SetIndent("", "  ")
	if err := enc.Encode(doc); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
