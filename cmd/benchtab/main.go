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
// collection), so parallelism only changes wall-clock time.
//
// Experiments: table1 table2 table3 table4 table5 fig1 fig2 fig3
// fig4a fig4b fig5 backends ablations all
//
// backends is beyond the paper's figures: it sweeps the per-stage
// execution backend (on-demand / spot / serverless), prints the
// planner's cost–TTC Pareto frontier and validates every frontier
// point against the simulation.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"rnascale/internal/experiments"
)

func main() {
	var (
		exp     = flag.String("experiment", "all", "experiment to run (table1..table5, fig1..fig5, ablations, all)")
		scale   = flag.String("scale", "quick", "dataset scale: quick or full")
		workers = flag.Int("workers", 0, "sweep workers for experiment grids (<1 uses GOMAXPROCS)")
	)
	flag.Parse()
	experiments.Workers = *workers

	sc := experiments.Quick
	if strings.ToLower(*scale) == "full" {
		sc = experiments.Full
	}
	if err := write(os.Stdout, *exp, sc); err != nil {
		fmt.Fprintf(os.Stderr, "benchtab: %v\n", err)
		os.Exit(1)
	}
}

// order lists the experiments "all" runs, in print order.
var order = []string{"table1", "table2", "table3", "table4", "table5",
	"fig1", "fig2", "fig3", "fig4a", "fig4b", "fig5", "backends", "ablations"}

// write runs experiment exp ("all" runs every one in order) at scale
// sc and prints each table to w under a rule. It stops at the first
// unknown name or failing experiment; what came before stays printed.
func write(w io.Writer, exp string, sc experiments.Scale) error {
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
	names := []string{strings.ToLower(exp)}
	if names[0] == "all" {
		names = order
	}
	for _, name := range names {
		run, ok := runners[name]
		if !ok {
			return fmt.Errorf("unknown experiment %q (have %v)", name, order)
		}
		out, err := run()
		if err != nil {
			return fmt.Errorf("%s: %v", name, err)
		}
		fmt.Fprintln(w, "================================================================")
		fmt.Fprintln(w, out)
	}
	return nil
}
