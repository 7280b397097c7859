// Command rnapipe runs the full pilot-based RNA-seq pipeline on a
// built-in dataset profile and prints the sample-run-style report:
// per-stage virtual durations, the cloud bill, assembly statistics
// and (optionally) DETONATE quality metrics against the synthetic
// ground truth.
//
// Usage:
//
//	rnapipe -profile tiny -assemblers ray,abyss,contrail -scheme S2 \
//	        -pattern dynamic -evaluate
//
// The run-describing flags fill one rnascale.Request, the same value a
// gateway submission carries, and Request.Config decodes it; a flag
// the decoder refuses exits 1 before any dataset is generated.
//
// -backends moves stages onto the spot market or serverless functions
// ("PA=spot,PB=serverless", or a bare "spot" for every stage);
// -frontier sweeps every per-stage backend assignment and prints the
// planner's cost–TTC Pareto frontier without running anything.
//
// -journal makes the run resumable, -resume continues an interrupted
// run — repairing a crash-torn journal tail first — and
// -verify-journal audits a journal's tamper-evident hash chain without
// running anything.
//
// -deadline imposes a virtual-time deadline (remaining work is
// cancelled at the cutoff), -retry-budget caps run-wide unit retries,
// and -max-cost refuses to start a run whose predicted bill exceeds
// the budget. A run cut off at its deadline, or refused by the cost
// preflight, exits with code 3.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"rnascale"
	"rnascale/internal/obs"
	"rnascale/internal/simdata"
)

func main() {
	var req rnascale.Request
	flag.StringVar(&req.Profile, "profile", "tiny", "dataset profile: tiny, bglumae, pcrispa, bglumae-paired")
	assemblers := flag.String("assemblers", "ray,abyss,contrail", "comma-separated assembler list (MAMP when >1)")
	flag.StringVar(&req.Scheme, "scheme", "S2", "pilot/VM matching scheme: S1 or S2")
	flag.StringVar(&req.Pattern, "pattern", "dynamic", "workflow pattern: conventional, static, dynamic")
	flag.StringVar(&req.InstanceType, "instance-type", "c3.2xlarge", "instance type for static patterns")
	flag.IntVar(&req.ContrailNodes, "contrail-nodes", 16, "nodes per Contrail job")
	flag.IntVar(&req.MPINodes, "mpi-nodes", 1, "nodes per MPI assembly job")
	flag.BoolVar(&req.Evaluate, "evaluate", true, "score the final transcripts against ground truth")
	flag.BoolVar(&req.Consensus, "consensus", false, "validate contigs by cross-assembler consensus before merging")
	flag.IntVar(&req.PreprocessShards, "preprocess-shards", 1, "data-parallel pre-processing shard count")
	flag.StringVar(&req.Backends, "backends", "", `per-stage execution backends, e.g. "PA=spot,PB=serverless" or "spot" for all stages (default on-demand)`)
	flag.StringVar(&req.Faults, "faults", "", `fault-injection spec, e.g. "crash:p=0.1,after=600;slowxfer:x=0.5"`)
	flag.Uint64Var(&req.FaultSeed, "seed", 1, "fault-injection and spot-market PRNG seed (same seed replays identically)")
	deadline := flag.Duration("deadline", 0, "virtual-time run deadline, e.g. 2h30m (0 = none); a run cut off at the deadline exits 3")
	flag.IntVar(&req.RetryBudget, "retry-budget", 0, "run-wide unit retry budget (0 = unlimited); over-budget retries fail the stage")
	flag.Float64Var(&req.MaxCostUSD, "max-cost", 0, "refuse to run when the predicted bill exceeds this USD budget (exit 3)")
	var (
		planOnly   = flag.Bool("plan", false, "predict stage TTCs and cost, then exit without running")
		frontier   = flag.Bool("frontier", false, "sweep every per-stage backend assignment and print the planner's cost-TTC Pareto frontier, then exit without running")
		verbose    = flag.Bool("v", false, "print per-assembly details and the pilot timeline")
		traceOut   = flag.String("trace-out", "", "write a Chrome trace_event JSON of the run to this file (- for stdout)")
		metricsOut = flag.String("metrics", "", "write the run's metrics in Prometheus text format to this file (- for stdout)")
		spans      = flag.Bool("spans", false, "print the run's span tree after the summary")
		journalOut = flag.String("journal", "", "write a resumable run journal to this file")
		resumePath = flag.String("resume", "", "resume an interrupted run from its journal (pass the original run's flags too)")
		verifyPath = flag.String("verify-journal", "", "verify a journal's tamper-evident hash chain, print the report and exit (0 = clean, 2 = damaged)")
	)
	flag.Parse()
	if *verifyPath != "" {
		vr, err := rnascale.VerifyJournal(*verifyPath)
		if err != nil {
			fatal(err)
		}
		fmt.Println("journal:", vr)
		if !vr.Clean() {
			os.Exit(2)
		}
		return
	}
	if *journalOut != "" && *resumePath != "" {
		fatal(fmt.Errorf("-resume continues its journal in place; drop -journal"))
	}

	req.Assemblers = splitList(*assemblers)
	req.DeadlineSeconds = deadline.Seconds()
	cfg, prof, err := req.Config()
	if err != nil {
		fatal(err)
	}
	ds, err := simdata.Generate(prof)
	if err != nil {
		fatal(err)
	}

	fmt.Printf("rnapipe: %s (%d reads, %d transcripts ground truth)\n",
		ds.Profile.Organism, len(ds.Reads.Reads), len(ds.Transcripts))
	if *frontier {
		candidates := rnascale.ExpandBackends(cfg, nil)
		plans, err := rnascale.Frontier(ds, candidates)
		if err != nil {
			fatal(err)
		}
		fmt.Printf("cost-TTC frontier over %d backend assignments (no execution):\n", len(candidates))
		for _, p := range plans {
			fmt.Println(" ", p)
		}
		return
	}
	if *planOnly {
		plan, err := rnascale.Predict(ds, cfg)
		if err != nil {
			fatal(err)
		}
		fmt.Println("a-priori plan (no execution):")
		fmt.Println(" ", plan)
		return
	}
	if req.MaxCostUSD > 0 {
		// Admission-style preflight: a run the planner prices over
		// budget is refused before buying any compute.
		plan, perr := rnascale.Predict(ds, cfg)
		if perr != nil {
			fatal(perr)
		}
		if plan.CostUSD > req.MaxCostUSD {
			fmt.Fprintf(os.Stderr, "rnapipe: %s: predicted cost $%.2f exceeds -max-cost $%.2f\n",
				rnascale.OutcomeShed, plan.CostUSD, req.MaxCostUSD)
			os.Exit(3)
		}
	}
	o := obs.New()
	cfg.Obs = o
	var rep *rnascale.Report
	if *resumePath != "" {
		rep, err = rnascale.Resume(ds, cfg, *resumePath)
	} else {
		if *journalOut != "" {
			w, jerr := rnascale.CreateJournal(*journalOut)
			if jerr != nil {
				fatal(jerr)
			}
			// Close flushes the final group commit; an error means the
			// journal tail may not be durable, which must not look like
			// a successful resumable run.
			defer func() {
				if cerr := w.Close(); cerr != nil {
					fatal(cerr)
				}
			}()
			cfg.Journal = w
		}
		rep, err = rnascale.Run(ds, cfg)
	}
	if *traceOut != "" {
		if werr := writeTo(*traceOut, o.Tracer.WriteChromeTrace); werr != nil {
			fatal(werr)
		}
	}
	if *metricsOut != "" {
		if werr := writeTo(*metricsOut, o.Metrics.WritePrometheus); werr != nil {
			fatal(werr)
		}
	}
	if *spans {
		fmt.Println("span tree:")
		o.Tracer.WriteTree(os.Stdout)
	}
	// A driver crash leaves no finished report to print — the journal
	// is the artifact that survives.
	var dce *rnascale.DriverCrashError
	crashed := errors.As(err, &dce)
	if rep != nil && !crashed {
		fmt.Print(rep.Summary())
		if *verbose {
			fmt.Println("per-assembly results:")
			for _, a := range rep.Assemblies {
				fmt.Printf("  %-10s k=%-3d %5d contigs, N50 %5d, TTC %10v, %.1f GB/node\n",
					a.Assembler, a.K, a.Contigs, a.N50, a.TTC, a.MemoryGB)
			}
			fmt.Println("cloud bill:")
			for _, line := range rep.Bill {
				fmt.Printf("  %-12s ×%-3d %8.2f instance-hours  $%.2f\n",
					line.Type, line.Instances, line.InstanceHours, line.USD)
			}
		}
		if rep.Quant != nil {
			fmt.Printf("quantification: %.1f%% of reads assigned to %d transcripts\n",
				100*rep.Quant.MappingRate(), len(rep.Transcripts))
		}
		if rep.Metrics != nil {
			fmt.Printf("quality vs ground truth: %v\n", rep.Metrics)
		}
		if cfg.FaultPlan != nil {
			fmt.Printf("fault recovery (seed %d): %v\n", req.FaultSeed, rep.Recovery)
		}
		if rep.Journal != nil && rep.Journal.Resumed {
			fmt.Printf("resumed from journal: %d records and %d units replayed, %d units executed live\n",
				rep.Journal.RecordsReplayed, rep.Journal.UnitsReplayed, rep.Journal.UnitsExecuted)
			if rep.Journal.TailRepaired {
				fmt.Printf("journal tail repaired: %d bytes of torn tail truncated before resume\n",
					rep.Journal.TailTruncatedBytes)
			}
		}
		if *verbose {
			fmt.Println("\npilot timeline:")
			fmt.Print(rep.Timeline(72))
		}
	}
	if err != nil {
		if crashed && *journalOut != "" {
			fmt.Fprintf(os.Stderr, "rnapipe: journal survives at %s; rerun with the same flags plus -resume %s\n",
				*journalOut, *journalOut)
		}
		// A deadline/cancellation cutoff is a distinct, scriptable
		// outcome: the truncated report above is valid as far as it
		// goes, and exit 3 separates "ran out of deadline" from a
		// pipeline failure's exit 1.
		var ce *rnascale.CutoffError
		if errors.As(err, &ce) {
			fmt.Fprintf(os.Stderr, "rnapipe: %s: %v\n", ce.Outcome, err)
			os.Exit(3)
		}
		fatal(err)
	}
}

// writeTo streams an export to a file or, for "-", stdout.
func writeTo(path string, render func(w io.Writer) error) error {
	if path == "-" {
		return render(os.Stdout)
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := render(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func splitList(s string) []string {
	var out []string
	for _, p := range strings.Split(s, ",") {
		if p = strings.TrimSpace(p); p != "" {
			out = append(out, p)
		}
	}
	return out
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "rnapipe:", err)
	os.Exit(1)
}
