// Package experiments regenerates every table and figure of the
// paper's evaluation section. Each experiment returns structured rows
// plus a formatted text table that juxtaposes the paper's reported
// values (where the paper gives them) with this reproduction's
// measurements, so the shape comparison is immediate.
//
// The experiments run the real pipeline components on scaled
// synthetic datasets; times are virtual seconds at full dataset
// scale (see DESIGN.md for the substitution rationale).
package experiments

import (
	"fmt"
	"strings"

	"rnascale/internal/assembler"
	_ "rnascale/internal/assembler/all" // register Table I inventory
	"rnascale/internal/cloud"
	"rnascale/internal/core"
	"rnascale/internal/detonate"
	"rnascale/internal/merge"
	"rnascale/internal/preprocess"
	"rnascale/internal/seq"
	"rnascale/internal/simdata"
	"rnascale/internal/sweep"
	"rnascale/internal/vclock"
)

// Workers is the worker-pool size every experiment grid fans its
// independent cells across (see internal/sweep); values < 1 use
// GOMAXPROCS. benchtab's -workers flag sets it. Each cell owns its
// own virtual clock, simulated cloud and observability registry, and
// results are collected in submission order, so rendered tables are
// byte-identical for every worker count.
var Workers int

// sweepMap fans n independent experiment cells across the package
// worker pool, collecting results in submission order.
func sweepMap[T any](n int, fn func(i int) (T, error)) ([]T, error) {
	return sweep.Map(n, fn, sweep.Options{Workers: Workers})
}

// Scale selects how large the synthetic stand-in datasets are.
type Scale int

const (
	// Quick uses the Tiny profile — seconds of real compute,
	// suitable for `go test -bench`.
	Quick Scale = iota
	// Full uses the B. Glumae / P. Crispa profiles — minutes of real
	// compute, closer statistics.
	Full
)

// dataset materializes the profile for a scale through the memoized
// dataset cache: experiments sharing a (profile, scale) pay the
// generation cost once per process instead of once per cell, and the
// shared *simdata.Dataset is read-only by contract.
func dataset(sc Scale, full simdata.Profile) (*simdata.Dataset, error) {
	if sc == Quick {
		p := simdata.Tiny()
		p.FullScale = full.FullScale
		// Keep a scaled k plan the tiny reads can support.
		p.FullScale.AssemblyKmers = simdata.Tiny().FullScale.AssemblyKmers
		return simdata.GenerateCached(p)
	}
	return simdata.GenerateCached(full)
}

// cleanNFree preprocesses and strips N reads (assembler benchmarks
// compare tools on identical input).
func cleanNFree(ds *simdata.Dataset) []seq.Read {
	cleaned, _ := preprocess.Run(ds.Reads, preprocess.DefaultOptions())
	var out []seq.Read
	for _, r := range cleaned.Reads {
		if seq.CountN(r.Seq) == 0 {
			out = append(out, r)
		}
	}
	return out
}

// scaledK picks the assembly k for the scaled reads of a dataset.
func scaledK(ds *simdata.Dataset) int {
	ks := ds.Profile.FullScale.AssemblyKmers
	if len(ks) > 0 {
		return ks[len(ks)-1]
	}
	return 21
}

// ---------------------------------------------------------------------------
// Table I — integrated assemblers
// ---------------------------------------------------------------------------

// Table1 renders the assembler inventory from the live registry.
func Table1() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Table I: de novo assemblers integrated for the RNA-seq pipeline\n")
	fmt.Fprintf(&b, "%-10s %-7s %-18s %-8s\n", "Name", "Type", "Distributed Impl.", "Version")
	for _, a := range assembler.List() {
		info := a.Info()
		dist := info.Distributed
		if dist == "" {
			dist = "single-node"
		}
		fmt.Fprintf(&b, "%-10s %-7s %-18s %-8s\n", info.Name, info.GraphType, dist, info.Version)
	}
	return b.String()
}

// ---------------------------------------------------------------------------
// Table II — datasets
// ---------------------------------------------------------------------------

// Table2 renders the dataset characteristics (full-scale columns from
// the profiles, scaled instance statistics from actual generation).
func Table2() (string, error) {
	var b strings.Builder
	fmt.Fprintf(&b, "Table II: data sets for benchmark experiments\n")
	fmt.Fprintf(&b, "%-28s %-16s %-16s\n", "", "B. Glumae", "P. Crispa")
	profiles := []simdata.Profile{simdata.BGlumae(), simdata.PCrispa()}
	row := func(name string, f func(p simdata.Profile) string) {
		fmt.Fprintf(&b, "%-28s %-16s %-16s\n", name, f(profiles[0]), f(profiles[1]))
	}
	row("Description", func(p simdata.Profile) string { return p.Description })
	row("Genome Size", func(p simdata.Profile) string { return fmt.Sprintf("%.1f Mb", float64(p.FullScale.GenomeSizeBp)/1e6) })
	row("Protein Genes", func(p simdata.Profile) string { return fmt.Sprintf("%d", p.FullScale.ProteinGenes) })
	row("Seq. Data Size (fastq)", func(p simdata.Profile) string { return fmt.Sprintf("%.1f GB", float64(p.FullScale.SeqDataBytes)/1e9) })
	row("Read length (bp)", func(p simdata.Profile) string { return fmt.Sprintf("%d", p.FullScale.ReadLen) })
	row("Num. of reads", func(p simdata.Profile) string { return fmt.Sprintf("%d", p.FullScale.Reads) })
	row("Paired end", func(p simdata.Profile) string {
		if p.FullScale.Paired {
			return "Yes"
		}
		return "No"
	})
	row("Memory for Pre-Processing", func(p simdata.Profile) string {
		return fmt.Sprintf("%.0f GB", preprocess.DefaultCostModel().MemoryGB(p.FullScale))
	})
	row("Post-preprocessing size", func(p simdata.Profile) string {
		return fmt.Sprintf("%.3g GB", float64(p.FullScale.PostPreprocessBytes)/1e9)
	})
	row("k-mers for assembly", func(p simdata.Profile) string { return strings.Trim(fmt.Sprint(p.FullScale.AssemblyKmers), "[]") })

	// Generate the scaled instances to show the stand-in sizes.
	fmt.Fprintf(&b, "\nScaled synthetic stand-ins actually assembled in this reproduction:\n")
	for _, p := range profiles {
		ds, err := simdata.GenerateCached(p)
		if err != nil {
			return "", err
		}
		fmt.Fprintf(&b, "  %-10s genome %d bp, %d transcripts, %d reads (%d bp%s), scale ratio %.0f×\n",
			p.Organism, p.GenomeSize, len(ds.Transcripts), len(ds.Reads.Reads), p.ReadLen,
			map[bool]string{true: ", paired"}[p.Paired], ds.ScaleRatio())
	}
	return b.String(), nil
}

// ---------------------------------------------------------------------------
// Table III — baseline assembler TTC
// ---------------------------------------------------------------------------

// Table3Row is one assembler's baseline measurement.
type Table3Row struct {
	Assembler string
	TTC       vclock.Duration
	PaperTTC  vclock.Duration
}

// Table3 measures baseline TTC of the three distributed assemblers on
// the two-node c3.2xlarge cluster with the B. Glumae dataset (paper:
// k=47).
func Table3(sc Scale) ([]Table3Row, string, error) {
	ds, err := dataset(sc, simdata.BGlumae())
	if err != nil {
		return nil, "", err
	}
	reads := cleanNFree(ds)
	k := scaledK(ds)
	paper := map[string]vclock.Duration{"ray": 1721, "abyss": 882, "contrail": 6720}
	names := []string{"ray", "abyss", "contrail"}
	rows, err := sweepMap(len(names), func(i int) (Table3Row, error) {
		name := names[i]
		a, err := assembler.Get(name)
		if err != nil {
			return Table3Row{}, err
		}
		res, err := a.Assemble(assembler.Request{
			Reads:  reads,
			Params: assembler.Params{K: k, MinCoverage: 2},
			Nodes:  2, CoresPerNode: 8,
			FullScale: simdata.BGlumae().FullScale,
		})
		if err != nil {
			return Table3Row{}, fmt.Errorf("table3 %s: %w", name, err)
		}
		return Table3Row{Assembler: name, TTC: res.TTC, PaperTTC: paper[name]}, nil
	})
	if err != nil {
		return nil, "", err
	}
	var b strings.Builder
	fmt.Fprintf(&b, "Table III: baseline TTC, 2-node c3.2xlarge cluster, B. Glumae, k=%d\n", k)
	fmt.Fprintf(&b, "%-10s %12s %12s\n", "Assembler", "TTC (sec)", "paper (sec)")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-10s %12.0f %12.0f\n", r.Assembler, r.TTC.Seconds(), r.PaperTTC.Seconds())
	}
	return rows, b.String(), nil
}

// ---------------------------------------------------------------------------
// Table IV — instance capacity matrix
// ---------------------------------------------------------------------------

// Table4Cell is one O/X entry.
type Table4Cell struct {
	Task     core.Task
	Dataset  string
	Instance string
	Feasible bool
}

// Table4 computes the instance-capacity matrix from the memory
// models.
func Table4() ([]Table4Cell, string) {
	datasets := []struct {
		name string
		fs   simdata.FullScaleStats
	}{
		{"B. Glumae", simdata.BGlumae().FullScale},
		{"P. Crispa", simdata.PCrispa().FullScale},
	}
	instances := []cloud.InstanceType{cloud.C32XLarge, cloud.R32XLarge}
	var cells []Table4Cell
	var b strings.Builder
	fmt.Fprintf(&b, "Table IV: task capacity per instance type (O = supported, X = not)\n")
	fmt.Fprintf(&b, "%-36s %-12s %-12s %-12s\n", "Task", "Dataset", "c3.2xlarge", "r3.2xlarge")
	for _, task := range core.Tasks() {
		for _, d := range datasets {
			marks := map[string]string{}
			for _, it := range instances {
				ok := core.Feasible(task, d.fs, it)
				cells = append(cells, Table4Cell{Task: task, Dataset: d.name, Instance: it.Name, Feasible: ok})
				if ok {
					marks[it.Name] = "O"
				} else {
					marks[it.Name] = "X"
				}
			}
			fmt.Fprintf(&b, "%-36s %-12s %-12s %-12s\n", task, d.name, marks["c3.2xlarge"], marks["r3.2xlarge"])
		}
	}
	b.WriteString("paper: every P. Crispa task except post-processing is X on c3.2xlarge;\n" +
		"       everything is O on r3.2xlarge and all B. Glumae tasks are O on both\n")
	return cells, b.String()
}

// ---------------------------------------------------------------------------
// Table V — assembly quality, single tools vs MAMP vs Trinity
// ---------------------------------------------------------------------------

// Table5Row is one quality row.
type Table5Row struct {
	Option  string
	Metrics detonate.Metrics
}

// Table5 evaluates transcript assembly quality for single assemblers,
// the MAMP combinations, and the Trinity baseline on the B. Glumae
// dataset, scoring with the DETONATE reimplementation.
func Table5(sc Scale) ([]Table5Row, string, error) {
	ds, err := dataset(sc, simdata.BGlumae())
	if err != nil {
		return nil, "", err
	}
	reads := cleanNFree(ds)
	ks := ds.Profile.FullScale.AssemblyKmers
	var readBases int64
	for _, r := range reads {
		readBases += int64(len(r.Seq))
	}
	dopts := detonate.DefaultOptions()
	dopts.ReadBases = readBases
	if k := scaledK(ds); dopts.K > k {
		dopts.K = k
	}

	// Assemble each tool×k unit concurrently, then merge and evaluate
	// per option. Submission order keeps perTool's per-tool contig
	// lists in k-plan order, as the serial loop produced.
	type asmUnit struct {
		tool string
		k    int
	}
	var units []asmUnit
	for _, name := range []string{"ray", "abyss", "contrail", "trinity"} {
		toolKs := ks
		if name == "trinity" {
			// Trinity runs its own single-k strategy.
			toolKs = ks[:1]
		}
		for _, k := range toolKs {
			units = append(units, asmUnit{tool: name, k: k})
		}
	}
	contigSets, err := sweepMap(len(units), func(i int) ([]seq.FastaRecord, error) {
		u := units[i]
		a, err := assembler.Get(u.tool)
		if err != nil {
			return nil, err
		}
		nodes := 2
		if !a.Info().MultiNode() {
			nodes = 1
		}
		res, err := a.Assemble(assembler.Request{
			Reads:  reads,
			Params: assembler.Params{K: u.k},
			Nodes:  nodes, CoresPerNode: 8,
			FullScale: ds.Profile.FullScale,
		})
		if err != nil {
			return nil, fmt.Errorf("table5 %s k=%d: %w", u.tool, u.k, err)
		}
		return res.Contigs, nil
	})
	if err != nil {
		return nil, "", err
	}
	perTool := map[string][][]seq.FastaRecord{}
	for i, set := range contigSets {
		perTool[units[i].tool] = append(perTool[units[i].tool], set)
	}
	options := []struct {
		label string
		tools []string
	}{
		{"Ray", []string{"ray"}},
		{"ABySS", []string{"abyss"}},
		{"Contrail", []string{"contrail"}},
		{"Ray+Contrail", []string{"ray", "contrail"}},
		{"Ray+Contrail+ABySS", []string{"ray", "contrail", "abyss"}},
		{"Trinity", []string{"trinity"}},
	}
	rows, err := sweepMap(len(options), func(i int) (Table5Row, error) {
		opt := options[i]
		var sets [][]seq.FastaRecord
		for _, tool := range opt.tools {
			sets = append(sets, perTool[tool]...)
		}
		merged, _ := merge.Merge(sets, merge.DefaultOptions())
		// As in the paper, the reference is the gene-annotation track
		// ("6234 gene sequences from the NCBI GenBank database"), not
		// the full expressed mRNAs.
		m, err := detonate.Evaluate(merged, ds.Annotations, ds.Expression, dopts)
		if err != nil {
			return Table5Row{}, err
		}
		return Table5Row{Option: opt.label, Metrics: m}, nil
	})
	if err != nil {
		return nil, "", err
	}
	var b strings.Builder
	fmt.Fprintf(&b, "Table V: transcript assembly quality, B. Glumae (DETONATE reimplementation)\n")
	fmt.Fprintf(&b, "%-20s %9s %9s %9s %12s %9s\n", "Assembler(s)", "precision", "recall", "F1", "w.kmer.rec", "kc")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-20s %9.2f %9.2f %9.2f %12.2f %9.2f\n",
			r.Option, r.Metrics.Precision, r.Metrics.Recall, r.Metrics.F1,
			r.Metrics.WeightedKmerRecall, r.Metrics.KCScore)
	}
	b.WriteString("paper:               Ray (0.84,0.26,0.40 | 0.86,0.86)  ABySS (0.82,0.42,0.55 | 0.79,0.78)\n" +
		"                     Contrail (0.78,0.43,0.56 | 0.84,0.83)  Ray+Contrail (0.78,0.43,0.56 | 0.78,0.77)\n" +
		"                     all three (0.79,0.44,0.57 | 0.77,0.76)  Trinity (0.51,0.35,0.42 | 0.84,0.83)\n")
	return rows, b.String(), nil
}

// ---------------------------------------------------------------------------
// Fig. 1 / Fig. 2 — workflow structure
// ---------------------------------------------------------------------------

// Fig1 renders the Rnnotator workflow stages.
func Fig1() string {
	return strings.Join([]string{
		"Fig. 1: the Rnnotator pipeline workflow",
		"  [1] Pre-processing of sequencing reads   (internal/preprocess, pilot PA)",
		"  [2] Transcript assembly (multiple k-mer)  (internal/assembler/*, pilot PB)",
		"  [3] Post-processing: overlap + merge      (internal/merge, pilot PC)",
		"  [4] Quantification (+ optional DGE)       (internal/quant, internal/diffexpr, pilot PC)",
		"",
	}, "\n")
}

// Fig2 renders the three pilot workflow patterns.
func Fig2() string {
	return strings.Join([]string{
		"Fig. 2: pilot-based workflow patterns (core.WorkflowPattern)",
		"  conventional         one pilot on a single system runs every stage",
		"  distributed-static   per-stage pilots, resource mapping fixed a priori",
		"  distributed-dynamic  per-stage pilots, mapping decided just before each stage",
		"                       (instance type from memory model, PB size from k-mer plan)",
		"",
	}, "\n")
}

// ---------------------------------------------------------------------------
// Fig. 3 — assembler scale-out
// ---------------------------------------------------------------------------

// Fig3Point is one (assembler, nodes) measurement.
type Fig3Point struct {
	Assembler string
	Nodes     int
	TTC       vclock.Duration
}

// Fig3 sweeps the three distributed assemblers over node counts on
// the P. Crispa dataset (paper: c3.2xlarge, k=51, raw input).
func Fig3(sc Scale, nodeCounts []int) ([]Fig3Point, string, error) {
	if len(nodeCounts) == 0 {
		nodeCounts = []int{2, 4, 8, 16, 32}
	}
	ds, err := dataset(sc, simdata.PCrispa())
	if err != nil {
		return nil, "", err
	}
	// Fig. 3 uses raw (unpreprocessed) data — except Contrail, which
	// requires the N-free reads, exactly as in the paper.
	raw := ds.Reads.Reads
	nFree := dropN(raw)
	k := scaledK(ds)
	// One cell per (assembler, node count) grid point; the rendering
	// below walks the ordered results row by row.
	names := []string{"ray", "abyss", "contrail"}
	pts, err := sweepMap(len(names)*len(nodeCounts), func(i int) (Fig3Point, error) {
		name := names[i/len(nodeCounts)]
		n := nodeCounts[i%len(nodeCounts)]
		a, err := assembler.Get(name)
		if err != nil {
			return Fig3Point{}, err
		}
		reads := raw
		if name == "contrail" {
			reads = nFree
		}
		res, err := a.Assemble(assembler.Request{
			Reads:  reads,
			Params: assembler.Params{K: k, MinCoverage: 2},
			Nodes:  n, CoresPerNode: 8,
			FullScale: simdata.PCrispa().FullScale,
		})
		if err != nil {
			return Fig3Point{}, fmt.Errorf("fig3 %s@%d: %w", name, n, err)
		}
		return Fig3Point{Assembler: name, Nodes: n, TTC: res.TTC}, nil
	})
	if err != nil {
		return nil, "", err
	}
	var b strings.Builder
	fmt.Fprintf(&b, "Fig. 3: scale-out of the assemblers, P. Crispa, c3.2xlarge, k=%d\n", k)
	fmt.Fprintf(&b, "%-8s", "nodes")
	for _, n := range nodeCounts {
		fmt.Fprintf(&b, "%12d", n)
	}
	b.WriteString("\n")
	for i, p := range pts {
		if i%len(nodeCounts) == 0 {
			fmt.Fprintf(&b, "%-8s", p.Assembler)
		}
		fmt.Fprintf(&b, "%12.0f", p.TTC.Seconds())
		if i%len(nodeCounts) == len(nodeCounts)-1 {
			b.WriteString("\n")
		}
	}
	b.WriteString("paper shape: Ray gains marginally, ABySS is near-flat, Contrail is slowest\n" +
		"at few nodes and converges toward the MPI tools as nodes are added\n")
	return pts, b.String(), nil
}

func dropN(reads []seq.Read) []seq.Read {
	var out []seq.Read
	for _, r := range reads {
		if seq.CountN(r.Seq) == 0 {
			out = append(out, r)
		}
	}
	return out
}

// ---------------------------------------------------------------------------
// Fig. 4 — Ray scalability and multi-k task parallelism
// ---------------------------------------------------------------------------

// Fig4aPoint is one (input fraction, cores) Ray measurement.
type Fig4aPoint struct {
	Fraction float64
	Cores    int
	TTC      vclock.Duration
}

// Fig4a sweeps Ray over input size and core count (paper: r3.2xlarge,
// upper panel).
func Fig4a(sc Scale) ([]Fig4aPoint, string, error) {
	ds, err := dataset(sc, simdata.PCrispa())
	if err != nil {
		return nil, "", err
	}
	a, err := assembler.Get("ray")
	if err != nil {
		return nil, "", err
	}
	k := scaledK(ds)
	fractions := []float64{0.25, 0.5, 1.0}
	coreCounts := []int{8, 16, 24, 32}
	// Materialize each input-size subset once (shared read-only across
	// that row's cells), then fan the full (fraction, cores) grid.
	subs := make([]*simdata.Dataset, len(fractions))
	for i, f := range fractions {
		subs[i] = ds.Subset(f)
	}
	pts, err := sweepMap(len(fractions)*len(coreCounts), func(i int) (Fig4aPoint, error) {
		sub := subs[i/len(coreCounts)]
		f := fractions[i/len(coreCounts)]
		cores := coreCounts[i%len(coreCounts)]
		res, err := a.Assemble(assembler.Request{
			Reads:  sub.Reads.Reads,
			Params: assembler.Params{K: k, MinCoverage: 2},
			Nodes:  cores / 8, CoresPerNode: 8,
			FullScale: sub.Profile.FullScale,
		})
		if err != nil {
			return Fig4aPoint{}, fmt.Errorf("fig4a %.2f@%d: %w", f, cores, err)
		}
		return Fig4aPoint{Fraction: f, Cores: cores, TTC: res.TTC}, nil
	})
	if err != nil {
		return nil, "", err
	}
	var b strings.Builder
	fmt.Fprintf(&b, "Fig. 4 (upper): Ray TTC vs input size and cores, r3.2xlarge, k=%d\n", k)
	fmt.Fprintf(&b, "%-10s", "input")
	for _, c := range coreCounts {
		fmt.Fprintf(&b, "%10dc", c)
	}
	b.WriteString("\n")
	for i, p := range pts {
		if i%len(coreCounts) == 0 {
			fmt.Fprintf(&b, "%-10s", fmt.Sprintf("%.0f%%", p.Fraction*100))
		}
		fmt.Fprintf(&b, "%11.0f", p.TTC.Seconds())
		if i%len(coreCounts) == len(coreCounts)-1 {
			b.WriteString("\n")
		}
	}
	b.WriteString("paper shape: TTC grows with input size; modest gains from more cores\n")
	return pts, b.String(), nil
}

// Fig4b sweeps the multiple-k-mer assembly step over small cluster
// sizes (paper: lower panel, P. Crispa partial data, 4 k values,
// 1–3 nodes; 3 nodes still slightly better than 2).
func Fig4b(sc Scale) ([]core.MultiKResult, string, error) {
	ds, err := dataset(sc, simdata.PCrispa())
	if err != nil {
		return nil, "", err
	}
	partial := ds.Subset(0.5) // "we used a partial data set due to the computational cost"
	ks := partial.Profile.FullScale.AssemblyKmers
	if sc == Quick {
		// Four k values (as in the paper) that the tiny 50 bp reads
		// can still assemble.
		ks = []int{19, 21, 23, 25}
	}
	nodeCounts := []int{1, 2, 3}
	rows, err := sweepMap(len(nodeCounts), func(i int) (core.MultiKResult, error) {
		return core.MultiKMakespan(partial, "ray", ks, nodeCounts[i], 1, "r3.2xlarge")
	})
	if err != nil {
		return nil, "", err
	}
	var b strings.Builder
	fmt.Fprintf(&b, "Fig. 4 (lower): multi-k assembly step (Ray, %d k values) vs nodes\n", len(ks))
	fmt.Fprintf(&b, "%-8s %14s\n", "nodes", "makespan (s)")
	for i, r := range rows {
		fmt.Fprintf(&b, "%-8d %14.0f\n", nodeCounts[i], r.Makespan.Seconds())
	}
	b.WriteString("paper shape: strong gain 1→2 nodes; 3 nodes still a slight gain over 2\n")
	return rows, b.String(), nil
}

// ---------------------------------------------------------------------------
// Fig. 5 / sample run — end-to-end pipeline, S1 vs S2
// ---------------------------------------------------------------------------

// Fig5Row is one end-to-end run's ledger.
type Fig5Row struct {
	Scheme core.MatchingScheme
	Report *core.Report
}

// Fig5 reproduces the paper's sample run (B. Glumae paired set, three
// assemblers, two k values, scheme S2 on c3.2xlarge) and the S1
// counterpart for comparison. The paper reports, for S2: 3 m 35 s
// upload, 44 min PA, 1 h 18 m PB on 36 nodes, 41 min PC, total
// 2 h 47 m and ≈ $20.28.
func Fig5(sc Scale) ([]Fig5Row, string, error) {
	ds, err := dataset(sc, simdata.BGlumaePaired())
	if err != nil {
		return nil, "", err
	}
	schemes := []core.MatchingScheme{S2(), S1()}
	rows, err := sweepMap(len(schemes), func(i int) (Fig5Row, error) {
		cfg := core.DefaultConfig()
		cfg.Scheme = schemes[i]
		cfg.Pattern = core.DistributedDynamic
		rep, err := core.Run(ds, cfg)
		if err != nil {
			return Fig5Row{}, fmt.Errorf("fig5 %v: %w", schemes[i], err)
		}
		return Fig5Row{Scheme: schemes[i], Report: rep}, nil
	})
	if err != nil {
		return nil, "", err
	}
	var b strings.Builder
	fmt.Fprintf(&b, "Fig. 5 / sample run: end-to-end pipeline, %s, 3 assemblers × %d k-mers\n",
		ds.Profile.Organism, len(ds.Profile.FullScale.AssemblyKmers))
	for _, row := range rows {
		rep := row.Report
		fmt.Fprintf(&b, "\nscheme %v (PB on %d nodes):\n", row.Scheme, rep.AssemblyNodes)
		for _, s := range rep.Stages {
			fmt.Fprintf(&b, "  %-10s %10v\n", s.Name, s.Duration())
		}
		fmt.Fprintf(&b, "  %-10s %10v   cost $%.2f\n", "TOTAL", rep.TTC, rep.CostUSD)
	}
	b.WriteString("\npaper (S2): transfer 3m35s, PA 44m, PB 1h18m (36 nodes), PC 41m, total 2h47m, $20.28\n")
	return rows, b.String(), nil
}

// S1 and S2 re-export the scheme constants for callers that only
// import experiments.
func S1() core.MatchingScheme { return core.S1 }

// S2 is the VM-reuse matching scheme.
func S2() core.MatchingScheme { return core.S2 }

// ---------------------------------------------------------------------------
// Ablations — design-choice benches beyond the paper's figures
// ---------------------------------------------------------------------------

// AblationSchemes compares S1 vs S2 cost and TTC across data scales.
func AblationSchemes(sc Scale) (string, error) {
	rows, _, err := Fig5(sc)
	if err != nil {
		return "", err
	}
	var b strings.Builder
	b.WriteString("Ablation: matching scheme S1 vs S2\n")
	for _, r := range rows {
		fmt.Fprintf(&b, "  %v: TTC %v, cost $%.2f\n", r.Scheme, r.Report.TTC, r.Report.CostUSD)
	}
	b.WriteString("S1 pays VM boot + inter-pilot transfer; S2 pays idle reuse of the PA instance type\n")
	return b.String(), nil
}

// AblationDynamicSizing compares the dynamic PB sizing rule against
// fixed cluster sizes.
func AblationDynamicSizing(sc Scale) (string, error) {
	ds, err := dataset(sc, simdata.BGlumae())
	if err != nil {
		return "", err
	}
	var b strings.Builder
	b.WriteString("Ablation: PB cluster sizing (dynamic rule vs fixed)\n")
	for _, override := range []int{0, 2, 8, 16} {
		cfg := core.DefaultConfig()
		cfg.ContrailNodes = 2
		cfg.AssemblyNodesOverride = override
		if sc == Quick {
			cfg.Kmers = nil
		}
		rep, err := core.Run(ds, cfg)
		if err != nil {
			return "", err
		}
		label := fmt.Sprintf("fixed %d", override)
		if override == 0 {
			label = fmt.Sprintf("dynamic (%d)", rep.AssemblyNodes)
		}
		pb, _ := rep.Stage("PB")
		fmt.Fprintf(&b, "  %-14s PB %10v, TTC %10v, cost $%.2f\n", label, pb.Duration(), rep.TTC, rep.CostUSD)
	}
	return b.String(), nil
}

// AblationHadoopTax sweeps Contrail's per-job overhead to show how
// the MapReduce tax shapes its small-cluster penalty.
func AblationHadoopTax(sc Scale) (string, error) {
	ds, err := dataset(sc, simdata.BGlumae())
	if err != nil {
		return "", err
	}
	reads := cleanNFree(ds)
	k := scaledK(ds)
	var b strings.Builder
	b.WriteString("Ablation: Contrail per-job overhead (the Hadoop tax), 2 nodes\n")
	for _, setup := range []float64{5, 60, 330, 900} {
		ct := &rawContrail{setup: setup}
		res, err := ct.run(reads, k, ds.Profile.FullScale)
		if err != nil {
			return "", err
		}
		fmt.Fprintf(&b, "  setup %4.0fs: TTC %10v\n", setup, res)
	}
	return b.String(), nil
}

// rawContrail runs contrail with an overridden job setup.
type rawContrail struct{ setup float64 }

func (rc *rawContrail) run(reads []seq.Read, k int, fs simdata.FullScaleStats) (vclock.Duration, error) {
	a, err := assembler.Get("contrail")
	if err != nil {
		return 0, err
	}
	// The registry's contrail is stateless; use a fresh one with the
	// override via the concrete type (registered in assembler/all).
	_ = a
	ct := newContrailWithSetup(rc.setup)
	res, err := ct.Assemble(assembler.Request{
		Reads:  reads,
		Params: assembler.Params{K: k, MinCoverage: 2},
		Nodes:  2, CoresPerNode: 8,
		FullScale: fs,
	})
	if err != nil {
		return 0, err
	}
	return res.TTC, nil
}

// AblationJobShape explores the trade-off the paper mentions but
// does not present ("examples include the number of nodes for each
// MPI job vs the number of k-mer assemblies"): for a fixed cluster,
// is it better to give each k-mer job more nodes or to run more jobs
// side by side?
func AblationJobShape(sc Scale) (string, error) {
	ds, err := dataset(sc, simdata.PCrispa())
	if err != nil {
		return "", err
	}
	ks := ds.Profile.FullScale.AssemblyKmers
	if sc == Quick {
		ks = []int{19, 21, 23, 25}
	}
	const clusterNodes = 4
	var b strings.Builder
	fmt.Fprintf(&b, "Ablation: nodes per MPI job vs task parallelism (%d k-mer jobs, %d-node cluster)\n",
		len(ks), clusterNodes)
	for _, perJob := range []int{1, 2, 4} {
		r, err := core.MultiKMakespan(ds, "ray", ks, clusterNodes, perJob, "r3.2xlarge")
		if err != nil {
			return "", err
		}
		fmt.Fprintf(&b, "  %d node(s)/job: makespan %10v\n", perJob, r.Makespan)
	}
	b.WriteString("with Ray's marginal internal scaling, 1 node/job (max task parallelism) wins —\n" +
		"the configuration the paper's sample run chose\n")
	return b.String(), nil
}

// AblationPlanner validates the a-priori planner (the paper's
// prerequisite for fully dynamic workflows) against the simulation
// and shows the optimizer choosing between TTC- and cost-optimal
// configurations.
func AblationPlanner(sc Scale) (string, error) {
	ds, err := dataset(sc, simdata.BGlumaePaired())
	if err != nil {
		return "", err
	}
	cfg := core.DefaultConfig()
	if sc == Quick {
		cfg.ContrailNodes = 4
	}
	plan, err := core.Predict(ds, cfg)
	if err != nil {
		return "", err
	}
	rep, err := core.Run(ds, cfg)
	if err != nil {
		return "", err
	}
	var b strings.Builder
	b.WriteString("Ablation: a-priori planner vs simulation (sample-run config)\n")
	fmt.Fprintf(&b, "  predicted: TTC %10v  cost $%6.2f  (PB %v on %d nodes)\n",
		plan.TTC, plan.CostUSD, plan.PB, plan.AssemblyNodes)
	fmt.Fprintf(&b, "  simulated: TTC %10v  cost $%6.2f\n", rep.TTC, rep.CostUSD)

	var candidates []core.Config
	for _, scheme := range []core.MatchingScheme{core.S1, core.S2} {
		for _, cn := range []int{2, 4, 8, 16} {
			c := cfg
			c.Scheme = scheme
			c.ContrailNodes = cn
			candidates = append(candidates, c)
		}
	}
	fast, err := core.Optimize(ds, candidates, core.MinimizeTTC)
	if err != nil {
		return "", err
	}
	cheap, err := core.Optimize(ds, candidates, core.MinimizeCost)
	if err != nil {
		return "", err
	}
	fmt.Fprintf(&b, "  optimizer (TTC):  %v\n", fast)
	fmt.Fprintf(&b, "  optimizer (cost): %v\n", cheap)
	return b.String(), nil
}

// ---------------------------------------------------------------------------
// Backend grid — spot / serverless backends and the cost–TTC frontier
// ---------------------------------------------------------------------------

// BackendRow is one Pareto-optimal backend assignment: the planner's
// prediction plus the simulated run that validates it.
type BackendRow struct {
	Plan   core.Plan
	Report *core.Report
}

// BackendGrid sweeps the per-stage execution-backend assignment — the
// 3³ cross of on-demand / spot / serverless over PA, PB and PC, under
// both matching schemes — asks the planner for the cost–TTC Pareto
// frontier over the grid, then simulates every frontier point to
// validate the prediction. The rendered table juxtaposes predicted and
// simulated TTC and cost per frontier point, the comparison rnapipe's
// -frontier flag prints plan-only.
func BackendGrid(sc Scale) ([]BackendRow, string, error) {
	ds, err := dataset(sc, simdata.BGlumae())
	if err != nil {
		return nil, "", err
	}
	var candidates []core.Config
	for _, scheme := range []core.MatchingScheme{core.S1, core.S2} {
		base := core.DefaultConfig()
		base.Scheme = scheme
		if sc == Quick {
			base.ContrailNodes = 4
		}
		candidates = append(candidates, core.ExpandBackends(base, nil)...)
	}
	frontier, err := core.Frontier(ds, candidates)
	if err != nil {
		return nil, "", err
	}
	rows, err := sweepMap(len(frontier), func(i int) (BackendRow, error) {
		cfg := frontier[i].Config
		rep, err := core.Run(ds, cfg)
		if err != nil {
			return BackendRow{}, fmt.Errorf("backend grid %s/%v: %w", cfg.Backends, cfg.Scheme, err)
		}
		return BackendRow{Plan: frontier[i], Report: rep}, nil
	})
	if err != nil {
		return nil, "", err
	}
	var b strings.Builder
	fmt.Fprintf(&b, "Backend grid: cost–TTC frontier over execution backends, %s\n", ds.Profile.Organism)
	fmt.Fprintf(&b, "(%d candidates: S1/S2 × {on-demand,spot,serverless} per stage; %d on the frontier)\n",
		len(candidates), len(frontier))
	fmt.Fprintf(&b, "%-42s %-3s %12s %9s %12s %9s\n",
		"backends", "sch", "plan TTC", "plan $", "sim TTC", "sim $")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-42s %-3v %12v %9.2f %12v %9.2f\n",
			r.Plan.Config.Backends, r.Plan.Config.Scheme,
			r.Plan.TTC, r.Plan.CostUSD, r.Report.TTC, r.Report.CostUSD)
	}
	b.WriteString("the fast end of the frontier fans PB out as parallel function invocations;\n" +
		"the cheap end rides the spot market (which, while calm, dominates on-demand)\n")
	return rows, b.String(), nil
}

// AblationNetwork sweeps the MPI inter-node network for Ray's
// scale-out sensitivity.
func AblationNetwork(sc Scale) (string, error) {
	ds, err := dataset(sc, simdata.PCrispa())
	if err != nil {
		return "", err
	}
	k := scaledK(ds)
	var b strings.Builder
	b.WriteString("Ablation: Ray scale-out vs inter-node network (TTC at 2 / 16 nodes)\n")
	for _, bw := range []float64{10e6, 120e6, 1200e6} {
		ray := newRayWithNetwork(bw)
		var ttcs []vclock.Duration
		for _, nodes := range []int{2, 16} {
			res, err := ray.Assemble(assembler.Request{
				Reads:  ds.Reads.Reads,
				Params: assembler.Params{K: k, MinCoverage: 2},
				Nodes:  nodes, CoresPerNode: 8,
				FullScale: ds.Profile.FullScale,
			})
			if err != nil {
				return "", err
			}
			ttcs = append(ttcs, res.TTC)
		}
		fmt.Fprintf(&b, "  %5.0f MB/s: %10v / %10v (speedup %.2f×)\n",
			bw/1e6, ttcs[0], ttcs[1], float64(ttcs[0])/float64(ttcs[1]))
	}
	return b.String(), nil
}
