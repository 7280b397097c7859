package experiments

import (
	"fmt"
	"strings"
	"testing"

	"rnascale/internal/assembler"
	"rnascale/internal/assembler/contrail"
	"rnascale/internal/assembler/ray"
	"rnascale/internal/seq"
	"rnascale/internal/simdata"
	"rnascale/internal/vclock"
)

func TestTable1ListsPaperTools(t *testing.T) {
	s := Table1()
	for _, want := range []string{"ray", "abyss", "contrail", "MPI", "Hadoop MapReduce", "2.3.1", "1.9.0", "0.8.2"} {
		if !strings.Contains(s, want) {
			t.Errorf("table1 missing %q:\n%s", want, s)
		}
	}
	// A title line and a column header, then one row per assembler.
	if rows := strings.Count(s, "\n") - 2; rows != 6 {
		t.Errorf("table1 has %d data rows, want 6:\n%s", rows, s)
	}
}

func TestTable2MatchesPaperColumns(t *testing.T) {
	s, err := Table2()
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"6.7 Mb", "34.5 Mb", "5223", "13617", "3.8 GB", "26.2 GB", "scale ratio"} {
		if !strings.Contains(s, want) {
			t.Errorf("table2 missing %q", want)
		}
	}
}

func TestTable3OrderingAndBands(t *testing.T) {
	rows, s, err := Table3(Quick)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 3 {
		t.Fatalf("%d rows", len(rows))
	}
	byName := map[string]float64{}
	for _, r := range rows {
		byName[r.Assembler] = r.TTC.Seconds()
	}
	if !(byName["abyss"] < byName["ray"] && byName["ray"] < byName["contrail"]) {
		t.Errorf("ordering violated: %v", byName)
	}
	for _, r := range rows {
		ratio := r.TTC.Seconds() / r.PaperTTC.Seconds()
		if ratio < 0.5 || ratio > 1.6 {
			t.Errorf("%s TTC %.0fs vs paper %.0fs (ratio %.2f)", r.Assembler, r.TTC.Seconds(), r.PaperTTC.Seconds(), ratio)
		}
	}
	if !strings.Contains(s, "Table III") {
		t.Error("missing title")
	}
}

func TestTable4MatchesPaperMatrix(t *testing.T) {
	cells, s := Table4()
	// 5 tasks × 2 datasets × 2 instances.
	if len(cells) != 20 {
		t.Fatalf("%d cells", len(cells))
	}
	for _, c := range cells {
		switch {
		case c.Instance == "r3.2xlarge" && !c.Feasible:
			t.Errorf("r3.2xlarge infeasible for %v/%s", c.Task, c.Dataset)
		case c.Dataset == "B. Glumae" && !c.Feasible:
			t.Errorf("B. Glumae infeasible for %v on %s", c.Task, c.Instance)
		case c.Dataset == "P. Crispa" && c.Instance == "c3.2xlarge":
			// Paper: only post-processing is O.
			wantFeasible := c.Task.String() == "Post-Processing"
			if c.Feasible != wantFeasible {
				t.Errorf("P. Crispa %v on c3.2xlarge: feasible=%v want %v", c.Task, c.Feasible, wantFeasible)
			}
		}
	}
	if strings.Count(s, "X") < 4 {
		t.Error("matrix rendering lacks X cells")
	}
}

func TestTable5Shape(t *testing.T) {
	rows, s, err := Table5(Quick)
	if err != nil {
		t.Fatal(err)
	}
	byOpt := map[string]Table5Row{}
	for _, r := range rows {
		byOpt[r.Option] = r
	}
	ray := byOpt["Ray"].Metrics
	abyss := byOpt["ABySS"].Metrics
	mamp := byOpt["Ray+Contrail+ABySS"].Metrics
	// The reproducible Table V orderings:
	// 1. Ray's conservative cutoff costs recall vs ABySS.
	if ray.Recall >= abyss.Recall {
		t.Errorf("ray recall %.2f not below abyss %.2f", ray.Recall, abyss.Recall)
	}
	// 2. Ray's weighted (abundance-aware) recall recovers much of the
	//    gap — its missing transcripts are the rare ones.
	if ray.WeightedKmerRecall-ray.Recall < 0.02 {
		t.Errorf("ray weighted recall %.2f does not rescue plain recall %.2f",
			ray.WeightedKmerRecall, ray.Recall)
	}
	// 3. kc ≤ weighted k-mer recall for every option.
	for opt, r := range byOpt {
		if r.Metrics.KCScore > r.Metrics.WeightedKmerRecall+1e-9 {
			t.Errorf("%s kc %.3f above weighted recall %.3f", opt, r.Metrics.KCScore, r.Metrics.WeightedKmerRecall)
		}
	}
	// 4. MAMP tracks its best members' recall (within a small margin).
	if mamp.Recall < abyss.Recall-0.05 {
		t.Errorf("MAMP recall %.2f far below member %.2f", mamp.Recall, abyss.Recall)
	}
	if !strings.Contains(s, "Trinity") {
		t.Error("missing Trinity row")
	}
}

func TestFigTextArtifacts(t *testing.T) {
	if !strings.Contains(Fig1(), "Pre-processing") || !strings.Contains(Fig1(), "Quantification") {
		t.Error("fig1 stages missing")
	}
	if !strings.Contains(Fig2(), "distributed-dynamic") {
		t.Error("fig2 patterns missing")
	}
}

func TestFig3Shape(t *testing.T) {
	pts, _, err := Fig3(Quick, []int{2, 16})
	if err != nil {
		t.Fatal(err)
	}
	ttc := map[string]map[int]float64{}
	for _, p := range pts {
		if ttc[p.Assembler] == nil {
			ttc[p.Assembler] = map[int]float64{}
		}
		ttc[p.Assembler][p.Nodes] = p.TTC.Seconds()
	}
	// Ray: marginal gain; ABySS: near-flat; Contrail: strong gain.
	if sp := ttc["ray"][2] / ttc["ray"][16]; sp <= 1 || sp > 2 {
		t.Errorf("ray speedup %.2f outside marginal band", sp)
	}
	if sp := ttc["abyss"][2] / ttc["abyss"][16]; sp > 1.3 {
		t.Errorf("abyss speedup %.2f not flat", sp)
	}
	if sp := ttc["contrail"][2] / ttc["contrail"][16]; sp < 2.5 {
		t.Errorf("contrail speedup %.2f too weak", sp)
	}
	// Convergence: the Contrail/Ray gap shrinks.
	if g2, g16 := ttc["contrail"][2]/ttc["ray"][2], ttc["contrail"][16]/ttc["ray"][16]; g16 >= g2 {
		t.Errorf("gap grew: %.2f -> %.2f", g2, g16)
	}
}

func TestFig4aShape(t *testing.T) {
	pts, _, err := Fig4a(Quick)
	if err != nil {
		t.Fatal(err)
	}
	at := func(f float64, c int) float64 {
		for _, p := range pts {
			if p.Fraction == f && p.Cores == c {
				return p.TTC.Seconds()
			}
		}
		t.Fatalf("missing point %v/%d", f, c)
		return 0
	}
	// TTC grows with input size at fixed cores.
	if !(at(0.25, 8) < at(0.5, 8) && at(0.5, 8) < at(1.0, 8)) {
		t.Error("TTC not increasing with input")
	}
	// TTC decreases (at least weakly) with cores at fixed input.
	if !(at(1.0, 32) < at(1.0, 8)) {
		t.Error("TTC not decreasing with cores")
	}
}

func TestFig4bShape(t *testing.T) {
	rows, _, err := Fig4b(Quick)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 3 {
		t.Fatalf("%d rows", len(rows))
	}
	m := map[int]float64{}
	for _, r := range rows {
		m[r.Nodes] = r.Makespan.Seconds()
	}
	if !(m[2] < m[1]) {
		t.Error("no gain 1→2 nodes")
	}
	if !(m[3] < m[2]) {
		t.Error("no slight gain 2→3 nodes (the paper's finding)")
	}
	if m[2] > m[1]*0.6 {
		t.Errorf("1→2 gain too weak: %v vs %v", m[2], m[1])
	}
}

func TestFig5SampleRunShape(t *testing.T) {
	rows, s, err := Fig5(Quick)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Fatalf("%d rows", len(rows))
	}
	s2 := rows[0].Report
	if rows[0].Scheme != S2() {
		t.Fatal("first row not S2")
	}
	// The sample-run invariants: 36-node PB; stage order transfer → PA
	// → PB → PC; cost in the paper's regime; PB is the longest stage.
	if s2.AssemblyNodes != 36 {
		t.Errorf("PB nodes %d, want 36", s2.AssemblyNodes)
	}
	if s2.CostUSD < 10 || s2.CostUSD > 30 {
		t.Errorf("cost $%.2f outside the paper's regime (~$20)", s2.CostUSD)
	}
	ttcH := s2.TTC.Hours()
	if ttcH < 2 || ttcH > 3.6 {
		t.Errorf("TTC %.2f h outside the paper's regime (~2.8 h)", ttcH)
	}
	pa, _ := s2.Stage("PA")
	pb, _ := s2.Stage("PB")
	pc, _ := s2.Stage("PC")
	if !(pb.Duration() > pa.Duration() && pb.Duration() > pc.Duration()) {
		t.Errorf("PB (%v) is not the longest stage (PA %v, PC %v)", pb.Duration(), pa.Duration(), pc.Duration())
	}
	if !strings.Contains(s, "paper (S2)") {
		t.Error("missing paper reference line")
	}
}

func TestBackendGridFrontier(t *testing.T) {
	rows, s, err := BackendGrid(Quick)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) < 2 {
		t.Fatalf("frontier has %d points, want at least 2", len(rows))
	}
	// Pareto shape: frontier rows come fastest-first, so predicted TTC
	// ascends and predicted cost weakly descends along the table.
	for i := 1; i < len(rows); i++ {
		if rows[i].Plan.TTC < rows[i-1].Plan.TTC {
			t.Errorf("frontier not TTC-sorted at row %d", i)
		}
		if rows[i].Plan.CostUSD > rows[i-1].Plan.CostUSD {
			t.Errorf("frontier cost rises at row %d: $%.2f -> $%.2f",
				i, rows[i-1].Plan.CostUSD, rows[i].Plan.CostUSD)
		}
	}
	// The backend dimension matters: several assignments survive, and
	// both non-default backends appear somewhere on the frontier.
	assignments := map[string]bool{}
	var sawSpot, sawFn bool
	for _, r := range rows {
		bk := r.Plan.Config.Backends
		assignments[bk.String()] = true
		sawSpot = sawSpot || bk.AnySpot()
		sawFn = sawFn || bk.AnyServerless()
	}
	if len(assignments) < 2 {
		t.Error("frontier collapsed to one backend assignment")
	}
	if !sawSpot || !sawFn {
		t.Errorf("frontier lacks a spot or serverless point (spot=%v serverless=%v)", sawSpot, sawFn)
	}
	// Every frontier point was simulated, and the plan tracks the run.
	// TTC tracks closely; function-heavy bills over-forecast, since the
	// plan prices each invocation from the single-core TTC estimate
	// (Contrail's overshoots most).
	for _, r := range rows {
		if r.Report == nil {
			t.Fatalf("%s: frontier point not simulated", r.Plan.Config.Backends)
		}
		if ratio := r.Plan.TTC.Seconds() / r.Report.TTC.Seconds(); ratio < 0.95 || ratio > 1.2 {
			t.Errorf("%s: plan TTC %v vs simulated %v (ratio %.2f)",
				r.Plan.Config.Backends, r.Plan.TTC, r.Report.TTC, ratio)
		}
		if ratio := r.Plan.CostUSD / r.Report.CostUSD; ratio < 0.95 || ratio > 5 {
			t.Errorf("%s: plan cost $%.2f vs simulated $%.2f (ratio %.2f)",
				r.Plan.Config.Backends, r.Plan.CostUSD, r.Report.CostUSD, ratio)
		}
	}
	if !strings.Contains(s, "frontier") || !strings.Contains(s, "sim TTC") {
		t.Errorf("rendering lacks the expected headers:\n%s", s)
	}
}

func TestAblations(t *testing.T) {
	out := map[string]string{}
	for name, fn := range map[string]func(Scale) (string, error){
		"schemes":  AblationSchemes,
		"dynamic":  AblationDynamicSizing,
		"hadoop":   AblationHadoopTax,
		"jobshape": AblationJobShape,
		"planner":  AblationPlanner,
		"network":  AblationNetwork,
	} {
		s, err := fn(Quick)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if len(s) < 40 {
			t.Errorf("%s output suspiciously short: %q", name, s)
		}
		out[name] = s
	}
	// Each sweep's default row is the registered assembler's run: the
	// swept value starts from the calibrated constant, not a copy.
	pcrispa, err := dataset(Quick, simdata.PCrispa())
	if err != nil {
		t.Fatal(err)
	}
	bglumae, err := dataset(Quick, simdata.BGlumae())
	if err != nil {
		t.Fatal(err)
	}
	ttc := func(a assembler.Assembler, ds *simdata.Dataset, reads []seq.Read, nodes int) vclock.Duration {
		res, err := a.Assemble(assembler.Request{
			Reads:  reads,
			Params: assembler.Params{K: scaledK(ds), MinCoverage: 2},
			Nodes:  nodes, CoresPerNode: 8,
			FullScale: ds.Profile.FullScale,
		})
		if err != nil {
			t.Fatal(err)
		}
		return res.TTC
	}
	rows := map[string]string{
		"network": fmt.Sprintf("  120 MB/s: %10v / %10v ",
			ttc(&ray.Ray{}, pcrispa, pcrispa.Reads.Reads, 2), ttc(&ray.Ray{}, pcrispa, pcrispa.Reads.Reads, 16)),
		"hadoop": fmt.Sprintf("  setup  330s: TTC %10v\n", ttc(&contrail.Contrail{}, bglumae, cleanNFree(bglumae), 2)),
	}
	for name, row := range rows {
		if !strings.Contains(out[name], row) {
			t.Errorf("%s ablation lacks the calibrated row %q:\n%s", name, row, out[name])
		}
	}
}
