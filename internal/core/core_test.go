package core

import (
	"fmt"
	"strings"
	"testing"

	_ "rnascale/internal/assembler/all"
	"rnascale/internal/cloud"
	"rnascale/internal/seq"
	"rnascale/internal/simdata"
	"rnascale/internal/vclock"
)

// tinyConfig keeps the virtual cluster small and the real computation
// fast for unit tests.
func tinyConfig() Config {
	cfg := DefaultConfig()
	cfg.Assemblers = []string{"ray", "abyss", "contrail"}
	cfg.ContrailNodes = 2
	cfg.EvaluateAgainstTruth = true
	return cfg
}

func tinyDS(t *testing.T) *simdata.Dataset {
	t.Helper()
	ds, err := simdata.Generate(simdata.Tiny())
	if err != nil {
		t.Fatal(err)
	}
	return ds
}

func TestEndToEndS2Dynamic(t *testing.T) {
	ds := tinyDS(t)
	rep, err := Run(ds, tinyConfig())
	if err != nil {
		t.Fatal(err)
	}
	// All four stages present and ordered.
	names := []string{"transfer", "PA", "PB", "PC"}
	var last vclock.Time
	for _, n := range names {
		s, ok := rep.Stage(n)
		if !ok {
			t.Fatalf("missing stage %s", n)
		}
		if s.Start < last {
			t.Errorf("stage %s starts before previous ends", n)
		}
		if s.End < s.Start {
			t.Errorf("stage %s negative span", n)
		}
		last = s.End
	}
	if rep.TTC <= 0 || rep.CostUSD <= 0 {
		t.Errorf("TTC %v cost %v", rep.TTC, rep.CostUSD)
	}
	if len(rep.Transcripts) == 0 {
		t.Fatal("no transcripts")
	}
	if len(rep.Assemblies) != 3*len(rep.KmersUsed) {
		t.Errorf("%d assembly reports for %d k-mers", len(rep.Assemblies), len(rep.KmersUsed))
	}
	if rep.Quant == nil || rep.Quant.MappingRate() < 0.5 {
		t.Errorf("quantification missing or poor: %+v", rep.Quant)
	}
	if rep.Metrics == nil {
		t.Fatal("metrics requested but absent")
	}
	if rep.Metrics.F1 < 0.5 {
		t.Errorf("pipeline F1 %.2f suspiciously low", rep.Metrics.F1)
	}
	// Tiny profile: 2 ks × (2 MPI × 1 node + 1 contrail × 2 nodes) = 8 nodes.
	if rep.AssemblyNodes != 8 {
		t.Errorf("PB nodes %d, want 8", rep.AssemblyNodes)
	}
	if !strings.Contains(rep.Summary(), "TTC") {
		t.Error("summary malformed")
	}
	// Per-assembler merged sets exist.
	for _, name := range []string{"ray", "abyss", "contrail"} {
		if len(rep.PerAssembler[name]) == 0 {
			t.Errorf("no merged contigs for %s", name)
		}
	}
}

func TestS1PaysTransferS2DoesNot(t *testing.T) {
	ds := tinyDS(t)
	cfgS2 := tinyConfig()
	cfgS2.Scheme = S2
	repS2, err := Run(ds, cfgS2)
	if err != nil {
		t.Fatal(err)
	}
	cfgS1 := tinyConfig()
	cfgS1.Scheme = S1
	repS1, err := Run(ds, cfgS1)
	if err != nil {
		t.Fatal(err)
	}
	pbS1, _ := repS1.Stage("PB")
	pbS2, _ := repS2.Stage("PB")
	if !strings.Contains(pbS1.Note, "transfer") {
		t.Errorf("S1 PB note lacks transfer: %q", pbS1.Note)
	}
	if strings.Contains(pbS2.Note, "transfer") {
		t.Errorf("S2 PB note mentions transfer: %q", pbS2.Note)
	}
	// Both produce the same biology.
	if len(repS1.Transcripts) != len(repS2.Transcripts) {
		t.Errorf("S1 %d vs S2 %d transcripts", len(repS1.Transcripts), len(repS2.Transcripts))
	}
}

func TestConventionalPatternSinglePilot(t *testing.T) {
	ds := tinyDS(t)
	cfg := tinyConfig()
	cfg.Pattern = Conventional
	rep, err := Run(ds, cfg)
	if err != nil {
		t.Fatal(err)
	}
	pa, _ := rep.Stage("PA")
	pb, _ := rep.Stage("PB")
	pc, _ := rep.Stage("PC")
	if pa.Pilot != pb.Pilot || pb.Pilot != pc.Pilot {
		t.Errorf("conventional pattern used pilots %s %s %s", pa.Pilot, pb.Pilot, pc.Pilot)
	}
}

func TestDistributedPatternsUseSeparatePilots(t *testing.T) {
	ds := tinyDS(t)
	rep, err := Run(ds, tinyConfig())
	if err != nil {
		t.Fatal(err)
	}
	pa, _ := rep.Stage("PA")
	pb, _ := rep.Stage("PB")
	if pa.Pilot == pb.Pilot {
		t.Error("distributed pattern reused one pilot")
	}
}

// Table IV behaviour: a static c3.2xlarge run on a P. Crispa-sized
// dataset fails in pre-processing (40 GB > 16 GB), while the dynamic
// pattern picks r3.2xlarge and proceeds.
func TestStaticUndersizedFailsDynamicAdapts(t *testing.T) {
	prof := simdata.Tiny()
	prof.FullScale = simdata.PCrispa().FullScale
	prof.FullScale.AssemblyKmers = simdata.Tiny().FullScale.AssemblyKmers // keep scaled-k plan
	ds, err := simdata.Generate(prof)
	if err != nil {
		t.Fatal(err)
	}
	static := tinyConfig()
	static.Pattern = DistributedStatic
	static.InstanceType = "c3.2xlarge"
	rep, err := Run(ds, static)
	if err == nil {
		t.Fatal("undersized static run succeeded")
	}
	if !strings.Contains(err.Error(), "out of memory") {
		t.Errorf("failure is not an OOM: %v", err)
	}
	if rep == nil || rep.CostUSD <= 0 {
		t.Error("failed run should still have a bill (the paper's failure cost motivation)")
	}

	dynamic := tinyConfig()
	dynamic.Pattern = DistributedDynamic
	rep, err = Run(ds, dynamic)
	if err != nil {
		t.Fatalf("dynamic run failed: %v", err)
	}
	// The dynamic pattern must have chosen the memory-heavy type for PA.
	bill := rep.Bill
	foundR3 := false
	for _, line := range bill {
		if line.Type == "r3.2xlarge" {
			foundR3 = true
		}
	}
	if !foundR3 {
		t.Errorf("dynamic run never used r3.2xlarge: %+v", bill)
	}
}

func TestUnknownAssemblerRejected(t *testing.T) {
	ds := tinyDS(t)
	cfg := tinyConfig()
	cfg.Assemblers = []string{"nope"}
	if _, err := Run(ds, cfg); err == nil {
		t.Fatal("unknown assembler accepted")
	}
}

func TestSingleAssemblerOption(t *testing.T) {
	ds := tinyDS(t)
	cfg := tinyConfig()
	cfg.Assemblers = []string{"velvet"}
	rep, err := Run(ds, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Transcripts) == 0 {
		t.Fatal("velvet-only run empty")
	}
	// Velvet jobs are single node: 2 ks × 1 node = 2 nodes.
	if rep.AssemblyNodes != 2 {
		t.Errorf("nodes %d", rep.AssemblyNodes)
	}
}

func TestDeterministicRuns(t *testing.T) {
	ds := tinyDS(t)
	cfg := tinyConfig()
	r1, err := Run(ds, cfg)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := Run(ds, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if r1.TTC != r2.TTC || r1.CostUSD != r2.CostUSD {
		t.Errorf("nondeterministic: %v/$%.2f vs %v/$%.2f", r1.TTC, r1.CostUSD, r2.TTC, r2.CostUSD)
	}
	if len(r1.Transcripts) != len(r2.Transcripts) {
		t.Error("nondeterministic transcripts")
	}
}

func TestParallelPreprocessingSpeedsPA(t *testing.T) {
	ds := tinyDS(t)
	paDur := func(shards int) vclock.Duration {
		cfg := tinyConfig()
		cfg.ParallelPreprocessShards = shards
		rep, err := Run(ds, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if len(rep.Transcripts) == 0 {
			t.Fatal("no transcripts")
		}
		pa, _ := rep.Stage("PA")
		return pa.Duration()
	}
	one, four := paDur(1), paDur(4)
	ratio := float64(one) / float64(four)
	if ratio < 3 || ratio > 5 {
		t.Errorf("4-shard PA speedup %.2f, want ≈4", ratio)
	}
}

// Data-parallel pre-processing also divides the per-node footprint:
// the P. Crispa-sized workload that fails on a single c3.2xlarge
// becomes feasible when sharded — the motivation behind the paper's
// future-work item on pilot-powered pre-processing.
func TestParallelPreprocessingAvoidsOOM(t *testing.T) {
	prof := simdata.Tiny()
	prof.FullScale = simdata.PCrispa().FullScale
	prof.FullScale.AssemblyKmers = simdata.Tiny().FullScale.AssemblyKmers
	ds, err := simdata.Generate(prof)
	if err != nil {
		t.Fatal(err)
	}
	cfg := tinyConfig()
	cfg.Pattern = DistributedStatic
	cfg.InstanceType = "r3.2xlarge" // assembly still needs the big nodes
	cfg.ParallelPreprocessShards = 1
	if _, err := Run(ds, cfg); err != nil {
		t.Fatalf("r3 baseline failed: %v", err)
	}
	cfg.InstanceType = "c3.2xlarge"
	if _, err := Run(ds, cfg); err == nil {
		t.Fatal("single-shard c3 run should OOM")
	}
	// Sharding pre-processing 4× fits each shard in 16 GB; assembly
	// jobs at 2 nodes each also fit (24.7/2 per the Table IV model is
	// for the 2-node baseline; here contrail spans 2 nodes and MPI
	// jobs 1, so keep r3 for assembly via dynamic pattern instead).
	cfg.Pattern = DistributedDynamic
	cfg.ParallelPreprocessShards = 4
	rep, err := Run(ds, cfg)
	if err != nil {
		t.Fatalf("sharded run failed: %v", err)
	}
	if len(rep.Transcripts) == 0 {
		t.Fatal("no transcripts")
	}
}

func TestConsensusMergeOption(t *testing.T) {
	ds := tinyDS(t)
	cfg := tinyConfig()
	cfg.ConsensusMerge = true
	rep, err := Run(ds, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Transcripts) == 0 {
		t.Fatal("consensus merge produced nothing")
	}
	// Precision is capped by the annotation CDS fraction (the
	// assembly legitimately contains UTR sequence absent from the
	// gene annotations, as in the paper).
	if rep.Metrics.Precision < 0.75 {
		t.Errorf("consensus precision %.2f", rep.Metrics.Precision)
	}
	plain := tinyConfig()
	plainRep, err := Run(ds, plain)
	if err != nil {
		t.Fatal(err)
	}
	// Consensus validation must never add unsupported sequence.
	if rep.Metrics.Precision+1e-9 < plainRep.Metrics.Precision {
		t.Errorf("consensus precision %.3f below plain %.3f",
			rep.Metrics.Precision, plainRep.Metrics.Precision)
	}
}

func TestTwoConditionDifferentialExpression(t *testing.T) {
	ds := tinyDS(t)
	// Perturb the most-expressed gene for condition B.
	exprB := append([]float64(nil), ds.Expression...)
	best := 0
	for i, e := range exprB {
		if e > exprB[best] {
			best = i
		}
	}
	exprB[best] *= 10
	condB, err := ds.Resample(exprB, ds.Profile.Seed+7)
	if err != nil {
		t.Fatal(err)
	}
	cfg := tinyConfig()
	cfg.Assemblers = []string{"velvet"}
	cfg.ConditionB = &condB
	rep, err := Run(ds, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if rep.QuantB == nil || len(rep.DiffExpr) == 0 {
		t.Fatal("differential-expression outputs missing")
	}
	sig := 0
	for _, r := range rep.DiffExpr {
		if r.Significant {
			sig++
		}
	}
	if sig == 0 {
		t.Error("10× perturbation not detected")
	}
	// The second quantification is billed: PC takes roughly twice the
	// single-condition PC.
	single := tinyConfig()
	single.Assemblers = []string{"velvet"}
	repSingle, err := Run(ds, single)
	if err != nil {
		t.Fatal(err)
	}
	pcB, _ := rep.Stage("PC")
	pcS, _ := repSingle.Stage("PC")
	ratio := float64(pcB.Duration()) / float64(pcS.Duration())
	if ratio < 1.8 || ratio > 2.2 {
		t.Errorf("two-condition PC %.2f× single-condition PC, want ≈2", ratio)
	}
}

func TestTimelineRendering(t *testing.T) {
	ds := tinyDS(t)
	cfg := tinyConfig()
	cfg.Assemblers = []string{"velvet"}
	rep, err := Run(ds, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Events) == 0 {
		t.Fatal("no events captured")
	}
	tl := rep.Timeline(60)
	for _, want := range []string{"PA", "PB", "PC", "velvet-k21", "postprocess"} {
		if !strings.Contains(tl, want) {
			t.Errorf("timeline missing %q:\n%s", want, tl)
		}
	}
}

func TestShardReadSet(t *testing.T) {
	rs := seq.ReadSet{Paired: true}
	for f := 0; f < 10; f++ {
		rs.Reads = append(rs.Reads,
			seq.Read{ID: fmt.Sprintf("f%d/1", f), Seq: []byte("ACGT")},
			seq.Read{ID: fmt.Sprintf("f%d/2", f), Seq: []byte("ACGT")},
		)
	}
	shards := shardReadSet(rs, 3)
	total := 0
	for _, s := range shards {
		if !s.Paired || len(s.Reads)%2 != 0 {
			t.Fatal("shard broke pairing")
		}
		for i := 0; i < len(s.Reads); i += 2 {
			id1, id2 := s.Reads[i].ID, s.Reads[i+1].ID
			if id1[:len(id1)-2] != id2[:len(id2)-2] {
				t.Fatalf("mates separated: %s / %s", id1, id2)
			}
		}
		total += len(s.Reads)
	}
	if total != len(rs.Reads) {
		t.Fatalf("shards lost reads: %d of %d", total, len(rs.Reads))
	}
}

func TestChooseInstanceType(t *testing.T) {
	p := cloud.NewProvider(vclock.NewClock(0), cloud.Options{})
	it, err := ChooseInstanceType(p, 40, 8)
	if err != nil || it.Name != "r3.2xlarge" {
		t.Errorf("40GB/8c -> %v %v, want r3.2xlarge", it, err)
	}
	it, err = ChooseInstanceType(p, 8, 8)
	if err != nil || it.Name != "c3.2xlarge" {
		t.Errorf("8GB/8c -> %v %v, want c3.2xlarge (cheapest 8-core)", it, err)
	}
	if _, err := ChooseInstanceType(p, 10_000, 1); err == nil {
		t.Error("impossible demand satisfied")
	}
}

func TestAssemblyNodesFor(t *testing.T) {
	// The sample run: 2 ks, ray+abyss+contrail, 1 node per MPI job,
	// 16 per Contrail job → 36 nodes.
	if n := AssemblyNodesFor([]int{41, 47}, []string{"ray", "abyss", "contrail"}, 1, 16); n != 36 {
		t.Errorf("sample-run sizing %d, want 36", n)
	}
	if n := AssemblyNodesFor(nil, nil, 1, 16); n != 1 {
		t.Errorf("degenerate sizing %d", n)
	}
}

func TestTableIVMatrix(t *testing.T) {
	bg := simdata.BGlumae().FullScale
	pc := simdata.PCrispa().FullScale
	c3, _ := ChooseInstanceType(cloud.NewProvider(vclock.NewClock(0), cloud.Options{}), 10, 8)
	_ = c3
	type cell struct {
		task Task
		fs   simdata.FullScaleStats
		it   cloud.InstanceType
		want bool
	}
	cells := []cell{
		// The paper's Table IV, row by row.
		{TaskPreprocess, bg, cloud.C32XLarge, true},
		{TaskPreprocess, pc, cloud.C32XLarge, false},
		{TaskPreprocess, bg, cloud.R32XLarge, true},
		{TaskPreprocess, pc, cloud.R32XLarge, true},
		{TaskAssemblyRay, bg, cloud.C32XLarge, true},
		{TaskAssemblyRay, pc, cloud.C32XLarge, false},
		{TaskAssemblyRay, pc, cloud.R32XLarge, true},
		{TaskAssemblyABySS, pc, cloud.C32XLarge, false},
		{TaskAssemblyABySS, pc, cloud.R32XLarge, true},
		{TaskAssemblyContrail, bg, cloud.C32XLarge, true},
		{TaskAssemblyContrail, pc, cloud.C32XLarge, false},
		{TaskAssemblyContrail, pc, cloud.R32XLarge, true},
		{TaskPostprocess, bg, cloud.C32XLarge, true},
		{TaskPostprocess, pc, cloud.C32XLarge, true}, // the one P. Crispa "O" on c3
		{TaskPostprocess, pc, cloud.R32XLarge, true},
	}
	for _, c := range cells {
		if got := Feasible(c.task, c.fs, c.it); got != c.want {
			t.Errorf("%v / %s on %s: got %v want %v (%.1f GB)",
				c.task, orgName(c.fs, bg), c.it.Name, got, c.want, TaskMemoryGB(c.task, c.fs))
		}
	}
}

func orgName(fs, bg simdata.FullScaleStats) string {
	if fs.GenomeSizeBp == bg.GenomeSizeBp {
		return "B. Glumae"
	}
	return "P. Crispa"
}

func TestMultiKMakespanTaskParallelism(t *testing.T) {
	ds := tinyDS(t)
	ks := []int{19, 21, 23, 25}
	m1, err := MultiKMakespan(ds, "ray", ks, 1, 1, "c3.2xlarge")
	if err != nil {
		t.Fatal(err)
	}
	m2, err := MultiKMakespan(ds, "ray", ks, 2, 1, "c3.2xlarge")
	if err != nil {
		t.Fatal(err)
	}
	m3, err := MultiKMakespan(ds, "ray", ks, 3, 1, "c3.2xlarge")
	if err != nil {
		t.Fatal(err)
	}
	m4, err := MultiKMakespan(ds, "ray", ks, 4, 1, "c3.2xlarge")
	if err != nil {
		t.Fatal(err)
	}
	if !(m2.Makespan < m1.Makespan) {
		t.Errorf("2 nodes (%v) not faster than 1 (%v)", m2.Makespan, m1.Makespan)
	}
	// The paper's finding: 3 nodes still slightly better than 2.
	if !(m3.Makespan < m2.Makespan) {
		t.Errorf("3 nodes (%v) not better than 2 (%v)", m3.Makespan, m2.Makespan)
	}
	if !(m4.Makespan <= m3.Makespan) {
		t.Errorf("4 nodes (%v) worse than 3 (%v)", m4.Makespan, m3.Makespan)
	}
	// 1-node makespan ≈ sum of jobs; 4-node ≈ max job.
	var sum, max vclock.Duration
	for _, d := range m1.PerJob {
		sum += d
		if d > max {
			max = d
		}
	}
	if m1.Makespan < sum-1 {
		t.Errorf("1-node makespan %v below job sum %v", m1.Makespan, sum)
	}
	if m4.Makespan > max+1 {
		t.Errorf("4-node makespan %v above max job %v", m4.Makespan, max)
	}
	if _, err := MultiKMakespan(ds, "ray", nil, 1, 1, "c3.2xlarge"); err == nil {
		t.Error("empty k list accepted")
	}
}
