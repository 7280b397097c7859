package all

import (
	"fmt"
	"strings"
	"testing"

	"rnascale/internal/assembler"
	"rnascale/internal/seq"
	"rnascale/internal/simdata"
	"rnascale/internal/vclock"
)

// tinyDataset is generated once for the package's tests.
func tinyDataset(t *testing.T) *simdata.Dataset {
	t.Helper()
	ds, err := simdata.Generate(simdata.Tiny())
	if err != nil {
		t.Fatal(err)
	}
	return ds
}

// cleanReads strips reads containing N (Contrail requires it, and it
// keeps the quality comparison uniform).
func cleanReads(ds *simdata.Dataset) []seq.Read {
	return seq.NFree(ds.Reads.Reads)
}

func TestTableIInventory(t *testing.T) {
	want := map[string]assembler.Info{
		"ray":      {Name: "ray", GraphType: "DBG", Distributed: "MPI", Version: "2.3.1"},
		"abyss":    {Name: "abyss", GraphType: "DBG", Distributed: "MPI", Version: "1.9.0"},
		"contrail": {Name: "contrail", GraphType: "DBG", Distributed: "Hadoop MapReduce", Version: "0.8.2"},
	}
	for name, wi := range want {
		a, err := assembler.Get(name)
		if err != nil {
			t.Fatalf("%s not registered: %v", name, err)
		}
		if a.Info() != wi {
			t.Errorf("%s info %+v, want %+v", name, a.Info(), wi)
		}
		if !a.Info().MultiNode() {
			t.Errorf("%s must be multi-node", name)
		}
	}
	for _, name := range []string{"velvet", "trinity"} {
		a, err := assembler.Get(name)
		if err != nil {
			t.Fatalf("%s not registered: %v", name, err)
		}
		if a.Info().MultiNode() {
			t.Errorf("%s must be single-node", name)
		}
	}
}

// kmerPrecision measures the fraction of contig k-mers present in the
// ground-truth transcriptome.
func kmerPrecision(t *testing.T, contigs []seq.FastaRecord, truth []seq.FastaRecord, k int) float64 {
	t.Helper()
	coder := seq.MustKmerCoder(k)
	ref := map[seq.Kmer]bool{}
	for _, tx := range truth {
		coder.ForEachCanonical(tx.Seq, func(_ int, c seq.Kmer) bool {
			ref[c] = true
			return true
		})
	}
	var hit, total int
	for _, c := range contigs {
		coder.ForEachCanonical(c.Seq, func(_ int, canon seq.Kmer) bool {
			total++
			if ref[canon] {
				hit++
			}
			return true
		})
	}
	if total == 0 {
		return 0
	}
	return float64(hit) / float64(total)
}

func TestEveryAssemblerProducesFaithfulContigs(t *testing.T) {
	ds := tinyDataset(t)
	reads := cleanReads(ds)
	for _, name := range []string{"ray", "abyss", "contrail", "velvet", "trinity"} {
		t.Run(name, func(t *testing.T) {
			a, err := assembler.Get(name)
			if err != nil {
				t.Fatal(err)
			}
			nodes := 2
			if !a.Info().MultiNode() {
				nodes = 1
			}
			res, err := a.Assemble(assembler.Request{
				Reads:        reads,
				Params:       assembler.Params{K: 21, MinCoverage: 2},
				Nodes:        nodes,
				CoresPerNode: 4,
				FullScale:    ds.Profile.FullScale,
			})
			if err != nil {
				t.Fatal(err)
			}
			if len(res.Contigs) == 0 {
				t.Fatal("no contigs")
			}
			if res.TTC <= 0 {
				t.Error("non-positive TTC")
			}
			if res.PeakMemoryGBPerNode <= 0 {
				t.Error("non-positive memory")
			}
			if res.N50 <= 0 {
				t.Error("non-positive N50")
			}
			if prec := kmerPrecision(t, res.Contigs, ds.Transcripts, 21); prec < 0.9 {
				t.Errorf("k-mer precision %.3f < 0.9", prec)
			}
			// Longest-first ordering.
			for i := 1; i < len(res.Contigs); i++ {
				if len(res.Contigs[i].Seq) > len(res.Contigs[i-1].Seq) {
					t.Fatal("contigs not length-sorted")
				}
			}
		})
	}
}

func TestAssemblersDeterministic(t *testing.T) {
	ds := tinyDataset(t)
	reads := cleanReads(ds)
	for _, name := range []string{"ray", "contrail"} {
		a, _ := assembler.Get(name)
		run := func() string {
			res, err := a.Assemble(assembler.Request{
				Reads: reads, Params: assembler.Params{K: 21, MinCoverage: 2},
				Nodes: 2, CoresPerNode: 2, FullScale: ds.Profile.FullScale,
			})
			if err != nil {
				t.Fatal(err)
			}
			var b strings.Builder
			fmt.Fprintf(&b, "%v|", res.TTC)
			for _, c := range res.Contigs {
				b.Write(c.Seq)
				b.WriteByte('\n')
			}
			return b.String()
		}
		first := run()
		for i := 0; i < 2; i++ {
			if run() != first {
				t.Fatalf("%s nondeterministic", name)
			}
		}
	}
}

// Table III: baseline TTC on the two-node c3.2xlarge cluster,
// B. Glumae, k=47. The absolute targets are the paper's numbers; we
// require each tool within a generous band and, more importantly, the
// ordering ABySS < Ray ≪ Contrail.
func TestTableIIICalibration(t *testing.T) {
	ds := tinyDataset(t) // scaled reads; cost models use full-scale stats
	reads := cleanReads(ds)
	fs := simdata.BGlumae().FullScale
	ttc := map[string]vclock.Duration{}
	for _, name := range []string{"ray", "abyss", "contrail"} {
		a, _ := assembler.Get(name)
		res, err := a.Assemble(assembler.Request{
			Reads: reads, Params: assembler.Params{K: 21, MinCoverage: 2},
			Nodes: 2, CoresPerNode: 8, FullScale: fs,
		})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		ttc[name] = res.TTC
		t.Logf("%s: TTC %v (paper: ray 1721s, abyss 882s, contrail 6720s)", name, res.TTC)
	}
	check := func(name string, target, tol float64) {
		got := float64(ttc[name])
		if got < target*(1-tol) || got > target*(1+tol) {
			t.Errorf("%s TTC %.0fs outside %.0f%% of paper's %.0fs", name, got, tol*100, target)
		}
	}
	check("ray", 1721, 0.35)
	check("abyss", 882, 0.35)
	check("contrail", 6720, 0.45)
	if !(ttc["abyss"] < ttc["ray"] && ttc["ray"] < ttc["contrail"]) {
		t.Errorf("ordering violated: %v", ttc)
	}
	if float64(ttc["contrail"])/float64(ttc["ray"]) < 2 {
		t.Error("Contrail should be several times slower than Ray at 2 nodes")
	}
}

// Fig. 3 shape: scale-out from 2 to 16 nodes. Ray gains marginally,
// ABySS is near-flat, Contrail improves dramatically and converges
// toward the MPI tools.
func TestFig3ScaleOutShape(t *testing.T) {
	ds := tinyDataset(t)
	reads := cleanReads(ds)
	fs := simdata.PCrispa().FullScale
	run := func(name string, nodes int) vclock.Duration {
		a, _ := assembler.Get(name)
		res, err := a.Assemble(assembler.Request{
			Reads: reads, Params: assembler.Params{K: 21, MinCoverage: 2},
			Nodes: nodes, CoresPerNode: 8, FullScale: fs,
		})
		if err != nil {
			t.Fatalf("%s@%d: %v", name, nodes, err)
		}
		return res.TTC
	}
	ray2, ray16 := run("ray", 2), run("ray", 16)
	abyss2, abyss16 := run("abyss", 2), run("abyss", 16)
	con2, con16 := run("contrail", 2), run("contrail", 16)
	t.Logf("ray %v→%v  abyss %v→%v  contrail %v→%v", ray2, ray16, abyss2, abyss16, con2, con16)

	// Ray: some gain, but far from linear (16/2 = 8× resources).
	if ray16 >= ray2 {
		t.Error("ray gained nothing at all")
	}
	if float64(ray2)/float64(ray16) > 2.5 {
		t.Errorf("ray speedup %.1f too strong; paper reports marginal gains", float64(ray2)/float64(ray16))
	}
	// ABySS: no significant gain (<15%).
	if float64(abyss2)/float64(abyss16) > 1.3 {
		t.Errorf("abyss speedup %.2f; paper reports no significant gain", float64(abyss2)/float64(abyss16))
	}
	// Contrail: dramatic improvement, converging toward MPI TTCs.
	if float64(con2)/float64(con16) < 2.5 {
		t.Errorf("contrail speedup %.1f too weak; paper shows strong gains from added workers", float64(con2)/float64(con16))
	}
	gapAt2 := float64(con2) / float64(ray2)
	gapAt16 := float64(con16) / float64(ray16)
	if gapAt16 >= gapAt2 {
		t.Errorf("contrail/ray gap grew with nodes (%.1f → %.1f); TTCs should converge", gapAt2, gapAt16)
	}
}

func TestContrailRejectsNReads(t *testing.T) {
	ds := tinyDataset(t)
	withN := append([]seq.Read{}, cleanReads(ds)...)
	withN = append(withN, seq.Read{ID: "nn", Seq: []byte("ACGTNACGTACGTACGTACGTACGTACGT")})
	a, _ := assembler.Get("contrail")
	_, err := a.Assemble(assembler.Request{
		Reads: withN, Params: assembler.Params{K: 21, MinCoverage: 2},
		Nodes: 2, CoresPerNode: 2, FullScale: ds.Profile.FullScale,
	})
	if err == nil || !strings.Contains(err.Error(), "contains N") {
		t.Errorf("N reads accepted: %v", err)
	}
}

// Ray's conservative coverage default assembles less of the weakly
// expressed transcriptome than ABySS's permissive default — the root
// of the Table V recall gap.
func TestCoverageCutoffDrivesRecallDifference(t *testing.T) {
	ds := tinyDataset(t)
	reads := cleanReads(ds)
	total := func(name string) int {
		a, _ := assembler.Get(name)
		res, err := a.Assemble(assembler.Request{
			Reads: reads, Params: assembler.Params{K: 21}, // tool defaults for MinCoverage
			Nodes: 2, CoresPerNode: 2, FullScale: ds.Profile.FullScale,
		})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		n := 0
		for _, c := range res.Contigs {
			n += len(c.Seq)
		}
		return n
	}
	if rayBases, abyssBases := total("ray"), total("abyss"); rayBases >= abyssBases {
		t.Errorf("ray assembled %d bases ≥ abyss %d; conservative cutoff should assemble less", rayBases, abyssBases)
	}
}

func TestVelvetRejectsMultiNode(t *testing.T) {
	ds := tinyDataset(t)
	a, _ := assembler.Get("velvet")
	_, err := a.Assemble(assembler.Request{
		Reads: ds.Reads.Reads, Params: assembler.Params{K: 21},
		Nodes: 2, CoresPerNode: 8, FullScale: ds.Profile.FullScale,
	})
	if err == nil {
		t.Error("velvet accepted 2 nodes")
	}
}

// Fig. 4 upper panel: Ray TTC falls with input size and (slightly)
// with cores.
func TestFig4aRayInputAndCoreScaling(t *testing.T) {
	ds := tinyDataset(t)
	reads := cleanReads(ds)
	a, _ := assembler.Get("ray")
	run := func(fs simdata.FullScaleStats, nodes int) vclock.Duration {
		res, err := a.Assemble(assembler.Request{
			Reads: reads, Params: assembler.Params{K: 21, MinCoverage: 2},
			Nodes: nodes, CoresPerNode: 8, FullScale: fs,
		})
		if err != nil {
			t.Fatal(err)
		}
		return res.TTC
	}
	full := simdata.PCrispa().FullScale
	half := full
	half.SeqDataBytes /= 2
	quarter := full
	quarter.SeqDataBytes /= 4
	if !(run(quarter, 1) < run(half, 1) && run(half, 1) < run(full, 1)) {
		t.Error("TTC not increasing with input size")
	}
	if run(full, 4) >= run(full, 1) {
		t.Error("TTC not decreasing with cores at all")
	}
}
