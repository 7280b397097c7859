package velvet

import (
	"math/rand"
	"testing"

	"rnascale/internal/assembler"
	"rnascale/internal/seq"
	"rnascale/internal/simdata"
)

func shred(rng *rand.Rand, n, readLen, step int) (string, []seq.Read) {
	bases := "ACGT"
	g := make([]byte, n)
	for i := range g {
		g[i] = bases[rng.Intn(4)]
	}
	var reads []seq.Read
	for i := 0; i+readLen <= len(g); i += step {
		reads = append(reads, seq.Read{ID: "r", Seq: g[i : i+readLen]})
	}
	return string(g), reads
}

func TestAssembleLinear(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	genome, reads := shred(rng, 500, 40, 1)
	v := &Velvet{}
	res, err := v.Assemble(assembler.Request{
		Reads: reads, Params: assembler.Params{K: 21, MinCoverage: 1},
		Nodes: 1, CoresPerNode: 8, FullScale: simdata.Tiny().FullScale,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Contigs) != 1 {
		t.Fatalf("%d contigs", len(res.Contigs))
	}
	got := string(res.Contigs[0].Seq)
	rc := string(seq.ReverseComplement(res.Contigs[0].Seq))
	if got != genome && rc != genome {
		t.Error("reconstruction failed")
	}
	if res.N50 != len(genome) {
		t.Errorf("N50 %d", res.N50)
	}
}

func TestRejectsMultiNode(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	_, reads := shred(rng, 200, 40, 2)
	v := &Velvet{}
	_, err := v.Assemble(assembler.Request{
		Reads: reads, Params: assembler.Params{K: 21},
		Nodes: 2, CoresPerNode: 8, FullScale: simdata.Tiny().FullScale,
	})
	if err == nil {
		t.Fatal("2 nodes accepted by single-node tool")
	}
}

func TestCostScalesWithCores(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	_, reads := shred(rng, 300, 40, 2)
	fs := simdata.BGlumae().FullScale
	run := func(cores int) float64 {
		res, err := (&Velvet{}).Assemble(assembler.Request{
			Reads: reads, Params: assembler.Params{K: 21, MinCoverage: 1},
			Nodes: 1, CoresPerNode: cores, FullScale: fs,
		})
		if err != nil {
			t.Fatal(err)
		}
		return res.TTC.Seconds()
	}
	if !(run(16) < run(8)) {
		t.Error("more cores not faster")
	}
}

func TestInfo(t *testing.T) {
	v := &Velvet{}
	info := v.Info()
	if info.Name != "velvet" || info.MultiNode() || info.GraphType != "DBG" {
		t.Errorf("info %+v", info)
	}
}

func TestEstimateMatchesCostModel(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	_, reads := shred(rng, 300, 40, 2)
	req := assembler.Request{
		Reads: reads, Params: assembler.Params{K: 21, MinCoverage: 1},
		Nodes: 1, CoresPerNode: 8, FullScale: simdata.BGlumae().FullScale,
	}
	v := &Velvet{}
	predicted, err := v.Estimate(req)
	if err != nil {
		t.Fatal(err)
	}
	res, err := v.Assemble(req)
	if err != nil {
		t.Fatal(err)
	}
	if predicted.TTC != res.TTC {
		t.Errorf("estimate %v != measured %v (single-node model is exact)", predicted.TTC, res.TTC)
	}
}
