package oases

import (
	"math/rand"
	"strings"
	"testing"

	"rnascale/internal/assembler"
	"rnascale/internal/assembler/velvet"
	"rnascale/internal/seq"
	"rnascale/internal/simdata"
)

func randSeq(rng *rand.Rand, n int) string {
	bases := "ACGT"
	b := make([]byte, n)
	for i := range b {
		b[i] = bases[rng.Intn(4)]
	}
	return string(b)
}

func shredInto(reads *[]seq.Read, s string, readLen, step, copies int) {
	for c := 0; c < copies; c++ {
		for i := 0; i+readLen <= len(s); i += step {
			*reads = append(*reads, seq.Read{ID: "r", Seq: []byte(s[i : i+readLen])})
		}
	}
}

func TestAssembleLinear(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	genome := randSeq(rng, 400)
	var reads []seq.Read
	shredInto(&reads, genome, 40, 1, 2)
	o := &Oases{}
	res, err := o.Assemble(assembler.Request{
		Reads: reads, Params: assembler.Params{K: 21, MinCoverage: 1},
		Nodes: 1, CoresPerNode: 8, FullScale: simdata.Tiny().FullScale,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Contigs) != 1 {
		t.Fatalf("%d transfrags", len(res.Contigs))
	}
}

// The defining difference from Velvet: a SNP isoform (a simple
// bubble) survives as its own transfrag instead of being popped.
func TestIsoformBubbleRetained(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	major := randSeq(rng, 400)
	minor := []byte(major)
	if minor[200] == 'A' {
		minor[200] = 'G'
	} else {
		minor[200] = 'A'
	}
	var reads []seq.Read
	shredInto(&reads, major, 40, 1, 3)
	shredInto(&reads, string(minor), 40, 1, 1)
	req := assembler.Request{
		Reads: reads, Params: assembler.Params{K: 21, MinCoverage: 1},
		Nodes: 1, CoresPerNode: 8, FullScale: simdata.Tiny().FullScale,
	}
	vres, err := (&velvet.Velvet{}).Assemble(req)
	if err != nil {
		t.Fatal(err)
	}
	ores, err := (&Oases{}).Assemble(req)
	if err != nil {
		t.Fatal(err)
	}
	bases := func(cs []seq.FastaRecord) int {
		n := 0
		for _, c := range cs {
			n += len(c.Seq)
		}
		return n
	}
	// Velvet pops the minor allele; Oases keeps variant sequence, so
	// it must emit strictly more assembled bases.
	if bases(ores.Contigs) <= bases(vres.Contigs) {
		t.Errorf("oases %d bases not above velvet %d; variant lost", bases(ores.Contigs), bases(vres.Contigs))
	}
	// The minor allele's k-mer neighbourhood must be present in the
	// Oases output.
	window := string(minor[190:211])
	found := false
	for _, c := range ores.Contigs {
		if strings.Contains(string(c.Seq), window) ||
			strings.Contains(string(seq.ReverseComplement(c.Seq)), window) {
			found = true
		}
	}
	if !found {
		t.Error("minor allele window absent from oases transfrags")
	}
}

func TestOnSyntheticDataset(t *testing.T) {
	ds, err := simdata.Generate(simdata.Tiny())
	if err != nil {
		t.Fatal(err)
	}
	o := &Oases{}
	res, err := o.Assemble(assembler.Request{
		Reads: ds.Reads.Reads, Params: assembler.Params{K: 21},
		Nodes: 1, CoresPerNode: 8, FullScale: ds.Profile.FullScale,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Contigs) == 0 {
		t.Fatal("no transfrags")
	}
}

func TestInfoAndEmpty(t *testing.T) {
	o := &Oases{}
	if o.Info().Name != "oases" || o.Info().MultiNode() {
		t.Errorf("info %+v", o.Info())
	}
	_, err := o.Assemble(assembler.Request{
		Reads:  []seq.Read{{ID: "r", Seq: []byte("ACGTACGTACGTACGTACGTAC")}},
		Params: assembler.Params{K: 21, MinCoverage: 5},
		Nodes:  1, CoresPerNode: 1, FullScale: simdata.Tiny().FullScale,
	})
	if err == nil || !strings.Contains(err.Error(), "no transfrags") {
		t.Errorf("empty result error: %v", err)
	}
}

func TestEstimateMatchesCostModel(t *testing.T) {
	ds, _ := simdata.Generate(simdata.Tiny())
	req := assembler.Request{
		Reads: ds.Reads.Reads, Params: assembler.Params{K: 21},
		Nodes: 1, CoresPerNode: 8, FullScale: simdata.BGlumae().FullScale,
	}
	o := &Oases{}
	predicted, err := o.Estimate(req)
	if err != nil {
		t.Fatal(err)
	}
	res, err := o.Assemble(req)
	if err != nil {
		t.Fatal(err)
	}
	if predicted.TTC != res.TTC {
		t.Errorf("estimate %v != measured %v", predicted.TTC, res.TTC)
	}
}
