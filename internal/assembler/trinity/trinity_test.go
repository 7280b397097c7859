package trinity

import (
	"math/rand"
	"runtime"
	"strings"
	"testing"

	"rnascale/internal/assembler"
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
	tr := &Trinity{}
	res, err := tr.Assemble(assembler.Request{
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
	if got != genome && string(seq.ReverseComplement([]byte(got))) != genome {
		t.Error("reconstruction failed")
	}
	if !strings.HasPrefix(res.Contigs[0].ID, "trinity_contig00000") {
		t.Errorf("ID %q", res.Contigs[0].ID)
	}
}

// The defining behavioural difference from the DBG tools: at a branch
// created by a shared domain, the greedy walk continues through the
// higher-coverage side, producing a chimera; a DBG unitig walk stops.
func TestGreedyWalksThroughSharedDomain(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	domain := randSeq(rng, 120)
	a1, a2 := randSeq(rng, 150), randSeq(rng, 150)
	b1, b2 := randSeq(rng, 150), randSeq(rng, 150)
	geneA := a1 + domain + a2
	geneB := b1 + domain + b2
	var reads []seq.Read
	shredInto(&reads, geneA, 40, 1, 4) // gene A dominant
	shredInto(&reads, geneB, 40, 1, 1)
	tr := &Trinity{}
	res, err := tr.Assemble(assembler.Request{
		Reads: reads, Params: assembler.Params{K: 21, MinCoverage: 1},
		Nodes: 1, CoresPerNode: 8, FullScale: simdata.Tiny().FullScale,
	})
	if err != nil {
		t.Fatal(err)
	}
	// The longest greedy contig must span the whole dominant gene —
	// including the shared domain the DBG tools would break at.
	longest := string(res.Contigs[0].Seq)
	rc := string(seq.ReverseComplement([]byte(longest)))
	spans := strings.Contains(longest, a1[100:]+domain[:20]) || strings.Contains(rc, a1[100:]+domain[:20])
	if !spans || len(longest) < len(geneA)-10 {
		t.Errorf("greedy walk did not span the branch: longest %d bp (gene %d bp)", len(longest), len(geneA))
	}
}

func TestOnSyntheticDataset(t *testing.T) {
	ds, err := simdata.Generate(simdata.Tiny())
	if err != nil {
		t.Fatal(err)
	}
	tr := &Trinity{}
	res, err := tr.Assemble(assembler.Request{
		Reads: ds.Reads.Reads, Params: assembler.Params{K: 21},
		Nodes: 1, CoresPerNode: 8, FullScale: ds.Profile.FullScale,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Contigs) == 0 || res.N50 == 0 {
		t.Fatal("empty assembly")
	}
	// Length-sorted.
	for i := 1; i < len(res.Contigs); i++ {
		if len(res.Contigs[i].Seq) > len(res.Contigs[i-1].Seq) {
			t.Fatal("not sorted")
		}
	}
}

func TestTrinitySlowerThanVelvetWouldBe(t *testing.T) {
	ds, _ := simdata.Generate(simdata.Tiny())
	fs := simdata.BGlumae().FullScale
	tr := &Trinity{}
	res, err := tr.Assemble(assembler.Request{
		Reads: ds.Reads.Reads, Params: assembler.Params{K: 21},
		Nodes: 1, CoresPerNode: 8, FullScale: fs,
	})
	if err != nil {
		t.Fatal(err)
	}
	// Trinity's rate is ~4× slower than Velvet's; its memory model is
	// also heavier.
	if res.TTC.Seconds() < 100 {
		t.Errorf("TTC %v unexpectedly fast for full-scale stats", res.TTC)
	}
	if res.PeakMemoryGBPerNode <= assemblerGraphMem(fs) {
		t.Error("trinity memory not above the plain graph model")
	}
}

func assemblerGraphMem(fs simdata.FullScaleStats) float64 {
	return assembler.GraphMemoryGB(fs, 1)
}

func TestHelpers(t *testing.T) {
	if pad5(7) != "00007" || pad5(123456) != "123456" {
		t.Error("pad5")
	}
	if itoa(0) != "0" || itoa(90210) != "90210" {
		t.Error("itoa")
	}
}

func TestInfo(t *testing.T) {
	tr := &Trinity{}
	if tr.Info().Name != "trinity" || tr.Info().MultiNode() || tr.Info().Version != "2.1.1" {
		t.Errorf("info %+v", tr.Info())
	}
}

// On the tiny profile's cleaned reads at k 21 Assemble allocates 11.2
// bytes per window, nearly all of it the count table and the seed
// list. Counting into a Go map allocated 16.0. The bound, 15 % over
// the table figure, keeps a map from creeping back.
func TestAssembleBytesPerWindow(t *testing.T) {
	reads, fs := cleanedReads(t, simdata.Tiny())
	const k = 21
	windows := 0
	for _, r := range reads {
		windows += max(0, len(r.Seq)-k+1)
	}
	req := assembler.Request{
		Reads: reads, Params: assembler.Params{K: k},
		Nodes: 1, CoresPerNode: 8, FullScale: fs,
	}
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	res, err := (&Trinity{}).Assemble(req)
	runtime.ReadMemStats(&after)
	if err != nil || len(res.Contigs) == 0 {
		t.Fatalf("%d contigs, %v", len(res.Contigs), err)
	}
	perWindow := float64(after.TotalAlloc-before.TotalAlloc) / float64(windows)
	t.Logf("%d windows, %d contigs, %.1f bytes per window", windows, len(res.Contigs), perWindow)
	if perWindow > 13 {
		t.Errorf("Assemble allocated %.1f bytes per window, want ≤ 13", perWindow)
	}
}
