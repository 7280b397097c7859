package dbg

import (
	"math/rand"
	"strings"
	"testing"

	"rnascale/internal/seq"
	"rnascale/internal/simdata"
)

// shredder cuts a sequence into overlapping error-free reads.
func shred(s string, readLen, step int) []seq.Read {
	var reads []seq.Read
	for i := 0; i+readLen <= len(s); i += step {
		reads = append(reads, seq.Read{ID: "r", Seq: []byte(s[i : i+readLen])})
	}
	return reads
}

func randomSeqStr(rng *rand.Rand, n int) string {
	b := make([]byte, n)
	bases := "ACGT"
	for i := range b {
		b[i] = bases[rng.Intn(4)]
	}
	return string(b)
}

func TestNewValidation(t *testing.T) {
	if _, err := New(0); err == nil {
		t.Error("k=0 accepted")
	}
	if _, err := New(64); err == nil {
		t.Error("k>MaxK accepted")
	}
	g, err := New(21)
	if err != nil || g.K() != 21 {
		t.Fatalf("New(21): %v", err)
	}
}

func TestLinearSequenceYieldsOneUnitig(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	genome := randomSeqStr(rng, 400)
	g, err := Build(shred(genome, 40, 1), 21, 1)
	if err != nil {
		t.Fatal(err)
	}
	unitigs := g.Unitigs(50)
	if len(unitigs) != 1 {
		t.Fatalf("%d unitigs from a linear sequence", len(unitigs))
	}
	got := string(unitigs[0].Seq)
	rc := string(seq.ReverseComplement([]byte(got)))
	if got != genome && rc != genome {
		t.Errorf("unitig does not reconstruct genome: %d vs %d bp", len(got), len(genome))
	}
	if unitigs[0].MeanCoverage < 10 {
		t.Errorf("coverage %v too low for step-1 shredding", unitigs[0].MeanCoverage)
	}
}

func TestReverseComplementReadsCollapse(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	genome := randomSeqStr(rng, 300)
	reads := shred(genome, 40, 2)
	for _, r := range shred(genome, 40, 2) {
		reads = append(reads, seq.Read{ID: "rc", Seq: seq.ReverseComplement(r.Seq)})
	}
	g, _ := Build(reads, 21, 1)
	unitigs := g.Unitigs(50)
	if len(unitigs) != 1 {
		t.Fatalf("%d unitigs; strands did not collapse", len(unitigs))
	}
}

func TestMinCountDropsErrors(t *testing.T) {
	rng := rand.New(rand.NewSource(44))
	genome := randomSeqStr(rng, 300)
	reads := shred(genome, 40, 1)
	// One read with an error in the middle.
	bad := append([]byte{}, reads[5].Seq...)
	if bad[20] == 'A' {
		bad[20] = 'C'
	} else {
		bad[20] = 'A'
	}
	reads = append(reads, seq.Read{ID: "bad", Seq: bad})
	g, _ := Build(reads, 21, 2) // error k-mers have count 1
	unitigs := g.Unitigs(50)
	if len(unitigs) != 1 {
		t.Fatalf("%d unitigs; error k-mers survived min-count filter", len(unitigs))
	}
}

func TestBranchSplitsUnitigs(t *testing.T) {
	rng := rand.New(rand.NewSource(45))
	// Two sequences sharing a middle segment: X-M-Y and Z-M-W forces
	// branches at both ends of M.
	m := randomSeqStr(rng, 120)
	x, y := randomSeqStr(rng, 120), randomSeqStr(rng, 120)
	z, w := randomSeqStr(rng, 120), randomSeqStr(rng, 120)
	reads := shred(x+m+y, 40, 1)
	reads = append(reads, shred(z+m+w, 40, 1)...)
	g, _ := Build(reads, 21, 1)
	unitigs := g.Unitigs(30)
	if len(unitigs) < 4 {
		t.Errorf("%d unitigs; expected the shared segment to split paths", len(unitigs))
	}
}

func TestClipTipsRemovesShortDeadEnds(t *testing.T) {
	rng := rand.New(rand.NewSource(46))
	genome := randomSeqStr(rng, 300)
	reads := shred(genome, 40, 1)
	// A tip: the first 30 bases of a read diverge after position 10.
	tip := append([]byte{}, []byte(genome[100:140])...)
	copy(tip[25:], []byte("ACGTACGTACGTACG")) // corrupt the tail
	reads = append(reads, seq.Read{ID: "tip", Seq: tip}, seq.Read{ID: "tip2", Seq: tip})
	g, _ := Build(reads, 21, 1)
	before := g.Len()
	removed := g.ClipTips(21, 3)
	if removed == 0 {
		t.Fatal("no tips clipped")
	}
	if g.Len() >= before {
		t.Error("graph did not shrink")
	}
	unitigs := g.Unitigs(50)
	if len(unitigs) != 1 {
		t.Errorf("%d unitigs after tip clipping", len(unitigs))
	}
}

func TestPopBubbles(t *testing.T) {
	rng := rand.New(rand.NewSource(47))
	genome := randomSeqStr(rng, 300)
	// A bubble: a SNP variant of the middle region with lower coverage.
	variant := []byte(genome)
	if variant[150] == 'A' {
		variant[150] = 'G'
	} else {
		variant[150] = 'A'
	}
	reads := shred(genome, 40, 1)
	reads = append(reads, shred(genome, 40, 1)...) // main path ×2 coverage
	reads = append(reads, shred(string(variant[120:180]), 40, 3)...)
	g, _ := Build(reads, 21, 1)
	removed := g.PopBubbles(60)
	if removed == 0 {
		t.Fatal("no bubble popped")
	}
	unitigs := g.Unitigs(50)
	if len(unitigs) != 1 {
		t.Errorf("%d unitigs after bubble popping", len(unitigs))
	}
	// The surviving path must be the high-coverage reference.
	if !strings.Contains(string(unitigs[0].Seq), genome[140:160]) &&
		!strings.Contains(string(seq.ReverseComplement(unitigs[0].Seq)), genome[140:160]) {
		t.Error("bubble popping removed the major allele")
	}
}

func TestContigsPipeline(t *testing.T) {
	ds, err := simdata.Generate(simdata.Tiny())
	if err != nil {
		t.Fatal(err)
	}
	g, err := Build(ds.Reads.Reads, 21, 2)
	if err != nil {
		t.Fatal(err)
	}
	contigs := g.Contigs("velvet_k21", 100)
	if len(contigs) == 0 {
		t.Fatal("no contigs")
	}
	// Longest-first ordering.
	for i := 1; i < len(contigs); i++ {
		if len(contigs[i].Seq) > len(contigs[i-1].Seq) {
			t.Fatal("contigs not sorted by length")
		}
	}
	// Contigs must align to the ground truth transcriptome: check that
	// a large fraction of contig 21-mers occur in some transcript.
	coder := seq.MustKmerCoder(21)
	truth := map[seq.Kmer]bool{}
	for _, tx := range ds.Transcripts {
		coder.ForEachCanonical(tx.Seq, func(_ int, c seq.Kmer) bool {
			truth[c] = true
			return true
		})
	}
	var hit, total int
	for _, c := range contigs {
		coder.ForEachCanonical(c.Seq, func(_ int, canon seq.Kmer) bool {
			total++
			if truth[canon] {
				hit++
			}
			return true
		})
	}
	if total == 0 || float64(hit)/float64(total) < 0.95 {
		t.Errorf("contig precision %.2f (%d/%d k-mers in truth)", float64(hit)/float64(total), hit, total)
	}
}

func TestAddCountMergesPartitions(t *testing.T) {
	rng := rand.New(rand.NewSource(48))
	genome := randomSeqStr(rng, 200)
	reads := shred(genome, 40, 1)
	// Reference: single-shot build.
	ref, _ := Build(reads, 21, 1)
	// Distributed: two graphs each counting half the reads, merged.
	half1, _ := Build(reads[:len(reads)/2], 21, 1)
	half2, _ := Build(reads[len(reads)/2:], 21, 1)
	merged, _ := New(21)
	for _, h := range []*Graph{half1, half2} {
		h.nodes.Each(func(_ int, km seq.Kmer, c uint32) { merged.AddCount(km, c) })
	}
	if merged.Len() != ref.Len() {
		t.Fatalf("merged %d nodes, reference %d", merged.Len(), ref.Len())
	}
	ref.nodes.Each(func(_ int, km seq.Kmer, c uint32) {
		if merged.Coverage(km) != c {
			t.Fatal("coverage mismatch after merge")
		}
	})
}

func TestN50(t *testing.T) {
	mk := func(lens ...int) []seq.FastaRecord {
		out := make([]seq.FastaRecord, len(lens))
		for i, l := range lens {
			out[i] = seq.FastaRecord{ID: "c", Seq: make([]byte, l)}
		}
		return out
	}
	if n := N50(nil); n != 0 {
		t.Errorf("empty N50 %d", n)
	}
	if n := N50(mk(100)); n != 100 {
		t.Errorf("single N50 %d", n)
	}
	// Total 100+80+20=200; cumulative 100 ≥ 100 → N50 = 100.
	if n := N50(mk(20, 100, 80)); n != 100 {
		t.Errorf("N50 %d, want 100", n)
	}
	// Total 60+50+40+30=180; 60+50=110 ≥ 90 → 50.
	if n := N50(mk(30, 60, 50, 40)); n != 50 {
		t.Errorf("N50 %d, want 50", n)
	}
}

func TestCoverageAndDrop(t *testing.T) {
	g, _ := New(5)
	coder := g.Coder()
	km, _ := coder.Encode([]byte("ACGTA"))
	canon, _ := coder.Canonical(km)
	g.AddCount(canon, 3)
	if g.Coverage(canon) != 3 {
		t.Error("coverage lost")
	}
	g.DropBelow(4)
	if g.Len() != 0 {
		t.Error("DropBelow kept low-coverage node")
	}
}
