// Package simdata generates the synthetic genomes, transcriptomes and
// RNA-seq read sets that substitute for the paper's real datasets
// (B. Glumae, SRA SRX129586, and the P. Crispa set of ref. [2]), which
// are not available offline.
//
// Each built-in profile carries two things:
//
//   - a *scaled* synthetic instance — a real transcriptome and real
//     simulated reads, small enough to assemble on a laptop, that flow
//     through every real code path (preprocessing, assembly, merging,
//     evaluation);
//   - the *full-scale statistics* from the paper's Table II (genome
//     size, gene count, data volume, memory footprints), which drive
//     the virtual-time and memory cost models so that reported TTCs
//     and feasibility match paper scale.
//
// Generation is fully deterministic given the profile's seed.
package simdata

import (
	"fmt"
	"math"
	"math/rand"

	"rnascale/internal/seq"
)

// FullScaleStats records the paper-scale dataset characteristics
// (Table II) used by cost models.
type FullScaleStats struct {
	// GenomeSizeBp is the organism's genome size in base pairs.
	GenomeSizeBp int64
	// ProteinGenes is the annotated protein-coding gene count.
	ProteinGenes int
	// SeqDataBytes is the raw FASTQ volume.
	SeqDataBytes int64
	// Reads is the total read count.
	Reads int64
	// ReadLen is the read length in bp.
	ReadLen int
	// Paired reports paired-end sequencing.
	Paired bool
	// PreprocessMemGB is the pre-processing resident footprint.
	PreprocessMemGB float64
	// PostPreprocessBytes is the data volume after pre-processing.
	PostPreprocessBytes int64
	// AssemblyKmers lists the k values the multiple-k-mer strategy
	// requires for this dataset (known only after pre-processing).
	AssemblyKmers []int
}

// Profile describes a synthetic dataset generator.
type Profile struct {
	Name string
	// Organism is the display name ("B. Glumae").
	Organism string
	// Description matches Table II's organism class.
	Description string
	// Seed makes generation deterministic.
	Seed int64

	// GenomeSize and NumGenes size the scaled synthetic instance.
	GenomeSize int
	NumGenes   int
	// MeanTranscriptLen controls gene lengths (bp).
	MeanTranscriptLen int
	// ReadLen, Paired and Coverage size the scaled read set; coverage
	// is over the expressed transcriptome.
	ReadLen  int
	Paired   bool
	Coverage float64
	// ErrorRate is the per-base substitution probability.
	ErrorRate float64
	// NRate is the per-base probability of an ambiguous N call.
	NRate float64
	// InsertSize is the paired-end fragment length.
	InsertSize int
	// ParalogFraction is the fraction of genes carrying a shared
	// family "domain" sequence. Shared domains create the branch
	// points at which De Bruijn assemblers split contigs but greedy
	// assemblers walk through — the mechanism behind Trinity's low
	// nucleotide precision in the paper's Table V.
	ParalogFraction float64
	// ExpressedFraction is the fraction of genes actually expressed
	// in the sample (the rest have zero expression and yield no
	// reads). The paper's Table V reference is the *complete* gene
	// annotation, so unexpressed genes depress plain recall while
	// leaving abundance-weighted recall intact — exactly the gap
	// between its recall (0.26–0.44) and weighted-recall (0.77–0.86)
	// columns. 0 means every gene is expressed.
	ExpressedFraction float64
	// AnnotationCDSFraction is the fraction of each transcript covered
	// by its gene annotation (the paper's ground truth is "protein
	// gene sequences predicted by the annotation programs", not full
	// mRNAs, which caps nucleotide precision for *every* assembler at
	// roughly this value). 0 means annotations equal full transcripts.
	AnnotationCDSFraction float64

	// FullScale carries the paper-scale statistics for cost models.
	FullScale FullScaleStats
}

// BGlumae returns the profile standing in for the paper's bacterial
// dataset (Burkholderia glumae, Table II column 1), scaled for laptop
// assembly.
func BGlumae() Profile {
	return Profile{
		Name:              "bglumae",
		Organism:          "B. Glumae",
		Description:       "Bacteria",
		Seed:              20160523,
		GenomeSize:        60_000,
		NumGenes:          48,
		MeanTranscriptLen: 900,
		ReadLen:           50,
		Paired:            false,
		// High coverage so that k=47 windows (only 4 per 50 bp read)
		// still reach assembly-grade k-mer coverage, as the paper's
		// 121× real dataset does.
		Coverage:              90,
		ErrorRate:             0.004,
		NRate:                 0.0008,
		ParalogFraction:       0.3,
		ExpressedFraction:     0.5,
		AnnotationCDSFraction: 0.8,
		FullScale: FullScaleStats{
			GenomeSizeBp:        6_700_000,
			ProteinGenes:        5223,
			SeqDataBytes:        3_800_000_000,
			Reads:               16_263_310,
			ReadLen:             50,
			Paired:              false,
			PreprocessMemGB:     15,
			PostPreprocessBytes: 175_000_000,
			AssemblyKmers:       []int{35, 37, 39, 41, 43, 45, 47},
		},
	}
}

// PCrispa returns the profile standing in for the paper's fungal
// dataset (Plicaturopsis crispa, Table II column 2).
func PCrispa() Profile {
	return Profile{
		Name:                  "pcrispa",
		Organism:              "P. Crispa",
		Description:           "Fungus",
		Seed:                  20160524,
		GenomeSize:            200_000,
		NumGenes:              120,
		MeanTranscriptLen:     1100,
		ReadLen:               100,
		Paired:                true,
		Coverage:              30,
		ErrorRate:             0.004,
		NRate:                 0.0008,
		InsertSize:            300,
		ParalogFraction:       0.3,
		ExpressedFraction:     0.5,
		AnnotationCDSFraction: 0.8,
		FullScale: FullScaleStats{
			GenomeSizeBp:        34_500_000,
			ProteinGenes:        13617,
			SeqDataBytes:        26_200_000_000,
			Reads:               2 * 54_168_576,
			ReadLen:             100,
			Paired:              true,
			PreprocessMemGB:     40,
			PostPreprocessBytes: 9_400_000_000,
			AssemblyKmers:       []int{51, 55, 59, 63},
		},
	}
}

// BGlumaePaired returns the unpublished paired-end B. Glumae set used
// in the paper's sample run (4.4 GB, paired, needing 2 k-mers).
func BGlumaePaired() Profile {
	p := BGlumae()
	p.Name = "bglumae-paired"
	p.Seed = 20160525
	p.Paired = true
	p.ReadLen = 100
	p.InsertSize = 280
	p.Coverage = 30 // 100 bp reads keep k≤47 well covered at 30×
	p.FullScale.Paired = true
	p.FullScale.ReadLen = 100
	p.FullScale.SeqDataBytes = 4_400_000_000
	p.FullScale.Reads = 2 * 11_000_000
	p.FullScale.AssemblyKmers = []int{41, 47}
	return p
}

// Profiles lists every built-in profile by name, the test-size tiny
// profile included.
func Profiles() map[string]Profile {
	out := map[string]Profile{}
	for _, p := range []Profile{BGlumae(), PCrispa(), BGlumaePaired(), Tiny()} {
		out[p.Name] = p
	}
	return out
}

// Tiny returns a minimal profile for fast unit and integration tests.
func Tiny() Profile {
	p := BGlumae()
	p.Name = "tiny"
	p.GenomeSize = 8_000
	p.NumGenes = 8
	p.MeanTranscriptLen = 500
	p.Coverage = 25
	p.ExpressedFraction = 0.75
	p.AnnotationCDSFraction = 0.85
	p.FullScale.AssemblyKmers = []int{21, 25}
	return p
}

// Dataset is a generated dataset: ground truth plus reads.
type Dataset struct {
	Profile Profile
	// Genome is the synthetic genome.
	Genome []byte
	// Transcripts is the full transcriptome (expressed or not).
	Transcripts []seq.FastaRecord
	// Annotations is the gene-annotation track: the CDS-like core of
	// every transcript, expressed or not. This is the Table V ground
	// truth, mirroring the paper's use of predicted protein gene
	// sequences rather than full mRNAs.
	Annotations []seq.FastaRecord
	// Expression holds each transcript's relative abundance (0 for
	// unexpressed genes).
	Expression []float64
	// Reads is the simulated read set.
	Reads seq.ReadSet
}

// Generate builds the dataset for a profile.
func Generate(p Profile) (*Dataset, error) {
	if p.GenomeSize <= 0 || p.NumGenes <= 0 || p.ReadLen <= 0 {
		return nil, fmt.Errorf("simdata: degenerate profile %+v", p)
	}
	if p.MeanTranscriptLen <= p.ReadLen {
		return nil, fmt.Errorf("simdata: transcripts (%d bp) must exceed read length (%d bp)",
			p.MeanTranscriptLen, p.ReadLen)
	}
	if p.Paired && p.InsertSize <= p.ReadLen {
		return nil, fmt.Errorf("simdata: insert size %d must exceed read length %d", p.InsertSize, p.ReadLen)
	}
	rng := rand.New(rand.NewSource(p.Seed)) //rnavet:allow globalrand — profile-seeded source; generation is deterministic per Profile.Seed
	ds := &Dataset{Profile: p}
	ds.Genome = randomGenome(rng, p.GenomeSize)
	var err error
	ds.Transcripts, ds.Expression, err = buildTranscriptome(rng, ds.Genome, p)
	if err != nil {
		return nil, err
	}
	// Silence unexpressed genes.
	if p.ExpressedFraction > 0 && p.ExpressedFraction < 1 {
		for i := range ds.Expression {
			if rng.Float64() > p.ExpressedFraction {
				ds.Expression[i] = 0
			}
		}
		// Guarantee at least one expressed gene.
		any := false
		for _, e := range ds.Expression {
			if e > 0 {
				any = true
				break
			}
		}
		if !any {
			ds.Expression[0] = 1
		}
	}
	// Annotation track: the CDS-like central window of each gene.
	frac := p.AnnotationCDSFraction
	if frac <= 0 || frac > 1 {
		frac = 1
	}
	ds.Annotations = make([]seq.FastaRecord, len(ds.Transcripts))
	for i, tx := range ds.Transcripts {
		cdsLen := int(float64(len(tx.Seq)) * frac)
		if cdsLen < 1 {
			cdsLen = len(tx.Seq)
		}
		start := (len(tx.Seq) - cdsLen) / 2
		ds.Annotations[i] = seq.FastaRecord{
			ID:  tx.ID + "_cds",
			Seq: tx.Seq[start : start+cdsLen],
		}
	}
	ds.Reads = simulateReads(rng, ds.Transcripts, ds.Expression, p)
	return ds, nil
}

// randomGenome draws a uniform random genome. Uniform random sequence
// is nearly repeat-free, which mirrors the low-repeat prokaryote /
// fungal genomes the paper evaluates on.
func randomGenome(rng *rand.Rand, n int) []byte {
	bases := []byte{'A', 'C', 'G', 'T'}
	g := make([]byte, n)
	for i := range g {
		g[i] = bases[rng.Intn(4)]
	}
	return g
}

// buildTranscriptome places non-overlapping genes on the genome and
// assigns each a spliced transcript (1–3 exons) and an expression
// level drawn from a heavy-tailed distribution.
func buildTranscriptome(rng *rand.Rand, genome []byte, p Profile) ([]seq.FastaRecord, []float64, error) {
	slotLen := len(genome) / p.NumGenes
	minLen := p.ReadLen + 20
	if slotLen < minLen+20 {
		return nil, nil, fmt.Errorf("simdata: genome %d bp too small for %d genes", len(genome), p.NumGenes)
	}
	// Family domains shared between paralogous genes.
	var motifs [][]byte
	if p.ParalogFraction > 0 {
		motifLen := 2*p.ReadLen + 20
		if motifLen > p.MeanTranscriptLen/2 {
			motifLen = p.MeanTranscriptLen / 2
		}
		nMotifs := p.NumGenes/12 + 1
		for m := 0; m < nMotifs; m++ {
			motifs = append(motifs, randomGenome(rng, motifLen))
		}
	}
	recs := make([]seq.FastaRecord, 0, p.NumGenes)
	expr := make([]float64, 0, p.NumGenes)
	for g := 0; g < p.NumGenes; g++ {
		slotStart := g * slotLen
		// Gene length: clamped geometric-ish variation around the mean.
		length := p.MeanTranscriptLen/2 + rng.Intn(p.MeanTranscriptLen)
		if length > slotLen-20 {
			length = slotLen - 20
		}
		if length < minLen {
			length = minLen
		}
		start := slotStart + rng.Intn(slotLen-length)
		pre := genome[start : start+length]
		// Splice: occasionally remove an internal "intron".
		var tx []byte
		if length > 3*minLen && rng.Float64() < 0.5 {
			intronStart := length/3 + rng.Intn(length/3)
			intronLen := 20 + rng.Intn(length/6)
			if intronStart+intronLen >= length-minLen {
				intronLen = length - minLen - intronStart
			}
			if intronLen > 0 {
				tx = append(append([]byte{}, pre[:intronStart]...), pre[intronStart+intronLen:]...)
			}
		}
		if tx == nil {
			tx = append([]byte{}, pre...)
		}
		// Paralogs: splice a shared family domain into the interior.
		if len(motifs) > 0 && rng.Float64() < p.ParalogFraction {
			motif := motifs[rng.Intn(len(motifs))]
			if len(tx) > len(motif)+2*minLen {
				at := minLen + rng.Intn(len(tx)-len(motif)-2*minLen)
				copy(tx[at:], motif)
			}
		}
		// Half the genes lie on the reverse strand.
		if rng.Float64() < 0.5 {
			tx = seq.ReverseComplement(tx)
		}
		recs = append(recs, seq.FastaRecord{ID: fmt.Sprintf("%s_gene%04d", p.Name, g), Seq: tx})
		// Log-normal-ish expression: most genes moderate, a few dominant.
		expr = append(expr, math.Exp(rng.NormFloat64()*1.1))
	}
	return recs, expr, nil
}

// simulateReads draws reads (or pairs) from transcripts proportionally
// to expression × length, with substitution errors, N calls and
// position-dependent quality.
func simulateReads(rng *rand.Rand, txs []seq.FastaRecord, expr []float64, p Profile) seq.ReadSet {
	// Sampling weights and total target base count.
	weights := make([]float64, len(txs))
	var wsum, txBases float64
	for i, t := range txs {
		weights[i] = expr[i] * float64(len(t.Seq))
		wsum += weights[i]
		txBases += float64(len(t.Seq))
	}
	targetBases := p.Coverage * txBases
	basesPerFragment := float64(p.ReadLen)
	if p.Paired {
		basesPerFragment *= 2
	}
	fragments := int(targetBases / basesPerFragment)
	rs := seq.ReadSet{Paired: p.Paired}
	for f := 0; f < fragments; f++ {
		// Weighted transcript choice.
		r := rng.Float64() * wsum
		ti := 0
		for ti < len(weights)-1 && r > weights[ti] {
			r -= weights[ti]
			ti++
		}
		tx := txs[ti].Seq
		if p.Paired {
			ins := p.InsertSize
			if ins > len(tx) {
				ins = len(tx)
			}
			if ins < p.ReadLen {
				continue
			}
			start := 0
			if len(tx) > ins {
				start = rng.Intn(len(tx) - ins + 1)
			}
			frag := tx[start : start+ins]
			r1 := mutate(rng, frag[:p.ReadLen], p)
			r2 := mutate(rng, seq.ReverseComplement(frag)[:p.ReadLen], p)
			id := fmt.Sprintf("%s_r%07d", p.Name, f)
			rs.Reads = append(rs.Reads,
				seq.Read{ID: id + "/1", Seq: r1, Qual: qualities(rng, p.ReadLen)},
				seq.Read{ID: id + "/2", Seq: r2, Qual: qualities(rng, p.ReadLen)},
			)
			continue
		}
		if len(tx) < p.ReadLen {
			continue
		}
		start := rng.Intn(len(tx) - p.ReadLen + 1)
		sr := tx[start : start+p.ReadLen]
		if rng.Float64() < 0.5 {
			sr = seq.ReverseComplement(sr)
		}
		rs.Reads = append(rs.Reads, seq.Read{
			ID:   fmt.Sprintf("%s_r%07d", p.Name, f),
			Seq:  mutate(rng, sr, p),
			Qual: qualities(rng, p.ReadLen),
		})
	}
	return rs
}

// mutate applies the error model to a copy of s.
func mutate(rng *rand.Rand, s []byte, p Profile) []byte {
	bases := []byte{'A', 'C', 'G', 'T'}
	out := append([]byte{}, s...)
	for i := range out {
		switch {
		case rng.Float64() < p.NRate:
			out[i] = 'N'
		case rng.Float64() < p.ErrorRate:
			out[i] = bases[rng.Intn(4)]
		}
	}
	return out
}

// qualities draws Phred scores that decay toward the 3' end, the
// classic Illumina profile.
func qualities(rng *rand.Rand, n int) []byte {
	q := make([]byte, n)
	for i := range q {
		base := 38 - 12*float64(i)/float64(n)
		jitter := rng.NormFloat64() * 3
		q[i] = seq.PhredToByte(int(base + jitter))
	}
	return q
}

// Resample draws a fresh read set from the dataset's transcriptome
// under a different expression vector — the way a second biological
// condition is simulated for differential-expression studies.
func (d *Dataset) Resample(expr []float64, seed int64) (seq.ReadSet, error) {
	if len(expr) != len(d.Transcripts) {
		return seq.ReadSet{}, fmt.Errorf("simdata: %d expressions for %d transcripts", len(expr), len(d.Transcripts))
	}
	rng := rand.New(rand.NewSource(seed)) //rnavet:allow globalrand — caller-supplied seed; resampling is deterministic per seed
	return simulateReads(rng, d.Transcripts, expr, d.Profile), nil
}

// ScaleRatio reports how much smaller the synthetic instance is than
// the paper's dataset, by raw data volume. Cost models use it to
// translate measured scaled work into full-scale virtual time.
func (d *Dataset) ScaleRatio() float64 {
	scaled := float64(d.Reads.ByteSize())
	if scaled == 0 {
		return 1
	}
	return float64(d.Profile.FullScale.SeqDataBytes) / scaled
}

// Subset returns a dataset with approximately the given fraction of
// fragments (used by Fig. 4's input-size sweep). Pairing is preserved.
func (d *Dataset) Subset(fraction float64) *Dataset {
	if fraction >= 1 {
		return d
	}
	if fraction <= 0 {
		fraction = 0.01
	}
	out := *d
	out.Reads = seq.ReadSet{Paired: d.Reads.Paired}
	step := d.Reads.Fragments()
	keep := int(float64(step) * fraction)
	if keep < 1 {
		keep = 1
	}
	stride := 1
	if d.Reads.Paired {
		stride = 2
	}
	for f := 0; f < keep; f++ {
		// Spread the kept fragments across the set deterministically.
		src := (f * step / keep) * stride
		for j := 0; j < stride; j++ {
			out.Reads.Reads = append(out.Reads.Reads, d.Reads.Reads[src+j])
		}
	}
	fs := out.Profile.FullScale
	fs.SeqDataBytes = int64(float64(fs.SeqDataBytes) * fraction)
	fs.Reads = int64(float64(fs.Reads) * fraction)
	fs.PostPreprocessBytes = int64(float64(fs.PostPreprocessBytes) * fraction)
	out.Profile.FullScale = fs
	return &out
}
