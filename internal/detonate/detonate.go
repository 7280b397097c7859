// Package detonate reimplements the reference-based evaluation
// metrics of DETONATE (Li et al., Genome Biology 2014) that the
// paper's Table V reports: nucleotide-level precision, recall and F1,
// the abundance-weighted k-mer recall, and the k-mer compression (kc)
// score.
//
// Alignment is approximated by shared-k-mer coverage: a contig
// position counts as correct when some k-mer window covering it also
// occurs in the reference (either strand), and a reference position
// counts as recovered when some window covering it occurs in the
// assembly. For the de Bruijn graph assemblies evaluated here this
// tracks alignment-based scoring closely while staying exact and
// deterministic.
package detonate

import (
	"fmt"

	"rnascale/internal/seq"
)

// Options configure the evaluator.
type Options struct {
	// K is the evaluation k-mer size (DETONATE's default is 25).
	K int
	// ReadBases is the total sequenced base count; it sets the kc
	// score's compression penalty denominator (2N in the DETONATE
	// definition). Zero disables the penalty.
	ReadBases int64
}

// DefaultOptions match DETONATE v1.10 defaults.
func DefaultOptions() Options { return Options{K: 25} }

// Metrics is one evaluation row of Table V.
type Metrics struct {
	// Nucleotide-level scores.
	Precision float64
	Recall    float64
	F1        float64
	// WeightedKmerRecall weights reference k-mer recovery by
	// transcript abundance.
	WeightedKmerRecall float64
	// KCScore is the weighted k-mer recall minus the assembly
	// compression penalty.
	KCScore float64
	// AssemblyBases and AssemblyContigs describe the evaluated set.
	AssemblyBases   int64
	AssemblyContigs int
}

// String renders the metrics as a Table V row fragment.
func (m Metrics) String() string {
	return fmt.Sprintf("nt(P=%.2f R=%.2f F1=%.2f) weighted(KR=%.2f kc=%.2f)",
		m.Precision, m.Recall, m.F1, m.WeightedKmerRecall, m.KCScore)
}

// Evaluate scores an assembly against reference transcripts with the
// given per-transcript expression weights (uniform if nil).
func Evaluate(contigs []seq.FastaRecord, refs []seq.FastaRecord, expr []float64, opts Options) (Metrics, error) {
	if opts.K < 1 || opts.K > seq.MaxK {
		return Metrics{}, fmt.Errorf("detonate: k=%d", opts.K)
	}
	if len(refs) == 0 {
		return Metrics{}, fmt.Errorf("detonate: no reference transcripts")
	}
	if expr != nil && len(expr) != len(refs) {
		return Metrics{}, fmt.Errorf("detonate: %d expressions for %d references", len(expr), len(refs))
	}
	coder := seq.MustKmerCoder(opts.K)

	// Index reference k-mers (canonical).
	refSet := map[seq.Kmer]struct{}{}
	for _, r := range refs {
		coder.ForEachCanonical(r.Seq, func(_ int, c seq.Kmer) bool {
			refSet[c] = struct{}{}
			return true
		})
	}
	// Index assembly k-mers (canonical).
	asmSet := map[seq.Kmer]struct{}{}
	var m Metrics
	for _, c := range contigs {
		m.AssemblyBases += int64(len(c.Seq))
		coder.ForEachCanonical(c.Seq, func(_ int, canon seq.Kmer) bool {
			asmSet[canon] = struct{}{}
			return true
		})
	}
	m.AssemblyContigs = len(contigs)

	// Precision: fraction of contig bases covered by a reference-
	// supported window.
	var asmCovered, asmTotal int64
	for _, c := range contigs {
		covered := coverMask(coder, c.Seq, refSet)
		for _, ok := range covered {
			if ok {
				asmCovered++
			}
		}
		asmTotal += int64(len(c.Seq))
	}
	if asmTotal > 0 {
		m.Precision = float64(asmCovered) / float64(asmTotal)
	}

	// Recall: fraction of reference bases covered by assembly-
	// supported windows; weighted variant uses expression weights on
	// whole-transcript k-mer recall.
	var refCovered, refTotal int64
	var wNum, wDen float64
	for i, r := range refs {
		covered := coverMask(coder, r.Seq, asmSet)
		for _, ok := range covered {
			if ok {
				refCovered++
			}
		}
		refTotal += int64(len(r.Seq))

		// k-mer recall of this transcript.
		var hit, tot float64
		coder.ForEachCanonical(r.Seq, func(_ int, canon seq.Kmer) bool {
			tot++
			if _, ok := asmSet[canon]; ok {
				hit++
			}
			return true
		})
		w := 1.0
		if expr != nil {
			w = expr[i]
		}
		if tot > 0 {
			wNum += w * (hit / tot)
			wDen += w
		}
	}
	if refTotal > 0 {
		m.Recall = float64(refCovered) / float64(refTotal)
	}
	if m.Precision+m.Recall > 0 {
		m.F1 = 2 * m.Precision * m.Recall / (m.Precision + m.Recall)
	}
	if wDen > 0 {
		m.WeightedKmerRecall = wNum / wDen
	}
	m.KCScore = m.WeightedKmerRecall
	if opts.ReadBases > 0 {
		m.KCScore -= float64(len(asmSet)) / (2 * float64(opts.ReadBases))
	}
	return m, nil
}

// coverMask marks the positions of s covered by at least one k-mer
// window present in set.
func coverMask(coder seq.KmerCoder, s []byte, set map[seq.Kmer]struct{}) []bool {
	covered := make([]bool, len(s))
	coder.ForEachCanonical(s, func(pos int, canon seq.Kmer) bool {
		if _, ok := set[canon]; ok {
			for i := pos; i < pos+coder.K; i++ {
				covered[i] = true
			}
		}
		return true
	})
	return covered
}
