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
	"rnascale/internal/sweep"
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

// recordGrain is the fewest records worth a host core of their own:
// below two of it, scoring runs on the caller alone.
const recordGrain = 32

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

	// The canonical k-mer sets of the reference and of the assembly,
	// built side by side.
	var refSet, asmSet *seq.KmerTable
	perSet := 1
	if len(refs)+len(contigs) < 2*recordGrain {
		perSet = 2
	}
	sweep.Ranges(2, sweep.Parts(2, perSet), func(_, lo, hi int) {
		for i := lo; i < hi; i++ {
			if i == 0 {
				refSet = kmerSet(coder, refs)
			} else {
				asmSet = kmerSet(coder, contigs)
			}
		}
	})

	// Each contig is scanned against the reference set and each
	// reference against the assembly set, in parallel, into integer
	// partials of its own: index i < len(contigs) is contig i, the rest
	// are the references.
	scans := make([]scan, len(contigs)+len(refs))
	sweep.Ranges(len(scans), sweep.Parts(len(scans), recordGrain), func(_, lo, hi int) {
		for i := lo; i < hi; i++ {
			if i < len(contigs) {
				scans[i] = cover(coder, contigs[i].Seq, refSet)
			} else {
				scans[i] = cover(coder, refs[i-len(contigs)].Seq, asmSet)
			}
		}
	})

	// Sums in input order, so every float is the serial loop's.
	// Precision: fraction of contig bases covered by a reference-
	// supported window.
	m := Metrics{AssemblyContigs: len(contigs)}
	var asmCovered int64
	for i, c := range contigs {
		m.AssemblyBases += int64(len(c.Seq))
		asmCovered += scans[i].covered
	}
	if m.AssemblyBases > 0 {
		m.Precision = float64(asmCovered) / float64(m.AssemblyBases)
	}

	// Recall: fraction of reference bases covered by assembly-
	// supported windows; weighted variant uses expression weights on
	// whole-transcript k-mer recall.
	var refCovered, refTotal int64
	var wNum, wDen float64
	for i, r := range refs {
		sc := scans[len(contigs)+i]
		refCovered += sc.covered
		refTotal += int64(len(r.Seq))
		w := 1.0
		if expr != nil {
			w = expr[i]
		}
		if sc.windows > 0 {
			wNum += w * (float64(sc.hits) / float64(sc.windows))
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
		m.KCScore -= float64(asmSet.Len()) / (2 * float64(opts.ReadBases))
	}
	return m, nil
}

// kmerSet returns the canonical k-mers of recs, in a table sized to
// their windows so it never grows.
func kmerSet(coder seq.KmerCoder, recs []seq.FastaRecord) *seq.KmerTable {
	windows := 0
	for _, r := range recs {
		windows += max(len(r.Seq)-coder.K+1, 0)
	}
	set := seq.NewKmerTable(windows)
	for _, r := range recs {
		coder.ForEachCanonical(r.Seq, func(_ int, canon seq.Kmer) bool {
			set.Add(canon, 1)
			return true
		})
	}
	return set
}

// scan is one sequence's windows scored against a k-mer set.
type scan struct {
	covered int64 // positions under at least one window in the set
	hits    int64 // windows in the set
	windows int64 // windows without an N
}

// cover scores s's windows against set.
func cover(coder seq.KmerCoder, s []byte, set *seq.KmerTable) scan {
	var sc scan
	end := 0 // positions before end are covered
	coder.ForEachCanonical(s, func(pos int, canon seq.Kmer) bool {
		sc.windows++
		if set.Find(canon) >= 0 {
			sc.hits++
			sc.covered += int64(pos + coder.K - max(pos, end))
			end = pos + coder.K
		}
		return true
	})
	return sc
}
