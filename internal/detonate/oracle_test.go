package detonate

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"rnascale/internal/seq"
)

// referenceEvaluate is the body Evaluate had before the k-mer tables:
// a Go map per k-mer set, one coverage mask per record, and every
// record scanned serially.
func referenceEvaluate(contigs []seq.FastaRecord, refs []seq.FastaRecord, expr []float64, opts Options) (Metrics, error) {
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
		covered := referenceCoverMask(coder, c.Seq, refSet)
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
		covered := referenceCoverMask(coder, r.Seq, asmSet)
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

// referenceCoverMask marks the positions of s covered by at least one k-mer
// window present in set.
func referenceCoverMask(coder seq.KmerCoder, s []byte, set map[seq.Kmer]struct{}) []bool {
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

// TestEvaluateMatchesReference holds Evaluate to the map-based body it
// replaced, with == on every Metrics field: the integer partials are
// exact and the floats are reduced in the same order, so not even the
// last bit may move. Seeded random assemblies carry empty contigs,
// contigs shorter than k, N bases and both strands, scored with nil and
// with weighted expression; the larger ones fill enough records for
// the scans to fan out at GOMAXPROCS ≥ 2.
func TestEvaluateMatchesReference(t *testing.T) {
	for seed := int64(0); seed < 24; seed++ {
		rng := rand.New(rand.NewSource(1200 + seed))
		k := []int{5, 13, 25, 31}[seed%4]
		nRefs := []int{1, 7, 40, 150}[seed/4%4]
		var refSet []seq.FastaRecord
		for i := 0; i < nRefs; i++ {
			s := randSeq(rng, 50+rng.Intn(400))
			if rng.Intn(4) == 0 {
				s[rng.Intn(len(s))] = 'N'
			}
			refSet = append(refSet, seq.FastaRecord{ID: fmt.Sprintf("tx%d", i), Seq: s})
		}
		var asm []seq.FastaRecord
		for i := 0; i < nRefs+rng.Intn(2*nRefs); i++ {
			var c []byte
			switch rng.Intn(7) {
			case 0:
				c = nil
			case 1:
				c = randSeq(rng, rng.Intn(k))
			case 2:
				c = randSeq(rng, 30+rng.Intn(300))
			default:
				src := refSet[rng.Intn(len(refSet))].Seq
				lo := rng.Intn(len(src))
				c = slices.Clone(src[lo : lo+rng.Intn(len(src)-lo+1)])
				if rng.Intn(2) == 0 {
					c = seq.ReverseComplement(c)
				}
				if len(c) > 0 && rng.Intn(3) == 0 {
					c[rng.Intn(len(c))] = "ACGTN"[rng.Intn(5)]
				}
			}
			asm = append(asm, seq.FastaRecord{ID: fmt.Sprintf("c%d", i), Seq: c})
		}
		var weights []float64
		for range refSet {
			weights = append(weights, rng.ExpFloat64())
		}
		opts := Options{K: k, ReadBases: int64(rng.Intn(3)) * 50_000}
		for _, expr := range [][]float64{nil, weights} {
			got, err := Evaluate(asm, refSet, expr, opts)
			if err != nil {
				t.Fatal(err)
			}
			want, err := referenceEvaluate(asm, refSet, expr, opts)
			if err != nil {
				t.Fatal(err)
			}
			if got != want {
				t.Fatalf("seed %d k=%d refs=%d contigs=%d weighted=%t:\n got  %#v\n want %#v", seed, k, len(refSet), len(asm), expr != nil, got, want)
			}
		}
	}
}
