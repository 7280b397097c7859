// Package trinity implements a single-node greedy-extension
// transcript assembler in the spirit of Trinity's Inchworm phase, the
// external comparator of the paper's Table V.
//
// The algorithm differs deliberately from the DBG unitig pipeline:
// starting from the most abundant unused k-mer, it extends greedily in
// both directions, always following the highest-coverage neighbour —
// *through* branch points. Greedy walks across paralogous or shared
// sequence produce the chimeric joins that give Trinity its Table V
// profile: markedly lower nucleotide-level precision than the
// Rnnotator-style assemblers, with competitive abundance-weighted
// (kc-style) scores because dominant transcripts are recovered well.
package trinity

import (
	"sort"

	"rnascale/internal/assembler"
	"rnascale/internal/dbg"
	"rnascale/internal/seq"
	"rnascale/internal/vclock"
)

// Trinity is the assembler. The zero value is ready to use.
type Trinity struct {
	// BasesPerCoreSecond is the Inchworm throughput (default
	// DefaultRate).
	BasesPerCoreSecond float64
}

// DefaultRate is Trinity's per-core throughput in bases/second.
// Trinity is markedly slower than Velvet on the same input.
const DefaultRate = 2.5e5

// Info implements assembler.Assembler.
func (tr *Trinity) Info() assembler.Info {
	return assembler.Info{Name: "trinity", GraphType: "Greedy", Distributed: "", Version: "2.1.1"}
}

// Assemble implements assembler.Assembler.
func (tr *Trinity) Assemble(req assembler.Request) (assembler.Result, error) {
	if err := req.Validate(tr.Info()); err != nil {
		return assembler.Result{}, err
	}
	p := req.Params.WithDefaults(2)
	coder, err := seq.NewKmerCoder(p.K)
	if err != nil {
		return assembler.Result{}, err
	}
	// Count canonical k-mers.
	counts := make(map[seq.Kmer]uint32)
	for i := range req.Reads {
		coder.ForEachCanonical(req.Reads[i].Seq, func(_ int, c seq.Kmer) bool {
			counts[c]++
			return true
		})
	}
	for km, c := range counts {
		if c < uint32(p.MinCoverage) {
			delete(counts, km)
		}
	}
	res, err := tr.Estimate(req)
	if err != nil {
		return assembler.Result{}, err
	}
	res.Contigs = inchworm(coder, counts, p.MinContigLen)
	res.N50 = dbg.N50(res.Contigs)
	return res, nil
}

// Estimate implements assembler.Assembler.
func (tr *Trinity) Estimate(req assembler.Request) (assembler.Result, error) {
	if err := req.ValidateShape(tr.Info()); err != nil {
		return assembler.Result{}, err
	}
	rate := tr.BasesPerCoreSecond
	if rate <= 0 {
		rate = DefaultRate
	}
	return assembler.Result{
		TTC:                 vclock.ComputeCost{UnitsPerSecond: rate}.Time(assembler.FullScaleBases(req.FullScale), req.CoresPerNode),
		PeakMemoryGBPerNode: assembler.GraphMemoryGB(req.FullScale, 1) * 1.3, // Inchworm keeps reads resident too
	}, nil
}

// inchworm greedily assembles contigs from the count table.
func inchworm(coder seq.KmerCoder, counts map[seq.Kmer]uint32, minLen int) []seq.FastaRecord {
	// Seeds in decreasing abundance (ties by k-mer order for
	// determinism).
	type seed struct {
		km seq.Kmer
		c  uint32
	}
	seeds := make([]seed, 0, len(counts))
	for km, c := range counts {
		seeds = append(seeds, seed{km, c})
	}
	sort.Slice(seeds, func(a, b int) bool {
		if seeds[a].c != seeds[b].c {
			return seeds[a].c > seeds[b].c
		}
		return seeds[a].km.Less(seeds[b].km)
	})
	used := make(map[seq.Kmer]bool, len(counts))
	lookup := func(km seq.Kmer) (seq.Kmer, uint32, bool) {
		canon, _ := coder.Canonical(km)
		if used[canon] {
			return canon, 0, false
		}
		c, ok := counts[canon]
		return canon, c, ok
	}
	var out []seq.FastaRecord
	for _, sd := range seeds {
		if used[sd.km] {
			continue
		}
		used[sd.km] = true
		// Extend right greedily: best-count neighbour wins, even at
		// branches.
		right := sd.km
		var rightBases []byte
		for {
			var best seq.Kmer
			var bestCanon seq.Kmer
			var bestC uint32
			var bestBase byte
			for _, b := range [4]byte{'A', 'C', 'G', 'T'} {
				next, _ := coder.Next(right, b)
				canon, c, ok := lookup(next)
				if ok && c > bestC {
					best, bestCanon, bestC, bestBase = next, canon, c, b
				}
			}
			if bestC == 0 {
				break
			}
			used[bestCanon] = true
			rightBases = append(rightBases, bestBase)
			right = best
		}
		// Extend left greedily.
		left := sd.km
		var leftBases []byte // reversed order
		for {
			var best seq.Kmer
			var bestCanon seq.Kmer
			var bestC uint32
			var bestBase byte
			for _, b := range [4]byte{'A', 'C', 'G', 'T'} {
				prev, _ := coder.Prev(left, b)
				canon, c, ok := lookup(prev)
				if ok && c > bestC {
					best, bestCanon, bestC, bestBase = prev, canon, c, b
				}
			}
			if bestC == 0 {
				break
			}
			used[bestCanon] = true
			leftBases = append(leftBases, bestBase)
			left = best
		}
		// Assemble: reversed left bases + seed + right bases.
		sq := make([]byte, 0, len(leftBases)+coder.K+len(rightBases))
		for i := len(leftBases) - 1; i >= 0; i-- {
			sq = append(sq, leftBases[i])
		}
		sq = append(sq, coder.Decode(sd.km)...)
		sq = append(sq, rightBases...)
		if len(sq) >= minLen {
			out = append(out, seq.FastaRecord{Seq: sq})
		}
	}
	sort.SliceStable(out, func(a, b int) bool { return len(out[a].Seq) > len(out[b].Seq) })
	for i := range out {
		out[i].ID = contigID(i, len(out[i].Seq))
	}
	return out
}

func contigID(i, l int) string {
	return "trinity_contig" + pad5(i) + " len=" + itoa(l)
}

// pad5 and itoa avoid fmt in the hot path.
func pad5(i int) string {
	s := itoa(i)
	for len(s) < 5 {
		s = "0" + s
	}
	return s
}

func itoa(i int) string {
	if i == 0 {
		return "0"
	}
	var b [20]byte
	p := len(b)
	for i > 0 {
		p--
		b[p] = byte('0' + i%10)
		i /= 10
	}
	return string(b[p:])
}
