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
	"cmp"
	"slices"

	"rnascale/internal/assembler"
	"rnascale/internal/dbg"
	"rnascale/internal/seq"
	"rnascale/internal/vclock"
)

// Trinity is the assembler. The zero value is ready to use.
type Trinity struct{}

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
	// Count canonical k-mers into one table, sized at a fifth of the
	// windows as mpidbg's owner tables are, then drop those under the
	// cutoff in place.
	windows := 0
	for i := range req.Reads {
		windows += max(len(req.Reads[i].Seq)-p.K+1, 0)
	}
	counts := seq.NewKmerTable(windows / 5)
	for i := range req.Reads {
		coder.ForEachCanonical(req.Reads[i].Seq, func(_ int, c seq.Kmer) bool {
			counts.Add(c, 1)
			return true
		})
	}
	counts.Each(func(slot int, _ seq.Kmer, c uint32) {
		if c < uint32(p.MinCoverage) {
			counts.DeleteAt(slot)
		}
	})
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
	return assembler.Result{
		TTC:                 vclock.ComputeCost{UnitsPerSecond: DefaultRate}.Time(assembler.FullScaleBases(req.FullScale), req.CoresPerNode),
		PeakMemoryGBPerNode: assembler.GraphMemoryGB(req.FullScale, 1) * 1.3, // Inchworm keeps reads resident too
	}, nil
}

// inchworm greedily assembles contigs from the count table. The walk
// inserts nothing, so every k-mer keeps its slot and the used set is a
// slice indexed by slot.
func inchworm(coder seq.KmerCoder, counts *seq.KmerTable, minLen int) []seq.FastaRecord {
	// Seeds in decreasing abundance, ties by k-mer order: a total
	// order, so the table's slot order never reaches the output.
	type seed struct {
		km   seq.Kmer
		c    uint32
		slot int32
	}
	seeds := make([]seed, 0, counts.Len())
	counts.Each(func(slot int, km seq.Kmer, c uint32) {
		seeds = append(seeds, seed{km, c, int32(slot)})
	})
	slices.SortFunc(seeds, func(a, b seed) int {
		if a.c != b.c {
			return cmp.Compare(b.c, a.c)
		}
		return a.km.Compare(b.km)
	})
	used := make([]bool, counts.Slots())
	// extend walks from km one base at a time, rightwards (forward) or
	// leftwards, marking each k-mer it takes as used, and appends the
	// bases it adds to bases in walk order. The best-count unused
	// neighbour wins, even at branches.
	extend := func(km seq.Kmer, forward bool, bases []byte) []byte {
		for {
			var best seq.Kmer
			bestSlot, bestC, bestBase := -1, uint32(0), byte(0)
			for _, b := range [4]byte{'A', 'C', 'G', 'T'} {
				var nb seq.Kmer
				if forward {
					nb, _ = coder.Next(km, b)
				} else {
					nb, _ = coder.Prev(km, b)
				}
				canon, _ := coder.Canonical(nb)
				slot := counts.Find(canon)
				if slot < 0 || used[slot] {
					continue
				}
				if _, c, _ := counts.At(slot); c > bestC {
					best, bestSlot, bestC, bestBase = nb, slot, c, b
				}
			}
			if bestSlot < 0 {
				return bases
			}
			used[bestSlot] = true
			bases = append(bases, bestBase)
			km = best
		}
	}
	var out []seq.FastaRecord
	var right, left []byte // reused across seeds; left is in walk order
	for _, sd := range seeds {
		if used[sd.slot] {
			continue
		}
		used[sd.slot] = true
		right = extend(sd.km, true, right[:0])
		left = extend(sd.km, false, left[:0])
		n := len(left) + coder.K + len(right)
		if n < minLen {
			continue
		}
		// Assemble: reversed left bases + seed + right bases.
		sq := make([]byte, 0, n)
		for i := len(left) - 1; i >= 0; i-- {
			sq = append(sq, left[i])
		}
		sq = append(sq, coder.Decode(sd.km)...)
		sq = append(sq, right...)
		out = append(out, seq.FastaRecord{Seq: sq})
	}
	slices.SortStableFunc(out, func(a, b seq.FastaRecord) int { return cmp.Compare(len(b.Seq), len(a.Seq)) })
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
