// Package idba implements a single-node assembler modelled on IDBA
// (Peng et al. 2010), another of Rnnotator's stock tools. IDBA's
// defining idea is *internal* k-mer iteration: it builds the graph at
// a small k (sensitive, tangled), extracts contigs, then rebuilds at
// progressively larger k with the previous round's contigs fed back
// as additional high-confidence "reads", combining small-k
// sensitivity with large-k specificity in a single invocation.
//
// Note the interplay with Rnnotator's *external* multiple-k strategy:
// when the pipeline runs IDBA it typically needs fewer external k
// values, since the tool sweeps a k range internally.
package idba

import (
	"rnascale/internal/assembler"
	"rnascale/internal/dbg"
	"rnascale/internal/seq"
	"rnascale/internal/vclock"
)

// IDBA is the assembler. The zero value is ready to use.
type IDBA struct {
	// BasesPerCoreSecond overrides the throughput calibration.
	BasesPerCoreSecond float64
	// KStep is the internal k increment (default 4).
	KStep int
	// KMin is the starting k (default: half the requested K, floored
	// at 15).
	KMin int
}

// DefaultRate is IDBA's per-core throughput in bases/second per
// iteration round; total cost scales with the number of rounds.
const DefaultRate = 0.9e6

// Info implements assembler.Assembler.
func (a *IDBA) Info() assembler.Info {
	return assembler.Info{Name: "idba", GraphType: "DBG", Distributed: "", Version: "1.1.1"}
}

// Assemble implements assembler.Assembler. Params.K is the *final*
// (largest) k of the internal sweep.
func (a *IDBA) Assemble(req assembler.Request) (assembler.Result, error) {
	if err := req.Validate(a.Info()); err != nil {
		return assembler.Result{}, err
	}
	p := req.Params.WithDefaults(2)
	step := a.KStep
	if step <= 0 {
		step = 4
	}
	kMin := a.KMin
	if kMin <= 0 {
		kMin = p.K / 2
	}
	if kMin < 15 {
		kMin = 15
	}
	if kMin > p.K {
		kMin = p.K
	}

	// Internal k sweep: contigs from round i join the input of round
	// i+1 with a confidence boost (they contribute min-coverage counts
	// so they survive the cutoff on their own).
	var carried []seq.FastaRecord
	rounds := 0
	for k := kMin; ; k += step {
		if k > p.K {
			k = p.K
		}
		rounds++
		g, err := dbg.New(k)
		if err != nil {
			return assembler.Result{}, err
		}
		for i := range req.Reads {
			g.AddRead(req.Reads[i].Seq)
		}
		coder := g.Coder()
		for _, c := range carried {
			// Carried contigs count as MinCoverage-fold evidence.
			coder.ForEachCanonical(c.Seq, func(_ int, canon seq.Kmer) bool {
				g.AddCount(canon, uint32(p.MinCoverage))
				return true
			})
		}
		g.DropBelow(uint32(p.MinCoverage))
		minLen := p.MinContigLen
		if k < p.K {
			minLen = 2 * k // interim rounds keep shorter fragments
		}
		carried = g.Contigs("idba", minLen)
		if k == p.K {
			break
		}
	}
	if len(carried) == 0 {
		return assembler.Result{}, errNoContigs(p.K, p.MinCoverage)
	}

	rate := a.BasesPerCoreSecond
	if rate <= 0 {
		rate = DefaultRate
	}
	bases := assembler.FullScaleBases(req.FullScale)
	ttc := vclock.ComputeCost{UnitsPerSecond: rate}.Time(bases*float64(rounds), req.CoresPerNode)
	return assembler.Result{
		Contigs:             carried,
		TTC:                 ttc,
		PeakMemoryGBPerNode: assembler.GraphMemoryGB(req.FullScale, 1) * 1.15, // graph + carried contigs
		N50:                 dbg.N50(carried),
	}, nil
}

// errNoContigs mirrors the other assemblers' empty-result error.
type errNoContigsT struct {
	k, minCov int
}

func errNoContigs(k, minCov int) error { return errNoContigsT{k, minCov} }

func (e errNoContigsT) Error() string {
	return "idba: assembly produced no contigs (k=" + itoa(e.k) + ", min coverage " + itoa(e.minCov) + ")"
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

// EstimateTTC implements assembler.TTCEstimator. The round count
// mirrors Assemble's internal k sweep.
func (a *IDBA) EstimateTTC(req assembler.Request) (vclock.Duration, error) {
	rate := a.BasesPerCoreSecond
	if rate <= 0 {
		rate = DefaultRate
	}
	step := a.KStep
	if step <= 0 {
		step = 4
	}
	kMin := a.KMin
	if kMin <= 0 {
		kMin = req.Params.K / 2
	}
	if kMin < 15 {
		kMin = 15
	}
	if kMin > req.Params.K {
		kMin = req.Params.K
	}
	rounds := 1
	for k := kMin; k < req.Params.K; k += step {
		rounds++
	}
	bases := assembler.FullScaleBases(req.FullScale)
	return vclock.ComputeCost{UnitsPerSecond: rate}.Time(bases*float64(rounds), req.CoresPerNode), nil
}
