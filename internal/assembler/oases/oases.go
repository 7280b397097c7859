// Package oases implements a single-node transcriptome assembler
// modelled on Oases (Schulz et al. 2012), Rnnotator's stock choice
// for isoform-aware assembly. Oases post-processes a Velvet-style
// graph but, where a genome assembler pops bubbles (collapsing
// alternative alleles and isoforms into one consensus path), Oases
// *retains* variant paths as separate transfrags — trading some
// redundancy for recall on the dynamic range of expression levels its
// paper targets.
//
// Accordingly this implementation clips error tips but skips bubble
// popping, emits shorter transfrags than the genome assemblers'
// 2k cutoff, and uses a permissive coverage cutoff.
package oases

import (
	"rnascale/internal/assembler"
	"rnascale/internal/dbg"
	"rnascale/internal/vclock"
)

// Oases is the assembler. The zero value is ready to use.
type Oases struct{}

// DefaultRate is Oases's per-core throughput in bases/second (Velvet
// plus the transfrag pass).
const DefaultRate = 0.8e6

// Info implements assembler.Assembler.
func (o *Oases) Info() assembler.Info {
	return assembler.Info{Name: "oases", GraphType: "DBG", Distributed: "", Version: "0.2.08"}
}

// Assemble implements assembler.Assembler.
func (o *Oases) Assemble(req assembler.Request) (assembler.Result, error) {
	if err := req.Validate(o.Info()); err != nil {
		return assembler.Result{}, err
	}
	p := req.Params.WithDefaults(2)
	if req.Params.MinContigLen == 0 {
		// Transfrags: keep anything at least k+20 bases, well below
		// the genome assemblers' 2k default.
		p.MinContigLen = p.K + 20
	}
	g, err := dbg.New(p.K)
	if err != nil {
		return assembler.Result{}, err
	}
	for i := range req.Reads {
		g.AddRead(req.Reads[i].Seq)
	}
	g.DropBelow(uint32(p.MinCoverage))
	// Error clean-up only: tips are sequencing artifacts, bubbles may
	// be isoforms or alleles and are preserved.
	g.ClipTips(p.K, 3)
	unitigs := g.Unitigs(p.MinContigLen)
	contigs := dbg.RecordsFromUnitigs("oases", unitigs)
	if len(contigs) == 0 {
		return assembler.Result{}, errEmpty{p.K, p.MinCoverage}
	}
	res, err := o.Estimate(req)
	if err != nil {
		return assembler.Result{}, err
	}
	res.Contigs, res.N50 = contigs, dbg.N50(contigs)
	return res, nil
}

// Estimate implements assembler.Assembler.
func (o *Oases) Estimate(req assembler.Request) (assembler.Result, error) {
	if err := req.ValidateShape(o.Info()); err != nil {
		return assembler.Result{}, err
	}
	return assembler.Result{
		TTC:                 vclock.ComputeCost{UnitsPerSecond: DefaultRate}.Time(assembler.FullScaleBases(req.FullScale), req.CoresPerNode),
		PeakMemoryGBPerNode: assembler.GraphMemoryGB(req.FullScale, 1) * 1.1,
	}, nil
}

type errEmpty struct{ k, minCov int }

func (e errEmpty) Error() string {
	return "oases: assembly produced no transfrags"
}
