// Package velvet implements a single-node De Bruijn graph assembler
// in the mould of Velvet, one of Rnnotator's stock k-mer assemblers.
// It is the reference in-process assembly path: build the graph,
// simplify, emit unitigs. As in the paper, it cannot span nodes, so
// datasets whose graph exceeds one machine's memory fail here — the
// failure mode the pilot-based pipeline exists to avoid.
package velvet

import (
	"rnascale/internal/assembler"
	"rnascale/internal/dbg"
	"rnascale/internal/vclock"
)

// Velvet is the assembler. The zero value is ready to use.
type Velvet struct{}

// DefaultRate is Velvet's per-core throughput in bases/second.
const DefaultRate = 1.1e6

// Info implements assembler.Assembler.
func (v *Velvet) Info() assembler.Info {
	return assembler.Info{Name: "velvet", GraphType: "DBG", Distributed: "", Version: "1.2.10"}
}

// Assemble implements assembler.Assembler.
func (v *Velvet) Assemble(req assembler.Request) (assembler.Result, error) {
	if err := req.Validate(v.Info()); err != nil {
		return assembler.Result{}, err
	}
	p := req.Params.WithDefaults(2)
	g, err := dbg.Build(req.Reads, p.K, p.MinCoverage)
	if err != nil {
		return assembler.Result{}, err
	}
	res, err := v.Estimate(req)
	if err != nil {
		return assembler.Result{}, err
	}
	res.Contigs = g.Contigs("velvet", p.MinContigLen)
	res.N50 = dbg.N50(res.Contigs)
	return res, nil
}

// Estimate implements assembler.Assembler.
func (v *Velvet) Estimate(req assembler.Request) (assembler.Result, error) {
	if err := req.ValidateShape(v.Info()); err != nil {
		return assembler.Result{}, err
	}
	return assembler.Result{
		TTC:                 vclock.ComputeCost{UnitsPerSecond: DefaultRate}.Time(assembler.FullScaleBases(req.FullScale), req.CoresPerNode),
		PeakMemoryGBPerNode: assembler.GraphMemoryGB(req.FullScale, 1),
	}, nil
}
