package all

import (
	"fmt"
	"testing"

	"rnascale/internal/assembler"
	"rnascale/internal/assembler/abyss"
	"rnascale/internal/assembler/mpidbg"
	"rnascale/internal/simdata"
)

// Every registered assembler estimates a request a priori — the
// prerequisite the paper names for the fully dynamically adaptive
// workflow. For every tool but Contrail the estimate runs the run's own
// cost code, so it must equal what Assemble reports bit for bit in TTC,
// memory, messages and bytes, over both full-scale profiles, node and
// core counts, two k and a slowed ABySS profile. Contrail's engine bills
// the record volumes it measures, which its closed-form estimate only
// approximates: its TTC stays within a band, its memory is exact.
func TestEstimatesTrackMeasurements(t *testing.T) {
	reads := cleanReads(tinyDataset(t))
	slow := abyss.DefaultProfile()
	slow.BasesPerCoreSecond /= 4
	slowed := &profiled{prof: slow}
	tools := append(assembler.List(), slowed)
	for _, prof := range []simdata.Profile{simdata.BGlumae(), simdata.PCrispa()} {
		for _, a := range tools {
			name := a.Info().Name
			if a == slowed {
				name += " (slow profile)"
			}
			nodeCounts, coreCounts := []int{1, 2, 4, 8}, []int{1, 8}
			switch {
			case name == "contrail":
				// Its MapReduce run costs ten times the others': check
				// the two-node baseline allocation only.
				nodeCounts, coreCounts = []int{2}, []int{8}
			case !a.Info().MultiNode():
				nodeCounts = nodeCounts[:1]
			}
			for _, nodes := range nodeCounts {
				for _, cores := range coreCounts {
					for _, k := range []int{21, 31} {
						req := assembler.Request{
							Reads:  reads,
							Params: assembler.Params{K: k, MinCoverage: 2},
							Nodes:  nodes, CoresPerNode: cores,
							FullScale: prof.FullScale,
						}
						cell := fmt.Sprintf("%s %s %d×%d k=%d", name, prof.Name, nodes, cores, k)
						if err := estimateMatches(a, req); err != nil {
							t.Errorf("%s: %v", cell, err)
						}
					}
				}
			}
		}
	}
}

// profiled is ABySS run and estimated under prof, through the MPI
// program both share.
type profiled struct {
	abyss.ABySS
	prof mpidbg.Profile
}

func (p *profiled) Assemble(req assembler.Request) (assembler.Result, error) {
	return mpidbg.Run(req, p.Info(), p.prof)
}

func (p *profiled) Estimate(req assembler.Request) (assembler.Result, error) {
	return mpidbg.Estimate(req, p.Info(), p.prof)
}

// estimateMatches compares a's estimate of req with its run.
func estimateMatches(a assembler.Assembler, req assembler.Request) error {
	est, err := a.Estimate(req)
	if err != nil {
		return fmt.Errorf("estimate: %w", err)
	}
	res, err := a.Assemble(req)
	if err != nil {
		return fmt.Errorf("assemble: %w", err)
	}
	if len(est.Contigs) != 0 || est.N50 != 0 {
		return fmt.Errorf("estimate carries %d contigs, N50 %d", len(est.Contigs), est.N50)
	}
	if a.Info().Name == "contrail" {
		if ratio := est.TTC.Seconds() / res.TTC.Seconds(); ratio < 0.6 || ratio > 1.4 {
			return fmt.Errorf("predicted %v vs measured %v (ratio %.2f, tol 40%%)", est.TTC, res.TTC, ratio)
		}
		est.TTC = res.TTC
		est.Messages, est.BytesSent = res.Messages, res.BytesSent
	}
	got := [4]any{est.TTC, est.PeakMemoryGBPerNode, est.Messages, est.BytesSent}
	want := [4]any{res.TTC, res.PeakMemoryGBPerNode, res.Messages, res.BytesSent}
	if got != want {
		return fmt.Errorf("estimate (TTC, memory, messages, bytes) %v, run %v", got, want)
	}
	return nil
}

// Estimation must be cheap: it never touches the reads.
func TestEstimateNeedsNoReads(t *testing.T) {
	fs := simdata.PCrispa().FullScale
	for _, name := range []string{"ray", "abyss", "contrail", "velvet"} {
		a, _ := assembler.Get(name)
		nodes := 2
		if !a.Info().MultiNode() {
			nodes = 1
		}
		res, err := a.Estimate(assembler.Request{
			Params: assembler.Params{K: 51},
			Nodes:  nodes, CoresPerNode: 8, FullScale: fs,
		})
		if err != nil || res.TTC <= 0 || res.PeakMemoryGBPerNode <= 0 {
			t.Errorf("%s: %+v %v", name, res, err)
		}
	}
}
