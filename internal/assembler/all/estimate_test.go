package all

import (
	"testing"

	"rnascale/internal/assembler"
	"rnascale/internal/simdata"
)

// Every registered assembler must offer a-priori TTC estimation — the
// prerequisite the paper names for the fully dynamically adaptive
// workflow — and the estimates must track the measured virtual TTC.
func TestEstimatesTrackMeasurements(t *testing.T) {
	ds := tinyDataset(t)
	reads := cleanReads(ds)
	fs := simdata.BGlumae().FullScale
	tolerance := map[string]float64{
		"ray": 0.15, "abyss": 0.15,
		"contrail": 0.40, // its record volumes are approximated
		"velvet":   0.01, "oases": 0.01, "trinity": 0.01,
	}
	for _, a := range assembler.List() {
		name := a.Info().Name
		est, ok := a.(assembler.TTCEstimator)
		if !ok {
			t.Errorf("%s lacks EstimateTTC", name)
			continue
		}
		nodes := 2
		if !a.Info().MultiNode() {
			nodes = 1
		}
		tol, ok := tolerance[name]
		if !ok {
			t.Errorf("%s has no tolerance entry", name)
			continue
		}
		req := assembler.Request{
			Reads:  reads,
			Params: assembler.Params{K: 21, MinCoverage: 2},
			Nodes:  nodes, CoresPerNode: 8,
			FullScale: fs,
		}
		predicted, err := est.EstimateTTC(req)
		if err != nil {
			t.Errorf("%s estimate: %v", name, err)
			continue
		}
		res, err := a.Assemble(req)
		if err != nil {
			t.Errorf("%s assemble: %v", name, err)
			continue
		}
		ratio := predicted.Seconds() / res.TTC.Seconds()
		if ratio < 1-tol || ratio > 1+tol {
			t.Errorf("%s: predicted %v vs measured %v (ratio %.2f, tol %.0f%%)",
				name, predicted, res.TTC, ratio, tol*100)
		}
	}
}

// Estimation must be cheap: it never touches the reads.
func TestEstimateNeedsNoReads(t *testing.T) {
	fs := simdata.PCrispa().FullScale
	for _, name := range []string{"ray", "abyss", "contrail", "velvet"} {
		a, _ := assembler.Get(name)
		est := a.(assembler.TTCEstimator)
		nodes := 2
		if !a.Info().MultiNode() {
			nodes = 1
		}
		d, err := est.EstimateTTC(assembler.Request{
			Params: assembler.Params{K: 51},
			Nodes:  nodes, CoresPerNode: 8, FullScale: fs,
		})
		if err != nil || d <= 0 {
			t.Errorf("%s: %v %v", name, d, err)
		}
	}
}
