package ray

import (
	"testing"

	"rnascale/internal/assembler"
	"rnascale/internal/assembler/mpidbg"
	"rnascale/internal/simdata"
)

func TestInfoMatchesTableI(t *testing.T) {
	r := &Ray{}
	info := r.Info()
	if info.Name != "ray" || info.Distributed != "MPI" || info.Version != "2.3.1" || info.GraphType != "DBG" {
		t.Errorf("info %+v", info)
	}
}

func TestDefaultProfileShape(t *testing.T) {
	p := DefaultProfile()
	// Ray is the conservative, serial-heavy tool.
	if p.MinCoverageDefault < 3 {
		t.Errorf("min coverage %d; Ray must be conservative", p.MinCoverageDefault)
	}
	if p.SerialFraction < 0.5 {
		t.Errorf("serial fraction %v; Ray's scaling must be marginal", p.SerialFraction)
	}
}

func TestProfileOverride(t *testing.T) {
	ds, err := simdata.Generate(simdata.Tiny())
	if err != nil {
		t.Fatal(err)
	}
	req := assembler.Request{
		Reads: ds.Reads.Reads, Params: assembler.Params{K: 21, MinCoverage: 2},
		Nodes: 2, CoresPerNode: 2, FullScale: ds.Profile.FullScale,
	}
	stock, err := (&Ray{}).Assemble(req)
	if err != nil {
		t.Fatal(err)
	}
	fast := DefaultProfile()
	fast.BasesPerCoreSecond *= 10
	tuned, err := mpidbg.Run(req, (&Ray{}).Info(), fast)
	if err != nil {
		t.Fatal(err)
	}
	if tuned.TTC >= stock.TTC {
		t.Errorf("10× rate profile did not speed up: %v vs %v", tuned.TTC, stock.TTC)
	}
	// Identical biology either way.
	if len(tuned.Contigs) != len(stock.Contigs) {
		t.Error("profile rate changed the assembly result")
	}
}

func TestEstimateTracksAssemble(t *testing.T) {
	ds, err := simdata.Generate(simdata.Tiny())
	if err != nil {
		t.Fatal(err)
	}
	req := assembler.Request{
		Reads: ds.Reads.Reads, Params: assembler.Params{K: 21, MinCoverage: 2},
		Nodes: 2, CoresPerNode: 8, FullScale: simdata.BGlumae().FullScale,
	}
	r := &Ray{}
	predicted, err := r.Estimate(req)
	if err != nil {
		t.Fatal(err)
	}
	res, err := r.Assemble(req)
	if err != nil {
		t.Fatal(err)
	}
	if predicted.TTC != res.TTC {
		t.Errorf("estimate %v != measured %v", predicted.TTC, res.TTC)
	}
	// A changed profile flows into the estimate too.
	fast := DefaultProfile()
	fast.BasesPerCoreSecond *= 10
	tuned, err := mpidbg.Estimate(req, r.Info(), fast)
	if err != nil {
		t.Fatal(err)
	}
	if tuned.TTC >= predicted.TTC {
		t.Error("profile rate ignored by estimator")
	}
}
