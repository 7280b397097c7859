package abyss

import (
	"testing"

	"rnascale/internal/assembler"
	"rnascale/internal/assembler/mpidbg"
	"rnascale/internal/assembler/ray"
	"rnascale/internal/simdata"
)

func TestInfoMatchesTableI(t *testing.T) {
	a := &ABySS{}
	info := a.Info()
	if info.Name != "abyss" || info.Distributed != "MPI" || info.Version != "1.9.0" {
		t.Errorf("info %+v", info)
	}
}

func TestFasterButFlatterThanRay(t *testing.T) {
	ap, rp := DefaultProfile(), ray.DefaultProfile()
	if ap.BasesPerCoreSecond <= rp.BasesPerCoreSecond {
		t.Error("ABySS must have the faster core (Table III: 882s vs 1721s)")
	}
	if ap.SerialFraction <= rp.SerialFraction {
		t.Error("ABySS must be the flatter scaler (Fig. 3: no significant gain)")
	}
	if ap.MinCoverageDefault >= rp.MinCoverageDefault {
		t.Error("ABySS must be more permissive than Ray (Table V recall gap)")
	}
}

func TestAssembleAndCompareWithRay(t *testing.T) {
	ds, err := simdata.Generate(simdata.Tiny())
	if err != nil {
		t.Fatal(err)
	}
	req := assembler.Request{
		Reads: ds.Reads.Reads, Params: assembler.Params{K: 21}, // tool-default coverage cutoffs
		Nodes: 2, CoresPerNode: 8, FullScale: simdata.BGlumae().FullScale,
	}
	ares, err := (&ABySS{}).Assemble(req)
	if err != nil {
		t.Fatal(err)
	}
	rres, err := (&ray.Ray{}).Assemble(req)
	if err != nil {
		t.Fatal(err)
	}
	if ares.TTC >= rres.TTC {
		t.Errorf("abyss %v not faster than ray %v", ares.TTC, rres.TTC)
	}
	var aBases, rBases int
	for _, c := range ares.Contigs {
		aBases += len(c.Seq)
	}
	for _, c := range rres.Contigs {
		rBases += len(c.Seq)
	}
	if aBases <= rBases {
		t.Errorf("permissive abyss assembled %d bases ≤ conservative ray %d", aBases, rBases)
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
	a := &ABySS{}
	predicted, err := a.Estimate(req)
	if err != nil {
		t.Fatal(err)
	}
	res, err := a.Assemble(req)
	if err != nil {
		t.Fatal(err)
	}
	if predicted.TTC != res.TTC {
		t.Errorf("estimate %v != measured %v", predicted.TTC, res.TTC)
	}
	slow := DefaultProfile()
	slow.BasesPerCoreSecond /= 4
	tuned, err := mpidbg.Estimate(req, a.Info(), slow)
	if err != nil {
		t.Fatal(err)
	}
	if tuned.TTC <= predicted.TTC {
		t.Error("profile rate ignored by estimator")
	}
}
