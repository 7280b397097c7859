// Package abyss implements an MPI-based distributed De Bruijn graph
// assembler modelled on ABySS, one of the two assemblers this work
// newly integrated into the pipeline (Table I).
//
// Calibration: Table III puts ABySS at 882 s on the two-node
// B. Glumae baseline — roughly twice as fast as Ray — while Fig. 3
// shows ABySS gaining essentially nothing from additional nodes. The
// profile encodes that: a faster per-core rate with an even larger
// serial fraction. ABySS's permissive coverage cutoff yields the
// paper's Table V profile: higher nucleotide recall than Ray, lower
// abundance-weighted scores.
package abyss

import (
	"rnascale/internal/assembler"
	"rnascale/internal/assembler/mpidbg"
	"rnascale/internal/cloud"
)

// ABySS is the assembler, calibrated by DefaultProfile.
type ABySS struct{}

// DefaultProfile is ABySS's calibrated cost/quality profile.
func DefaultProfile() mpidbg.Profile {
	return mpidbg.Profile{
		Prefix:             "abyss",
		BasesPerCoreSecond: 1.60e6,
		SerialFraction:     0.80,
		WireBytesPerBase:   10,
		MinCoverageDefault: 2,
		MemoryFactor:       0.95,
		Inter:              cloud.InterNode,
	}
}

// Info implements assembler.Assembler.
func (a *ABySS) Info() assembler.Info {
	return assembler.Info{Name: "abyss", GraphType: "DBG", Distributed: "MPI", Version: "1.9.0"}
}

// Assemble implements assembler.Assembler.
func (a *ABySS) Assemble(req assembler.Request) (assembler.Result, error) {
	return mpidbg.Run(req, a.Info(), DefaultProfile())
}

// Estimate implements assembler.Assembler.
func (a *ABySS) Estimate(req assembler.Request) (assembler.Result, error) {
	return mpidbg.Estimate(req, a.Info(), DefaultProfile())
}

// EstimateHostBytes implements assembler.HostMemoryEstimator.
func (a *ABySS) EstimateHostBytes(req assembler.Request) int64 { return mpidbg.HostBytes(req) }
