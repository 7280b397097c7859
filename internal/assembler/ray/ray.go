// Package ray implements an MPI-based distributed De Bruijn graph
// assembler modelled on Ray — the only assembler the original
// Rnnotator could use for data sets exceeding one node's memory, and
// one of the three distributed tools the paper benchmarks (Table I).
//
// Calibration: Table III puts Ray at 1,721 s for the B. Glumae set
// (k=47) on a two-node c3.2xlarge cluster, with Fig. 3/4 showing only
// marginal gains from additional nodes. The profile's high serial
// fraction (distributed-graph bookkeeping funnelling through rank 0)
// reproduces both. Ray's conservative default coverage cutoff gives
// it the paper's Table V signature: the highest nucleotide precision
// and abundance-weighted recall, at the cost of raw recall.
package ray

import (
	"rnascale/internal/assembler"
	"rnascale/internal/assembler/mpidbg"
	"rnascale/internal/cloud"
)

// Ray is the assembler, calibrated by DefaultProfile.
type Ray struct{}

// DefaultProfile is Ray's calibrated cost/quality profile.
func DefaultProfile() mpidbg.Profile {
	return mpidbg.Profile{
		Prefix:             "ray",
		BasesPerCoreSecond: 0.80e6,
		SerialFraction:     0.76,
		WireBytesPerBase:   12,
		MinCoverageDefault: 4,
		MemoryFactor:       1.0,
		Inter:              cloud.InterNode,
	}
}

// Info implements assembler.Assembler.
func (r *Ray) Info() assembler.Info {
	return assembler.Info{Name: "ray", GraphType: "DBG", Distributed: "MPI", Version: "2.3.1"}
}

// Assemble implements assembler.Assembler.
func (r *Ray) Assemble(req assembler.Request) (assembler.Result, error) {
	return mpidbg.Run(req, r.Info(), DefaultProfile())
}

// Estimate implements assembler.Assembler.
func (r *Ray) Estimate(req assembler.Request) (assembler.Result, error) {
	return mpidbg.Estimate(req, r.Info(), DefaultProfile())
}

// EstimateHostBytes implements assembler.HostMemoryEstimator.
func (r *Ray) EstimateHostBytes(req assembler.Request) int64 { return mpidbg.HostBytes(req) }
