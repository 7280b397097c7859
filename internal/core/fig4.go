package core

import (
	"fmt"

	"rnascale/internal/simdata"
	"rnascale/internal/vclock"
)

// MultiKResult reports one multiple-k-mer assembly-step experiment
// (paper Fig. 4, lower panel): the task-level parallelization of the
// per-k jobs over a small cluster.
type MultiKResult struct {
	Nodes    int
	Makespan vclock.Duration
	// PerJob lists each k's individual TTC in k order.
	PerJob []vclock.Duration
}

// MultiKMakespan runs one assembler's multiple-k-mer jobs (each on
// nodesPerJob nodes) on the raw reads through the pipeline's PB stage,
// over a static S2 cluster of the given size, and reports the stage
// makespan. This is the second kind of parallelism the paper identifies
// in the assembly step: task-level parallelism across k values, on top
// of each job's internal scale-out. Every caller passes Ray; another
// tool gets PB's own treatment (Contrail its N-free reads and SFA
// conversion).
func MultiKMakespan(ds *simdata.Dataset, asmName string, kmers []int, nodes, nodesPerJob int, itype string) (MultiKResult, error) {
	if len(kmers) == 0 {
		return MultiKResult{}, fmt.Errorf("core: no k values")
	}
	cfg := Config{
		Scheme: S2, Pattern: DistributedStatic, Assemblers: []string{asmName}, InstanceType: itype,
		AssemblyNodesOverride: nodes, NodesPerMPIJob: nodesPerJob, Kmers: kmers, MinCoverage: 2,
	}
	if err := checkAssemblers(cfg.Assemblers); err != nil {
		return MultiKResult{}, err
	}
	pl := New(cfg)
	defer pl.teardown()
	// PB sizes its jobs by the cleaned bytes; Fig. 4 assembles the raw
	// reads.
	fs := ds.Profile.FullScale
	fs.PostPreprocessBytes = fs.SeqDataBytes
	rep := &Report{KmersUsed: kmers}
	if _, err := pl.assemble(fs, ds.Reads, rep); err != nil {
		return MultiKResult{}, err
	}
	pb := rep.Stages[len(rep.Stages)-1]
	res := MultiKResult{Nodes: nodes, Makespan: pb.End.Sub(pb.Start)}
	for _, a := range rep.Assemblies {
		res.PerJob = append(res.PerJob, a.TTC)
	}
	return res, nil
}
