package core

import (
	"fmt"

	"rnascale/internal/assembler"
	"rnascale/internal/cloud"
	"rnascale/internal/cluster"
	"rnascale/internal/pilot"
	"rnascale/internal/sge"
	"rnascale/internal/simdata"
	"rnascale/internal/vclock"
)

// MultiKResult reports one multiple-k-mer assembly-step experiment
// (paper Fig. 4, lower panel): the task-level parallelization of the
// per-k jobs over a small cluster.
type MultiKResult struct {
	Nodes    int
	Kmers    []int
	Makespan vclock.Duration
	// PerJob lists each k's individual TTC in k order.
	PerJob []vclock.Duration
}

// MultiKMakespan runs one assembler's multiple-k-mer jobs (each on
// NodesPerJob nodes) over a cluster of the given size through the
// pilot + SGE machinery, and reports the stage makespan. This is the
// second kind of parallelism the paper identifies in the assembly
// step: task-level parallelism across k values, on top of each job's
// internal scale-out.
func MultiKMakespan(ds *simdata.Dataset, asmName string, kmers []int, nodes, nodesPerJob int, itype string) (MultiKResult, error) {
	if len(kmers) == 0 {
		return MultiKResult{}, fmt.Errorf("core: no k values")
	}
	if nodesPerJob <= 0 {
		nodesPerJob = 1
	}
	a, err := assembler.Get(asmName)
	if err != nil {
		return MultiKResult{}, err
	}
	clock := vclock.NewClock(0)
	provider := cloud.NewProvider(clock, cloud.DefaultOptions())
	pm := pilot.NewManager(provider, pilot.NewStateStore(), cluster.DefaultOptions())
	p, err := pm.SubmitPilot(pilot.PilotDescription{Name: "fig4b", InstanceType: itype, Nodes: nodes})
	if err != nil {
		return MultiKResult{}, err
	}
	cores := p.Cluster.InstanceType().Cores
	um, err := pilot.NewUnitManager(p)
	if err != nil {
		return MultiKResult{}, err
	}
	start := clock.Now()
	res := MultiKResult{Nodes: nodes, Kmers: kmers, PerJob: make([]vclock.Duration, len(kmers))}
	var descs []pilot.UnitDescription
	for i, k := range kmers {
		i, k := i, k
		rule := sge.SingleNode
		if nodesPerJob > 1 {
			rule = sge.FillUp
		}
		descs = append(descs, pilot.UnitDescription{
			Name:  fmt.Sprintf("%s-k%d", asmName, k),
			Slots: nodesPerJob * cores,
			Rule:  rule,
			Work: func(env *pilot.ExecEnv) (pilot.WorkResult, error) {
				ar, err := a.Assemble(assembler.Request{
					Reads:        ds.Reads.Reads,
					Params:       assembler.Params{K: k, MinCoverage: 2},
					Nodes:        nodesPerJob,
					CoresPerNode: cores,
					FullScale:    ds.Profile.FullScale,
				})
				if err != nil {
					return pilot.WorkResult{}, err
				}
				res.PerJob[i] = ar.TTC
				return pilot.WorkResult{Duration: ar.TTC, PeakMemoryGB: ar.PeakMemoryGBPerNode}, nil
			},
		})
	}
	units, err := um.Submit(descs)
	if err != nil {
		return MultiKResult{}, err
	}
	if err := um.Run(); err != nil {
		return MultiKResult{}, err
	}
	for _, u := range units {
		if u.State() != pilot.UnitDone {
			return MultiKResult{}, fmt.Errorf("core: %s failed: %v", u.ID, u.Err)
		}
	}
	res.Makespan = clock.Now().Sub(start)
	pm.CompletePilot(p)
	return res, nil
}
