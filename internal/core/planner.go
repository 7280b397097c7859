package core

import (
	"fmt"
	"math"

	"rnascale/internal/assembler"
	"rnascale/internal/cloud"
	"rnascale/internal/cluster"
	"rnascale/internal/preprocess"
	"rnascale/internal/quant"
	"rnascale/internal/sge"
	"rnascale/internal/simdata"
	"rnascale/internal/vclock"
)

// This file implements the planning layer the paper identifies as the
// prerequisite for a fully dynamically adaptive workflow: "factors and
// conditions affecting the performance of a workflow should be known,
// along with a means for a rough estimate on TTCs of sub tasks a
// priori". Predict turns a configuration into per-stage TTC and cost
// estimates using only the cost models (no assembly is run); Optimize
// searches candidate configurations for the best predicted objective.

// Plan is a predicted execution of a configuration.
type Plan struct {
	Config Config
	// Per-stage predicted durations.
	Transfer, PA, PB, PC vclock.Duration
	// TTC is the predicted end-to-end virtual time.
	TTC vclock.Duration
	// CostUSD is the predicted cloud bill.
	CostUSD float64
	// AssemblyNodes is the PB cluster size the plan assumes.
	AssemblyNodes int
	// InstanceType is the flavour the plan assumes (the dynamic
	// pattern's choice, or the configured one).
	InstanceType string
}

// String renders the plan compactly.
func (p Plan) String() string {
	s := fmt.Sprintf("%v/%v on %d×%s: transfer %v, PA %v, PB %v, PC %v → TTC %v, $%.2f",
		p.Config.Scheme, p.Config.Pattern, p.AssemblyNodes, p.InstanceType,
		p.Transfer, p.PA, p.PB, p.PC, p.TTC, p.CostUSD)
	if p.Config.Backends != (StageBackends{}) {
		s += " [" + p.Config.Backends.String() + "]"
	}
	return s
}

// Objective selects what Optimize minimizes.
type Objective int

const (
	// MinimizeTTC optimizes for time-to-completion ("decreasing
	// time-to-completion (TTC) or cost" — the paper's twin goals).
	MinimizeTTC Objective = iota
	// MinimizeCost optimizes for the cloud bill.
	MinimizeCost
)

// String implements fmt.Stringer.
func (o Objective) String() string {
	if o == MinimizeCost {
		return "cost"
	}
	return "TTC"
}

// Predict estimates the stage durations and bill of running cfg on
// the dataset, using the same cost models the simulation uses but no
// computation. Accuracy against Run is validated in tests (the MPI
// estimates land within a few percent; Contrail within tens of
// percent).
func Predict(ds *simdata.Dataset, cfg Config) (Plan, error) {
	cfg = cfg.withDefaults()
	if cfg.Backends != (StageBackends{}) {
		// The per-stage backend dimension needs the general timeline
		// model; the default all-on-demand path keeps the original
		// closed-form estimate (validated against Run to a few percent).
		return predictBackends(ds, cfg)
	}
	fs := ds.Profile.FullScale
	copts := cloud.DefaultOptions()
	if cfg.Cloud != nil {
		copts = *cfg.Cloud
	}
	clopts := cluster.DefaultOptions()
	plan := Plan{Config: cfg}

	// Instance type (mirrors Run's dynamic choice for PA; S2 keeps it
	// for every stage).
	preModel := preprocess.DefaultCostModel()
	itName := cfg.InstanceType
	if cfg.Pattern == DistributedDynamic {
		it, err := ChooseInstanceType(cloud.NewProvider(vclock.NewClock(0), copts), preModel.MemoryGB(fs), 8)
		if err != nil {
			return plan, err
		}
		itName = it.Name
	}
	it, err := cloud.NewProvider(vclock.NewClock(0), copts).LookupType(itName)
	if err != nil {
		return plan, err
	}
	plan.InstanceType = it.Name
	cores := it.Cores

	// Memory feasibility (the prediction-time Table IV check).
	shards := cfg.ParallelPreprocessShards
	if shards < 1 {
		shards = 1
	}
	fsShard := fs
	fsShard.SeqDataBytes /= int64(shards)
	if preModel.MemoryGB(fsShard) > it.MemoryGB {
		return plan, fmt.Errorf("core: plan infeasible: pre-processing needs %.1f GB, %s offers %.1f GB",
			preModel.MemoryGB(fsShard), it.Name, it.MemoryGB)
	}

	// Stage 0: upload.
	plan.Transfer = copts.Ingress.Transfer(fs.SeqDataBytes)

	// PA: boot + configure + (sharded) cleaning.
	boot := copts.BootLatency + clopts.ConfigPerNode
	plan.PA = preModel.Duration(fsShard, min(cores, 8))

	// PB: predict each assembly job and list-schedule them on the PB
	// cluster exactly as SGE will.
	kmers := cfg.Kmers
	if len(kmers) == 0 {
		kmers = fs.AssemblyKmers
	}
	if len(kmers) == 0 {
		kmers = preprocess.KmerPlan(float64(ds.Profile.ReadLen), ds.Profile.ReadLen)
	}
	nodes := cfg.AssemblyNodesOverride
	if nodes <= 0 {
		nodes = AssemblyNodesFor(kmers, cfg.Assemblers, cfg.NodesPerMPIJob, cfg.ContrailNodes)
	}
	plan.AssemblyNodes = nodes
	asmFS := fs
	asmFS.SeqDataBytes = fs.PostPreprocessBytes

	specs := make([]sge.NodeSpec, nodes)
	for i := range specs {
		specs[i] = sge.NodeSpec{Name: fmt.Sprintf("n%03d", i), Slots: cores, MemoryGB: it.MemoryGB}
	}
	sched, err := sge.New(specs)
	if err != nil {
		return plan, err
	}
	for _, name := range cfg.Assemblers {
		a, err := assembler.Get(name)
		if err != nil {
			return plan, err
		}
		est, ok := a.(assembler.TTCEstimator)
		if !ok {
			return plan, fmt.Errorf("core: %s offers no TTC estimation", name)
		}
		jobNodes := cfg.NodesPerMPIJob
		rule := sge.SingleNode
		if name == "contrail" {
			jobNodes = cfg.ContrailNodes
		} else if !a.Info().MultiNode() {
			jobNodes = 1
		}
		if jobNodes > 1 {
			rule = sge.FillUp
		}
		for _, k := range kmers {
			d, err := est.EstimateTTC(assembler.Request{
				Params: assembler.Params{K: k, MinCoverage: cfg.MinCoverage},
				Nodes:  jobNodes, CoresPerNode: cores,
				FullScale: asmFS,
			})
			if err != nil {
				return plan, fmt.Errorf("core: estimating %s k=%d: %w", name, k, err)
			}
			// Memory feasibility per job.
			if mem := assembler.GraphMemoryGB(asmFS, jobNodes); mem > it.MemoryGB {
				return plan, fmt.Errorf("core: plan infeasible: %s needs %.1f GB/node on %d node(s), %s offers %.1f GB",
					name, mem, jobNodes, it.Name, it.MemoryGB)
			}
			if name == "contrail" {
				d += 60 * vclock.Second // SFA conversion
			}
			if _, err := sched.Submit(sge.JobSpec{
				Name: fmt.Sprintf("%s-k%d", name, k), Slots: jobNodes * cores,
				Rule: rule, Duration: d,
			}, 0); err != nil {
				return plan, err
			}
		}
	}
	plan.PB = vclock.Duration(sched.Makespan())

	// PC: merging + quantification (twice with a second condition).
	postModel := quant.DefaultCostModel()
	plan.PC = postModel.Duration(fs, min(cores, 8))
	if cfg.ConditionB != nil {
		plan.PC *= 2
	}

	// Assemble the timeline and the bill, scheme-dependent.
	growBoot := boot // booting the PB workers
	var interTransfer vclock.Duration
	if cfg.Scheme == S1 && cfg.Pattern != Conventional {
		interTransfer = copts.InterNode.Transfer(fs.PostPreprocessBytes)
	}
	plan.TTC = plan.Transfer + boot + plan.PA + growBoot + interTransfer + plan.PB + plan.PC

	// Bill: one node across the whole run plus (nodes-1) across the PB
	// window (plus its boot). This matches both schemes to first
	// order; S1's extra boots shift a few minutes between lines.
	price := it.PricePerHour
	fullWindow := plan.TTC - plan.Transfer
	pbWindow := vclock.Duration(growBoot) + plan.PB
	plan.CostUSD = price*fullWindow.Hours()*float64(max(1, shards)) +
		price*pbWindow.Hours()*float64(nodes-1)
	// Avoid double-counting the PA shards beyond the head node during
	// the non-PA window: refine to head (full) + extra shards (PA
	// window) + workers (PB window).
	if shards > 1 {
		plan.CostUSD = price*fullWindow.Hours() +
			price*(vclock.Duration(boot)+plan.PA).Hours()*float64(shards-1) +
			price*pbWindow.Hours()*float64(nodes-1)
	}
	return plan, nil
}

// predictBackends is the general timeline model behind Predict for
// configurations with a non-default per-stage backend assignment. It
// walks the workflow stage by stage in absolute virtual time (spot
// prices are time-dependent), pricing VM stages per window on their
// market and serverless stages per invocation, and inflates spot plans
// by the market's expected reclaim count (each reclaim costs one
// replacement boot). The estimate is RNG-free and deterministic: the
// spot walk it integrates over is the same memoized price walk the run
// will see.
func predictBackends(ds *simdata.Dataset, cfg Config) (Plan, error) {
	fs := ds.Profile.FullScale
	copts := cloud.DefaultOptions()
	if cfg.Cloud != nil {
		copts = *cfg.Cloud
	}
	clopts := cluster.DefaultOptions()
	b := cfg.Backends
	plan := Plan{Config: cfg}
	if cfg.Pattern == Conventional && b.AnyServerless() {
		return plan, fmt.Errorf("core: the conventional pattern shares one cluster across stages and cannot host serverless stages (%s)", b)
	}

	// Markets, defaulted exactly as New does.
	var market *cloud.SpotMarket
	if b.AnySpot() {
		sopts := cloud.SpotOptions{Seed: cfg.FaultSeed}
		if copts.Spot != nil {
			sopts = *copts.Spot
		}
		market = cloud.NewSpotMarket(sopts)
	}
	so := cloud.DefaultServerlessOptions()
	if copts.Serverless != nil {
		so = copts.Serverless.WithDefaults()
	}

	// Instance type (mirrors Run's dynamic choice for PA).
	preModel := preprocess.DefaultCostModel()
	itName := cfg.InstanceType
	if cfg.Pattern == DistributedDynamic && b.PA != cloud.Serverless {
		it, err := ChooseInstanceType(cloud.NewProvider(vclock.NewClock(0), copts), preModel.MemoryGB(fs), 8)
		if err != nil {
			return plan, err
		}
		itName = it.Name
	}
	it, err := cloud.NewProvider(vclock.NewClock(0), copts).LookupType(itName)
	if err != nil {
		return plan, err
	}
	plan.InstanceType = it.Name
	cores := it.Cores
	price := it.PricePerHour
	boot := copts.BootLatency + clopts.ConfigPerNode

	shards := cfg.ParallelPreprocessShards
	if shards < 1 {
		shards = 1
	}
	fsShard := fs
	fsShard.SeqDataBytes /= int64(shards)

	var (
		t        vclock.Time
		cost     float64
		reclaims float64 // expected spot reclaims across all stages
	)
	// vmWindow prices n nodes across [from, to) on a backend, and
	// accumulates the reclaim expectation for spot windows.
	vmWindow := func(be cloud.Backend, n int, from, to vclock.Time) float64 {
		hours := to.Sub(from).Hours()
		if be == cloud.Spot {
			az := market.CheapestAZ(from)
			reclaims += float64(n) * market.ExpectedReclaims(az, from, to)
			return price * market.AvgFrac(az, from, to) * hours * float64(n)
		}
		return price * hours * float64(n)
	}
	// fnStage prices one class of serverless units: each of n parallel
	// units runs `dur` of compute at `memGB`, split at the duration cap
	// into parallel pieces. Returns the stage wall time (every first
	// burst is cold).
	fnStage := func(stage string, n int, dur vclock.Duration, memGB float64) (vclock.Duration, error) {
		tier, ok := so.TierFor(memGB)
		if !ok {
			return 0, fmt.Errorf("core: plan infeasible: %s needs %.1f GB, largest function tier is %.0f GB",
				stage, memGB, so.MaxTierGB())
		}
		pieces := splitPieces(dur, so.MaxDuration)
		piece := dur / vclock.Duration(pieces)
		cost += float64(n*pieces) * so.InvocationUSD(tier, piece)
		return so.ColdStart + piece, nil
	}

	// Stage 0: upload.
	plan.Transfer = copts.Ingress.Transfer(fs.SeqDataBytes)
	t = t.Add(plan.Transfer)

	// K-mer plan and PB sizing, needed up front for Conventional.
	kmers := cfg.Kmers
	if len(kmers) == 0 {
		kmers = fs.AssemblyKmers
	}
	if len(kmers) == 0 {
		kmers = preprocess.KmerPlan(float64(ds.Profile.ReadLen), ds.Profile.ReadLen)
	}
	nodes := cfg.AssemblyNodesOverride
	if nodes <= 0 {
		nodes = AssemblyNodesFor(kmers, cfg.Assemblers, cfg.NodesPerMPIJob, cfg.ContrailNodes)
	}
	asmFS := fs
	asmFS.SeqDataBytes = fs.PostPreprocessBytes

	// PA.
	paMem := preModel.MemoryGB(fsShard)
	if b.PA == cloud.Serverless {
		wall, err := fnStage("pre-processing", shards, preModel.Duration(fsShard, 1), paMem)
		if err != nil {
			return plan, err
		}
		plan.PA = wall
		t = t.Add(wall)
	} else {
		if paMem > it.MemoryGB {
			return plan, fmt.Errorf("core: plan infeasible: pre-processing needs %.1f GB, %s offers %.1f GB",
				paMem, it.Name, it.MemoryGB)
		}
		paNodes := shards
		if cfg.Pattern == Conventional && nodes > paNodes {
			paNodes = nodes // one cluster sized for the whole workflow
		}
		start := t
		t = t.Add(boot)
		plan.PA = preModel.Duration(fsShard, min(cores, 8))
		t = t.Add(plan.PA)
		if cfg.Pattern != Conventional {
			cost += vmWindow(b.PA, paNodes, start, t)
		} else {
			_ = paNodes // Conventional bills the whole run in one window below.
		}
	}

	// PB: per-job estimates, then either an SGE schedule on the cluster
	// or an all-parallel function burst.
	type jobEst struct {
		name     string
		jobNodes int
		rule     sge.AllocationRule
		d        vclock.Duration
		memGB    float64
	}
	var jobs []jobEst
	for _, name := range cfg.Assemblers {
		a, err := assembler.Get(name)
		if err != nil {
			return plan, err
		}
		est, ok := a.(assembler.TTCEstimator)
		if !ok {
			return plan, fmt.Errorf("core: %s offers no TTC estimation", name)
		}
		jobNodes := cfg.NodesPerMPIJob
		rule := sge.SingleNode
		if name == "contrail" {
			jobNodes = cfg.ContrailNodes
		} else if !a.Info().MultiNode() {
			jobNodes = 1
		}
		if jobNodes > 1 {
			rule = sge.FillUp
		}
		jobCores := cores
		if b.PB == cloud.Serverless {
			jobNodes, jobCores, rule = 1, 1, sge.SingleNode
		}
		for _, k := range kmers {
			d, err := est.EstimateTTC(assembler.Request{
				Params: assembler.Params{K: k, MinCoverage: cfg.MinCoverage},
				Nodes:  jobNodes, CoresPerNode: jobCores,
				FullScale: asmFS,
			})
			if err != nil {
				return plan, fmt.Errorf("core: estimating %s k=%d: %w", name, k, err)
			}
			if name == "contrail" {
				d += 60 * vclock.Second // SFA conversion
			}
			jobs = append(jobs, jobEst{name: name, jobNodes: jobNodes, rule: rule, d: d,
				memGB: assembler.GraphMemoryGB(asmFS, jobNodes)})
		}
	}
	if b.PB == cloud.Serverless {
		nodes = 0
		plan.AssemblyNodes = 0
		var wall vclock.Duration
		for _, j := range jobs {
			w, err := fnStage(j.name+" assembly", 1, j.d, j.memGB)
			if err != nil {
				return plan, err
			}
			if w > wall {
				wall = w
			}
		}
		// The PB inputs migrate to the object store first.
		d := copts.InterNode.Transfer(fs.PostPreprocessBytes)
		plan.PB = wall
		t = t.Add(d).Add(wall)
	} else {
		plan.AssemblyNodes = nodes
		specs := make([]sge.NodeSpec, nodes)
		for i := range specs {
			specs[i] = sge.NodeSpec{Name: fmt.Sprintf("n%03d", i), Slots: cores, MemoryGB: it.MemoryGB}
		}
		sched, err := sge.New(specs)
		if err != nil {
			return plan, err
		}
		for _, j := range jobs {
			if j.memGB > it.MemoryGB {
				return plan, fmt.Errorf("core: plan infeasible: %s needs %.1f GB/node on %d node(s), %s offers %.1f GB",
					j.name, j.memGB, j.jobNodes, it.Name, it.MemoryGB)
			}
			if _, err := sched.Submit(sge.JobSpec{
				Name: j.name, Slots: j.jobNodes * cores, Rule: j.rule, Duration: j.d,
			}, 0); err != nil {
				return plan, err
			}
		}
		plan.PB = vclock.Duration(sched.Makespan())
		start := t
		if cfg.Pattern != Conventional {
			t = t.Add(boot) // boot/grow the PB workers
			if cfg.Scheme == S1 || b.PA == cloud.Serverless {
				t = t.Add(copts.InterNode.Transfer(fs.PostPreprocessBytes))
			}
		}
		t = t.Add(plan.PB)
		if cfg.Pattern != Conventional {
			cost += vmWindow(b.PB, nodes, start, t)
		}
	}

	// PC.
	postModel := quant.DefaultCostModel()
	pcMem := postModel.MemoryGB(fs)
	pcRuns := 1
	if cfg.ConditionB != nil {
		pcRuns = 2
	}
	if b.PC == cloud.Serverless {
		wall, err := fnStage("post-processing", 1, postModel.Duration(fs, 1)*vclock.Duration(pcRuns), pcMem)
		if err != nil {
			return plan, err
		}
		plan.PC = wall
		t = t.Add(wall)
	} else {
		if pcMem > it.MemoryGB {
			return plan, fmt.Errorf("core: plan infeasible: post-processing needs %.1f GB, %s offers %.1f GB",
				pcMem, it.Name, it.MemoryGB)
		}
		start := t
		if b.PB == cloud.Serverless && cfg.Pattern != Conventional {
			t = t.Add(boot) // nothing to adopt after a serverless PB
		}
		plan.PC = postModel.Duration(fs, min(cores, 8)) * vclock.Duration(pcRuns)
		t = t.Add(plan.PC)
		if cfg.Pattern != Conventional {
			cost += vmWindow(b.PC, 1, start, t)
		}
	}

	if cfg.Pattern == Conventional {
		// One cluster, sized for the whole workflow, from first boot to
		// the end of PC, on PA's backend (the only pilot there is).
		n := shards
		if nodes > n {
			n = nodes
		}
		cost += vmWindow(b.PA, n, vclock.Time(0).Add(plan.Transfer), t)
	}

	plan.TTC = vclock.Duration(t)
	if reclaims > 0 {
		// Each expected reclaim boots one replacement node and re-runs
		// the work it interrupted (roughly half a boot window of rework).
		over := vclock.Duration(reclaims * float64(boot))
		plan.TTC += over
		cost += price * over.Hours()
	}
	plan.CostUSD = cost
	return plan, nil
}

// splitPieces reports how many parallel invocations a unit of duration
// d needs under a per-invocation cap.
func splitPieces(d, cap vclock.Duration) int {
	if cap <= 0 || d <= cap {
		return 1
	}
	return int(math.Ceil(float64(d) / float64(cap)))
}

// ExpandBackends crosses base with every per-stage backend assignment
// drawn from the given set (all three backends when nil), skipping
// combinations the runtime rejects (serverless stages under the
// Conventional pattern). The base's own Backends field is overwritten.
func ExpandBackends(base Config, backends []cloud.Backend) []Config {
	if len(backends) == 0 {
		backends = []cloud.Backend{cloud.OnDemand, cloud.Spot, cloud.Serverless}
	}
	var out []Config
	for _, pa := range backends {
		for _, pb := range backends {
			for _, pc := range backends {
				bk := StageBackends{PA: pa, PB: pb, PC: pc}
				if base.Pattern == Conventional && bk.AnyServerless() {
					continue
				}
				c := base
				c.Backends = bk
				out = append(out, c)
			}
		}
	}
	return out
}

// Optimize predicts every candidate configuration and returns the
// feasible plan minimizing the objective. Infeasible candidates
// (memory, unknown tools) are skipped; an error is returned only when
// no candidate is feasible.
func Optimize(ds *simdata.Dataset, candidates []Config, obj Objective) (Plan, error) {
	if len(candidates) == 0 {
		return Plan{}, fmt.Errorf("core: no candidate configurations")
	}
	var best Plan
	bestScore := math.Inf(1)
	found := false
	var lastErr error
	for _, cfg := range candidates {
		plan, err := Predict(ds, cfg)
		if err != nil {
			lastErr = err
			continue
		}
		score := plan.TTC.Seconds()
		if obj == MinimizeCost {
			score = plan.CostUSD
		}
		if score < bestScore {
			best, bestScore, found = plan, score, true
		}
	}
	if !found {
		return Plan{}, fmt.Errorf("core: no feasible candidate (last error: %v)", lastErr)
	}
	return best, nil
}

// Frontier predicts every candidate and returns the Pareto-optimal
// plans under (TTC, cost) — the "decreasing time-to-completion (TTC)
// or cost" trade-off the paper frames as the pipeline's twin goals.
// The result is sorted by ascending TTC; infeasible candidates are
// skipped.
func Frontier(ds *simdata.Dataset, candidates []Config) ([]Plan, error) {
	var plans []Plan
	for _, cfg := range candidates {
		p, err := Predict(ds, cfg)
		if err != nil {
			continue
		}
		plans = append(plans, p)
	}
	if len(plans) == 0 {
		return nil, fmt.Errorf("core: no feasible candidate among %d", len(candidates))
	}
	// A plan is dominated if another is at least as good on both axes
	// and strictly better on one.
	var frontier []Plan
	for i, p := range plans {
		dominated := false
		for j, q := range plans {
			if i == j {
				continue
			}
			if q.TTC <= p.TTC && q.CostUSD <= p.CostUSD &&
				(q.TTC < p.TTC || q.CostUSD < p.CostUSD) {
				dominated = true
				break
			}
		}
		if !dominated {
			frontier = append(frontier, p)
		}
	}
	sortPlansByTTC(frontier)
	return frontier, nil
}

// sortPlansByTTC orders plans fastest-first (ties by cost).
func sortPlansByTTC(plans []Plan) {
	for i := 1; i < len(plans); i++ {
		for j := i; j > 0; j-- {
			a, b := plans[j-1], plans[j]
			if b.TTC < a.TTC || (b.TTC == a.TTC && b.CostUSD < a.CostUSD) {
				plans[j-1], plans[j] = b, a
				continue
			}
			break
		}
	}
}
