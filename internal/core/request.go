package core

import (
	"cmp"
	"fmt"
	"slices"
	"strings"

	"rnascale/internal/assembler"
	"rnascale/internal/cloud"
	"rnascale/internal/faults"
	"rnascale/internal/simdata"
	"rnascale/internal/vclock"
)

// Request describes a run by name: the JSON body of a gateway
// submission and what rnapipe's flags fill. Config is the only decoder
// from these names to a Config. A zero field takes DefaultConfig's
// value.
type Request struct {
	// Profile is a built-in dataset profile name (default tiny).
	Profile string `json:"profile"`
	// Assemblers lists the tools (default: DefaultConfig's ray, abyss
	// and contrail); >1 enables MAMP.
	Assemblers []string `json:"assemblers"`
	// Scheme is "S1" or "S2" (default S2).
	Scheme string `json:"scheme"`
	// Pattern is "conventional", "static" or "dynamic" (default
	// dynamic).
	Pattern string `json:"pattern"`
	// InstanceType fixes the flavour for static patterns; it must name
	// a type in cloud.DefaultCatalog.
	InstanceType string `json:"instanceType"`
	// ContrailNodes overrides the per-Contrail-job node count.
	ContrailNodes int `json:"contrailNodes"`
	// Evaluate scores the result against the synthetic ground truth.
	Evaluate bool `json:"evaluate"`
	// Faults is a deterministic fault-injection spec (see
	// internal/faults), e.g. "crash:p=0.1,after=600;slowxfer:x=0.5".
	// Empty disables injection.
	Faults string `json:"faults,omitempty"`
	// FaultSeed seeds the fault-injection PRNG and the spot market's
	// price walk; the same seed replays the same faults and prices.
	FaultSeed uint64 `json:"faultSeed,omitempty"`
	// DeadlineSeconds is a virtual-time deadline for the run: the
	// pipeline cancels remaining work at the cutoff, and the gateway
	// also refuses at admission a run the planner prices past it. Zero
	// means no deadline.
	DeadlineSeconds float64 `json:"deadlineSeconds,omitempty"`
	// MaxCostUSD refuses a run whose predicted cloud bill exceeds it,
	// before it starts. Zero means no budget cap.
	MaxCostUSD float64 `json:"maxCostUSD,omitempty"`
	// RetryBudget caps run-wide unit retries (see Config). Zero means
	// unlimited.
	RetryBudget int `json:"retryBudget,omitempty"`
	// Priority orders runs under the gateway's brownout shedding:
	// when the queue's head has waited past the shed watermark, the
	// lowest-priority queued run is evicted to make room for a
	// higher-priority arrival, and arrivals that are themselves
	// lowest-priority are turned away. Higher is more important;
	// default 0.
	Priority int `json:"priority,omitempty"`
	// Backends assigns per-stage purchasing backends in
	// ParseStageBackends form, e.g. "PA=spot,PB=serverless" or "spot"
	// (default on-demand everywhere).
	Backends string `json:"backends,omitempty"`
	// MPINodes is the node count per MPI assembly job.
	MPINodes int `json:"mpiNodes,omitempty"`
	// Consensus validates contigs by cross-assembler consensus before
	// merging.
	Consensus bool `json:"consensus,omitempty"`
	// PreprocessShards is the data-parallel pre-processing shard count.
	PreprocessShards int `json:"preprocessShards,omitempty"`
}

// Config decodes the request into a run configuration and the dataset
// profile it names. It refuses an unknown name, a negative number and
// a malformed backend or fault spec. Nothing is generated: the caller
// materializes the profile. The Config carries no cloud, obs or journal
// handles.
func (r Request) Config() (cfg Config, prof simdata.Profile, err error) {
	defer func() {
		if err != nil {
			cfg, prof, err = Config{}, simdata.Profile{}, fmt.Errorf("core: request: %w", err)
		}
	}()
	cfg = DefaultConfig()
	prof, ok := simdata.Profiles()[cmp.Or(r.Profile, "tiny")]
	if !ok {
		return cfg, prof, fmt.Errorf("unknown profile %q", r.Profile)
	}
	if len(r.Assemblers) > 0 {
		cfg.Assemblers = r.Assemblers
	}
	for _, a := range cfg.Assemblers {
		if _, err := assembler.Get(a); err != nil {
			return cfg, prof, err
		}
	}
	switch strings.ToUpper(r.Scheme) {
	case "", "S2":
		cfg.Scheme = S2
	case "S1":
		cfg.Scheme = S1
	default:
		return cfg, prof, fmt.Errorf("unknown scheme %q", r.Scheme)
	}
	switch strings.ToLower(r.Pattern) {
	case "", "dynamic":
		cfg.Pattern = DistributedDynamic
	case "static":
		cfg.Pattern = DistributedStatic
	case "conventional":
		cfg.Pattern = Conventional
	default:
		return cfg, prof, fmt.Errorf("unknown pattern %q", r.Pattern)
	}
	if r.InstanceType != "" {
		if !slices.ContainsFunc(cloud.DefaultCatalog(), func(it cloud.InstanceType) bool { return it.Name == r.InstanceType }) {
			return cfg, prof, fmt.Errorf("unknown instance type %q", r.InstanceType)
		}
		cfg.InstanceType = r.InstanceType
	}
	for _, n := range []struct {
		name  string
		value float64
	}{
		{"contrailNodes", float64(r.ContrailNodes)},
		{"mpiNodes", float64(r.MPINodes)},
		{"preprocessShards", float64(r.PreprocessShards)},
		{"deadlineSeconds", r.DeadlineSeconds},
		{"maxCostUSD", r.MaxCostUSD},
		{"retryBudget", float64(r.RetryBudget)},
	} {
		if n.value < 0 {
			return cfg, prof, fmt.Errorf("negative %s %v", n.name, n.value)
		}
	}
	cfg.ContrailNodes = cmp.Or(r.ContrailNodes, cfg.ContrailNodes)
	cfg.NodesPerMPIJob = cmp.Or(r.MPINodes, cfg.NodesPerMPIJob)
	cfg.ParallelPreprocessShards = r.PreprocessShards
	cfg.EvaluateAgainstTruth = r.Evaluate
	cfg.ConsensusMerge = r.Consensus
	// An admitted deadline still rides into the pipeline: prediction
	// error or injected faults can push a feasible run past its
	// deadline mid-flight, and the run-level cutoff catches that.
	cfg.Deadline = vclock.Duration(r.DeadlineSeconds)
	cfg.RetryBudget = r.RetryBudget
	if cfg.Backends, err = ParseStageBackends(r.Backends); err != nil {
		return cfg, prof, err
	}
	if r.Faults != "" {
		if cfg.FaultPlan, err = faults.ParseSpec(r.Faults); err != nil {
			return cfg, prof, err
		}
	}
	// The seed drives the fault plan and the spot market's price walk,
	// so it applies whenever either is configured: a spot run without
	// faults must still replay the same market.
	cfg.FaultSeed = r.FaultSeed
	return cfg, prof, nil
}
