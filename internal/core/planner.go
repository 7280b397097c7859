package core

import (
	"cmp"
	"fmt"
	"math"
	"slices"

	"rnascale/internal/cloud"
	"rnascale/internal/simdata"
	"rnascale/internal/vclock"
)

// This file implements the planning layer the paper identifies as the
// prerequisite for a fully dynamically adaptive workflow: "factors and
// conditions affecting the performance of a workflow should be known,
// along with a means for a rough estimate on TTCs of sub tasks a
// priori". Predict turns a configuration into per-stage TTC and cost
// estimates by a dry run of the pipeline on the cost models (no
// assembly is run); Optimize searches candidate configurations for the
// best predicted objective.

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
	// InstanceType is the first stage's flavour (the dynamic pattern's
	// choice, the configured one, or "serverless").
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
// the dataset a priori. It is a dry run of Run: the same stage specs
// drive the same cloud, SGE queues, function backend, boots, transfers
// and pilot reuse, but each unit's work returns its cost model
// (pre-processing, the assembler's TTC estimate, post-processing)
// instead of computing, so no read is touched and nothing is
// assembled.
//
// The plan prices the uncut, fault-free run: the deadline, cancellation
// point, fault plan, journal, resume log, observability bundle and
// truth evaluation are cleared. Everything else applies as in Run — the
// backends, the breaker, the retry policies and budget, and FaultSeed,
// which seeds the spot market — so a spot plan sees exactly the
// reclaims the seeded market deals the run, not an expectation of them.
// Any failure of the dry run makes the plan infeasible.
func Predict(ds *simdata.Dataset, cfg Config) (Plan, error) {
	plan := Plan{Config: cfg.withDefaults()}
	cfg.Deadline, cfg.CancelAt, cfg.FaultPlan = 0, 0, nil
	cfg.Journal, cfg.Resume, cfg.Obs = nil, nil, nil
	cfg.EvaluateAgainstTruth = false
	pl := New(cfg)
	pl.estimate = true
	rep, err := pl.Run(ds)
	if err != nil {
		return plan, fmt.Errorf("core: plan infeasible: %w", err)
	}
	stage := func(name string) vclock.Duration {
		s, _ := rep.Stage(name)
		return s.Duration()
	}
	plan.Transfer, plan.PA, plan.PB, plan.PC = stage("transfer"), stage("PA"), stage("PB"), stage("PC")
	plan.TTC, plan.CostUSD = rep.TTC, rep.CostUSD
	plan.AssemblyNodes = rep.AssemblyNodes
	plan.InstanceType = pl.sxs[0].instance
	return plan, nil
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
	var lastErr error
	for _, cfg := range candidates {
		p, err := Predict(ds, cfg)
		if err != nil {
			lastErr = err
			continue
		}
		plans = append(plans, p)
	}
	if len(plans) == 0 {
		return nil, fmt.Errorf("core: no feasible candidate among %d (last error: %v)", len(candidates), lastErr)
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
	// Fastest first, ties by cost.
	slices.SortStableFunc(frontier, func(a, b Plan) int {
		return cmp.Or(cmp.Compare(a.TTC, b.TTC), cmp.Compare(a.CostUSD, b.CostUSD))
	})
	return frontier, nil
}
