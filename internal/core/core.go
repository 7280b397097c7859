// Package core implements the paper's primary contribution: the
// pilot-based, scalable RNA-seq pipeline for on-demand computing
// clouds. It re-architects the Rnnotator workflow (pre-processing →
// multiple-k-mer de novo transcript assembly → post-processing →
// quantification, Fig. 1) on top of the pilot framework
// (internal/pilot), a simulated EC2 (internal/cloud) and
// StarCluster+SGE clusters (internal/cluster, internal/sge).
//
// The package realizes the paper's design space:
//
//   - the two pilot↔VM matching schemes of Fig. 5 — S1 couples VM
//     lifetime to a pilot (free choice of instance type per stage,
//     but boot and data-transfer overheads), S2 reuses running VMs
//     across pilots (no transfer, but the stage inherits whatever
//     instance type the previous stage needed);
//   - the three workflow patterns of Fig. 2 — Conventional (one pilot
//     runs everything), DistributedStatic (per-stage pilots with
//     pre-defined sizes) and DistributedDynamic (stage sizing and
//     instance selection decided from information produced by the
//     previous stage, e.g. the k-mer plan known only after
//     pre-processing);
//   - the multi-assembler option (MAMP): any subset of the Table I
//     assemblers runs concurrently, their multi-k outputs merged into
//     one transcript set.
package core

import (
	"fmt"
	"strings"

	"rnascale/internal/cloud"
	"rnascale/internal/detonate"
	"rnascale/internal/diffexpr"
	"rnascale/internal/faults"
	"rnascale/internal/journal"
	"rnascale/internal/merge"
	"rnascale/internal/obs"
	"rnascale/internal/pilot"
	"rnascale/internal/preprocess"
	"rnascale/internal/quant"
	"rnascale/internal/seq"
	"rnascale/internal/vclock"
)

// MatchingScheme selects how pilots map to VMs (paper Fig. 5).
type MatchingScheme int

const (
	// S1 couples a pilot with the lifetime of its VMs: every pilot
	// boots fresh instances and terminates them when it finishes.
	S1 MatchingScheme = iota
	// S2 decouples pilots from VM lifetime: a new pilot adopts the
	// previous pilot's running VMs.
	S2
)

// String implements fmt.Stringer.
func (s MatchingScheme) String() string {
	switch s {
	case S1:
		return "S1"
	case S2:
		return "S2"
	default:
		return fmt.Sprintf("MatchingScheme(%d)", int(s))
	}
}

// WorkflowPattern selects the pilot workflow pattern (paper Fig. 2).
type WorkflowPattern int

const (
	// Conventional runs every stage on a single pilot's resources.
	Conventional WorkflowPattern = iota
	// DistributedStatic uses per-stage pilots whose sizes and types
	// are fixed before the run starts.
	DistributedStatic
	// DistributedDynamic decides each stage's resources just before
	// the stage starts, using information from the previous stage
	// (instance type from the memory model, node count from the k-mer
	// plan).
	DistributedDynamic
)

// String implements fmt.Stringer.
func (p WorkflowPattern) String() string {
	switch p {
	case Conventional:
		return "conventional"
	case DistributedStatic:
		return "distributed-static"
	case DistributedDynamic:
		return "distributed-dynamic"
	default:
		return fmt.Sprintf("WorkflowPattern(%d)", int(p))
	}
}

// Config parameterizes a pipeline run.
type Config struct {
	// Scheme is the pilot↔VM matching scheme.
	Scheme MatchingScheme
	// Pattern is the workflow pattern.
	Pattern WorkflowPattern
	// Assemblers names the Table I tools to run (default:
	// ["ray"]). Multiple entries enable the MAMP option.
	Assemblers []string
	// InstanceType fixes the VM flavour for static patterns; the
	// dynamic pattern picks per stage (and ignores this unless the
	// scheme is S2, which inherits the pre-processing choice).
	InstanceType string
	// AssemblyNodesOverride fixes the PB cluster size (static
	// pattern); 0 lets the dynamic sizing rule decide.
	AssemblyNodesOverride int
	// NodesPerMPIJob is the node count per MPI assembly job (paper
	// default: 1, from the finding that MPI jobs gain little from
	// spanning nodes).
	NodesPerMPIJob int
	// ContrailNodes is the node count per Contrail job (paper
	// default: 16, "at least 16 nodes are needed to match TTCs of the
	// MPI assemblers").
	ContrailNodes int
	// Kmers overrides the multiple-k-mer plan (default: the dataset
	// profile's plan, known after pre-processing).
	Kmers []int
	// MinCoverage overrides each assembler's coverage cutoff (0 =
	// tool defaults).
	MinCoverage int
	// Preprocess are the read-cleaning options.
	Preprocess preprocess.Options
	// ConsensusMerge validates contigs by cross-assembler k-mer
	// support before merging (the ensemble direction the paper leaves
	// as future work). It only takes effect with ≥2 assemblers.
	ConsensusMerge bool
	// ParallelPreprocessShards splits pre-processing across this many
	// concurrent units on a PA cluster of the same size — the paper's
	// future-work "data and task-level parallelization" for the
	// pre-processing stage. 0 or 1 keeps the paper's single-VM PA.
	ParallelPreprocessShards int
	// Backends selects a purchasing backend per stage (on-demand, spot
	// or serverless). The zero value runs everything on-demand, exactly
	// as before the backend dimension existed. Serverless stages are
	// incompatible with the Conventional pattern (there is no single
	// cluster to share). When a stage uses spot and Cloud carries no
	// SpotOptions, a default market seeded from FaultSeed is created.
	Backends StageBackends
	// ConditionB, when non-nil, provides a second sample condition:
	// the PC stage additionally quantifies it against the assembled
	// transcripts and runs the differential-expression test (the
	// optional Rnnotator step "for cases when multiple sample
	// conditions are provided"). Results land in Report.DiffExpr.
	ConditionB *seq.ReadSet
	// EvaluateAgainstTruth computes DETONATE metrics against the
	// dataset's ground-truth transcriptome (not billed: evaluation is
	// offline analysis, not a pipeline stage).
	EvaluateAgainstTruth bool
	// Cloud, when non-nil, replaces the provider options (account
	// limit, spot market). Nil is the calibrated on-demand provider.
	Cloud *cloud.Options
	// Obs, when non-nil, receives the run's spans and metrics; nil
	// gets a private bundle, reachable afterwards via Pipeline.Obs or
	// Report.Snapshot.
	Obs *obs.Obs
	// FaultPlan, when non-nil, injects deterministic failures into the
	// run — VM crashes, spot reclamations, boot capacity errors,
	// transient unit failures, degraded transfers (see internal/faults
	// for the spec syntax). Identical plans and seeds replay
	// byte-identically.
	FaultPlan *faults.Plan
	// FaultSeed seeds the fault injector's splittable PRNG.
	FaultSeed uint64
	// Retry sets per-stage unit retry policies. Zero policies default
	// to pilot.DefaultRetryPolicy when a fault plan is present or any
	// stage buys spot capacity (so injected faults and market reclaims
	// are survivable by default) and to no retries otherwise.
	Retry StageRetryPolicies
	// Journal, when non-nil, receives a write-ahead record of the run:
	// one record per stage boundary and per unit completion, each
	// flushed before the run proceeds. Create with journal.Create (a
	// durable file) or journal.NewWriter (any sink). The journal of an
	// interrupted run can be continued with Resume.
	Journal *journal.Writer
	// Resume, when non-nil, replays the surviving journal prefix of an
	// interrupted run: completed stages and units are reconstructed
	// from their records instead of re-executing, and the run
	// continues from the interruption point. Usually set together with
	// Journal via Resume/ResumePipeline, which also verify the journal
	// belongs to this config.
	Resume *journal.Log
	// Deadline, when >0, is the run's virtual-time deadline, measured
	// from the run start. Once the virtual clock reaches it no new unit
	// attempt starts: remaining units cancel cleanly, the journal gets
	// a cancelled record, and Run returns a *CutoffError with
	// Report.Outcome = OutcomeDeadlineExceeded. 0 = no deadline.
	Deadline vclock.Duration
	// CancelAt, when >0, is an operator cancellation point in virtual
	// time — the same cutoff machinery as Deadline, surfacing as
	// Report.Outcome = OutcomeCancelled. When both are set the earlier
	// one wins. 0 = never.
	CancelAt vclock.Duration
	// RetryBudget, when >0, caps unit restarts across the whole run: a
	// shared virtual-time token bucket is consulted before every retry,
	// and an over-budget retry fails its stage instead of resubmitting
	// (bounding retry storms under correlated failure waves). 0 keeps
	// the pre-budget behaviour: retries limited only by per-unit
	// policies.
	RetryBudget int
	// RetryBudgetRefill is the virtual time per replenished budget
	// token (0 = the budget never refills).
	RetryBudgetRefill vclock.Duration
	// Breaker, when non-nil, enables the per-backend circuit breaker:
	// a wave of spot reclaims or serverless failures trips that backend
	// open and subsequent stages fall back to on-demand until a
	// half-open probe (after the virtual-time cooldown) succeeds. Nil
	// disables the breaker entirely.
	Breaker *cloud.BreakerOptions
}

// StageRetryPolicies carries one unit retry policy per pipeline
// stage.
type StageRetryPolicies struct {
	PA, PB, PC pilot.RetryPolicy
}

// StageBackends carries one execution backend per pipeline stage.
type StageBackends struct {
	PA, PB, PC cloud.Backend
}

// AnySpot reports whether any stage buys spot capacity.
func (b StageBackends) AnySpot() bool {
	return b.PA == cloud.Spot || b.PB == cloud.Spot || b.PC == cloud.Spot
}

// AnyServerless reports whether any stage runs as functions.
func (b StageBackends) AnyServerless() bool {
	return b.PA == cloud.Serverless || b.PB == cloud.Serverless || b.PC == cloud.Serverless
}

// String renders the per-stage assignment ("PA=spot,PB=serverless,PC=on-demand").
func (b StageBackends) String() string {
	return fmt.Sprintf("PA=%s,PB=%s,PC=%s", b.PA, b.PB, b.PC)
}

// ParseStageBackends parses a "PA=spot,PB=serverless,PC=od" list;
// omitted stages stay on-demand, a stage named twice is refused, and a
// bare backend name applies to every stage ("spot" ≡
// "PA=spot,PB=spot,PC=spot").
func ParseStageBackends(s string) (StageBackends, error) {
	var b StageBackends
	s = strings.TrimSpace(s)
	if s == "" {
		return b, nil
	}
	if !strings.Contains(s, "=") {
		be, err := cloud.ParseBackend(s)
		if err != nil {
			return b, err
		}
		b.PA, b.PB, b.PC = be, be, be
		return b, nil
	}
	seen := map[string]bool{}
	for _, part := range strings.Split(s, ",") {
		stage, val, ok := strings.Cut(part, "=")
		if !ok {
			return b, fmt.Errorf("core: backend assignment %q is not stage=backend", part)
		}
		be, err := cloud.ParseBackend(val)
		if err != nil {
			return b, err
		}
		stage = strings.ToUpper(strings.TrimSpace(stage))
		if seen[stage] {
			return b, fmt.Errorf("core: stage %s is assigned a backend twice", stage)
		}
		seen[stage] = true
		switch stage {
		case "PA":
			b.PA = be
		case "PB":
			b.PB = be
		case "PC":
			b.PC = be
		default:
			return b, fmt.Errorf("core: unknown stage %q in backend assignment", stage)
		}
	}
	return b, nil
}

// DefaultConfig reproduces the paper's sample-run setup: scheme S2,
// dynamic workflow, all three distributed assemblers, c3.2xlarge.
func DefaultConfig() Config {
	return Config{
		Scheme:         S2,
		Pattern:        DistributedDynamic,
		Assemblers:     []string{"ray", "abyss", "contrail"},
		InstanceType:   "c3.2xlarge",
		NodesPerMPIJob: 1,
		ContrailNodes:  16,
		Preprocess:     preprocess.DefaultOptions(),
	}
}

// withDefaults normalizes a config.
func (c Config) withDefaults() Config {
	if len(c.Assemblers) == 0 {
		c.Assemblers = []string{"ray"}
	}
	if c.InstanceType == "" {
		c.InstanceType = "c3.2xlarge"
	}
	if c.NodesPerMPIJob <= 0 {
		c.NodesPerMPIJob = 1
	}
	if c.ContrailNodes <= 0 {
		c.ContrailNodes = 16
	}
	if c.Preprocess == (preprocess.Options{}) {
		c.Preprocess = preprocess.DefaultOptions()
	}
	// Spot stages carry reclaim risk even without a fault plan, so they
	// get the same survivable-by-default retry treatment.
	if c.FaultPlan != nil || c.Backends.AnySpot() {
		def := pilot.DefaultRetryPolicy()
		if c.Retry.PA == (pilot.RetryPolicy{}) {
			c.Retry.PA = def
		}
		if c.Retry.PB == (pilot.RetryPolicy{}) {
			c.Retry.PB = def
		}
		if c.Retry.PC == (pilot.RetryPolicy{}) {
			c.Retry.PC = def
		}
	}
	return c
}

// Outcome classifies how a run ended, beyond error/no-error: overload
// protection distinguishes work that was *refused* or *cut off* from
// work that *failed*.
type Outcome string

const (
	// OutcomeComplete is a run that finished every stage.
	OutcomeComplete Outcome = "complete"
	// OutcomeDeadlineExceeded is a run cut off by Config.Deadline.
	OutcomeDeadlineExceeded Outcome = "deadline_exceeded"
	// OutcomeShed is work refused or dropped by admission control
	// before (or instead of) running — used by the gateway's brownout
	// and by preflight cost rejection; the pipeline itself never
	// produces it.
	OutcomeShed Outcome = "shed"
	// OutcomeCancelled is a run cut off by Config.CancelAt.
	OutcomeCancelled Outcome = "cancelled"
)

// CutoffError is returned by Run when the run crossed its virtual-time
// cutoff (deadline or cancellation point): remaining units were
// canceled cleanly and the truncated report is valid as far as it
// goes.
type CutoffError struct {
	// Outcome is OutcomeDeadlineExceeded or OutcomeCancelled.
	Outcome Outcome
	// At is the virtual time the cutoff was detected; Cutoff is the
	// configured cutoff it crossed.
	At, Cutoff vclock.Time
}

func (e *CutoffError) Error() string {
	return fmt.Sprintf("core: run %s: virtual time %v crossed cutoff %v", e.Outcome, e.At, e.Cutoff)
}

// StageReport is the accounting for one pipeline stage.
type StageReport struct {
	// Name is PA, PB or PC (plus synthetic stages like "transfer").
	Name string
	// Pilot is the pilot ID that executed the stage.
	Pilot string
	// Start and End bracket the stage in virtual time.
	Start, End vclock.Time
	// Note carries stage-specific detail.
	Note string
}

// Duration is the stage's virtual span.
func (s StageReport) Duration() vclock.Duration { return s.End.Sub(s.Start) }

// AssemblyReport is one assembler×k unit's outcome.
type AssemblyReport struct {
	Assembler string
	K         int
	Contigs   int
	N50       int
	TTC       vclock.Duration
	MemoryGB  float64
}

// Report is the full outcome of a pipeline run.
type Report struct {
	Config     Config
	Stages     []StageReport
	Assemblies []AssemblyReport
	// PreStats summarizes the pre-processing stage.
	PreStats preprocess.Stats
	// MergeStats summarizes post-processing contig merging.
	MergeStats merge.Stats
	// PerAssembler holds each assembler's merged multi-k contig set
	// (keyed by tool name); Transcripts is the final (possibly MAMP)
	// merged set.
	PerAssembler map[string][]seq.FastaRecord
	Transcripts  []seq.FastaRecord
	// Quant is the expression quantification over the final set.
	Quant *quant.Result
	// QuantB and DiffExpr are present when Config.ConditionB was
	// provided: the second condition's quantification and the
	// differential-expression table.
	QuantB   *quant.Result
	DiffExpr []diffexpr.Row
	// Metrics holds DETONATE scores when evaluation was requested.
	Metrics *detonate.Metrics
	// TTC is the end-to-end virtual time (including data upload).
	TTC vclock.Duration
	// CostUSD is the cloud bill.
	CostUSD float64
	// Bill is the per-type cost breakdown.
	Bill []cloud.BillLine
	// KmersUsed is the executed multiple-k-mer plan.
	KmersUsed []int
	// AssemblyNodes is the PB cluster size that was used.
	AssemblyNodes int
	// Events is the pilot framework's full state-change history
	// (render with Timeline).
	Events []pilot.Event
	// Snapshot folds the run's spans and metrics into per-stage
	// TTC/cost tables (see internal/obs).
	Snapshot *obs.RunSnapshot
	// Recovery summarizes fault injection and recovery (all zero when
	// no fault plan was configured).
	Recovery RecoveryReport
	// Journal summarizes the run's write-ahead journal activity (nil
	// when the run was not journaled).
	Journal *JournalStats
	// Outcome classifies the ending: OutcomeComplete on success,
	// OutcomeDeadlineExceeded/OutcomeCancelled when the run crossed its
	// cutoff, and empty for a plain stage failure.
	Outcome Outcome
}

// RecoveryReport aggregates what the fault plan did to a run and what
// the retry machinery absorbed.
type RecoveryReport struct {
	// FaultsInjected counts applied faults by class.
	FaultsInjected map[string]int
	// Retries is the number of unit attempt restarts.
	Retries int
	// UnitsRecovered counts units that completed after ≥1 retry.
	UnitsRecovered int
	// VMsLost counts VMs lost to applied interruptions; each lost VM's
	// replacement bills extra hours into CostUSD.
	VMsLost int
}

// Total sums injected faults across classes.
func (r RecoveryReport) Total() int {
	n := 0
	for _, v := range r.FaultsInjected {
		n += v
	}
	return n
}

// String renders a one-line summary.
func (r RecoveryReport) String() string {
	return fmt.Sprintf("%d faults injected, %d retries, %d units recovered, %d VMs lost",
		r.Total(), r.Retries, r.UnitsRecovered, r.VMsLost)
}

// Timeline renders the run's pilot/unit event history as a text
// Gantt chart.
func (r *Report) Timeline(width int) string {
	return pilot.RenderTimeline(r.Events, width)
}

// Stage returns the named stage report, if present.
func (r *Report) Stage(name string) (StageReport, bool) {
	for _, s := range r.Stages {
		if s.Name == name {
			return s, true
		}
	}
	return StageReport{}, false
}

// Summary renders the sample-run style narrative.
func (r *Report) Summary() string {
	out := fmt.Sprintf("scheme=%s pattern=%s assemblers=%v k=%v nodes=%d\n",
		r.Config.Scheme, r.Config.Pattern, r.Config.Assemblers, r.KmersUsed, r.AssemblyNodes)
	for _, s := range r.Stages {
		out += fmt.Sprintf("  %-10s %8v  (%s)\n", s.Name, s.Duration(), s.Note)
	}
	out += fmt.Sprintf("  TTC %v, cost $%.2f, %d transcripts\n", r.TTC, r.CostUSD, len(r.Transcripts))
	return out
}
