// Package rnascale is a scalable, pilot-based pipeline for
// transcriptome profiling (RNA-seq) on on-demand computing clouds — a
// from-scratch Go reproduction of Shams et al., "A Scalable Pipeline
// for Transcriptome Profiling Tasks with On-demand Computing Clouds"
// (IPDPSW 2016).
//
// The package is the public facade over the implementation packages:
//
//	internal/core        the pilot-based Rnnotator-style pipeline
//	internal/pilot       the RADICAL-Pilot-style pilot-job framework
//	internal/cloud       the simulated EC2-style IaaS provider
//	internal/cluster     StarCluster-style cluster building
//	internal/sge         the Sun Grid Engine-style batch queue
//	internal/mpi         the MPI runtime for Ray and ABySS
//	internal/mapreduce   the Hadoop engine for Contrail
//	internal/assembler   the Table I de novo assemblers
//	internal/simdata     synthetic datasets standing in for the
//	                     paper's B. Glumae and P. Crispa sets
//
// # Quick start
//
//	ds, err := rnascale.GenerateDataset(rnascale.ProfileTiny)
//	if err != nil { ... }
//	cfg := rnascale.DefaultConfig()
//	cfg.Assemblers = []string{"ray", "abyss", "contrail"} // MAMP
//	report, err := rnascale.Run(ds, cfg)
//	if err != nil { ... }
//	fmt.Print(report.Summary())
//
// All reported times are deterministic virtual seconds at the paper's
// full dataset scale; the assembly computation itself is real and
// runs on the scaled synthetic reads (see DESIGN.md).
package rnascale

import (
	"fmt"

	"rnascale/internal/assembler"
	_ "rnascale/internal/assembler/all" // register the Table I assemblers
	"rnascale/internal/cloud"
	"rnascale/internal/core"
	"rnascale/internal/faults"
	"rnascale/internal/journal"
	"rnascale/internal/simdata"
)

// Re-exported pipeline types. See internal/core for full
// documentation of each.
type (
	// Config parameterizes a pipeline run.
	Config = core.Config
	// Report is the outcome of a pipeline run.
	Report = core.Report
	// StageReport is per-stage accounting.
	StageReport = core.StageReport
	// MatchingScheme selects the pilot↔VM matching scheme (Fig. 5).
	MatchingScheme = core.MatchingScheme
	// WorkflowPattern selects the pilot workflow pattern (Fig. 2).
	WorkflowPattern = core.WorkflowPattern
	// Dataset is a synthetic dataset with ground truth.
	Dataset = simdata.Dataset
	// Profile describes a synthetic dataset generator.
	Profile = simdata.Profile
	// Request describes a run by name; Request.Config decodes it.
	Request = core.Request
)

// Matching schemes (paper Fig. 5).
const (
	// S1 couples each pilot to the lifetime of its VMs.
	S1 = core.S1
	// S2 reuses running VMs across pilots.
	S2 = core.S2
)

// Workflow patterns (paper Fig. 2).
const (
	// Conventional runs every stage on one pilot.
	Conventional = core.Conventional
	// DistributedStatic fixes per-stage resources a priori.
	DistributedStatic = core.DistributedStatic
	// DistributedDynamic sizes each stage just before it starts.
	DistributedDynamic = core.DistributedDynamic
)

// ProfileName selects a built-in dataset profile.
type ProfileName string

// Built-in dataset profiles.
const (
	// ProfileBGlumae mirrors the paper's bacterial dataset (Table II).
	ProfileBGlumae ProfileName = "bglumae"
	// ProfilePCrispa mirrors the paper's fungal dataset (Table II).
	ProfilePCrispa ProfileName = "pcrispa"
	// ProfileBGlumaePaired mirrors the paper's sample-run dataset.
	ProfileBGlumaePaired ProfileName = "bglumae-paired"
	// ProfileTiny is a fast test-size dataset.
	ProfileTiny ProfileName = "tiny"
)

// LookupProfile resolves a profile by name.
func LookupProfile(name ProfileName) (Profile, error) {
	p, ok := simdata.Profiles()[string(name)]
	if !ok {
		return Profile{}, fmt.Errorf("rnascale: unknown profile %q", name)
	}
	return p, nil
}

// GenerateDataset materializes a built-in profile.
func GenerateDataset(name ProfileName) (*Dataset, error) {
	p, err := LookupProfile(name)
	if err != nil {
		return nil, err
	}
	return simdata.Generate(p)
}

// DefaultConfig reproduces the paper's sample-run setup (scheme S2,
// dynamic workflow, the three distributed assemblers, c3.2xlarge).
func DefaultConfig() Config { return core.DefaultConfig() }

// Run executes the pipeline over a dataset.
func Run(ds *Dataset, cfg Config) (*Report, error) { return core.Run(ds, cfg) }

// Plan is a predicted execution (stage TTCs and cost) of a
// configuration — computed a priori from the cost models, without
// running any assembly.
type Plan = core.Plan

// Objective selects what Optimize minimizes.
type Objective = core.Objective

// Optimization objectives.
const (
	// MinimizeTTC picks the fastest predicted configuration.
	MinimizeTTC = core.MinimizeTTC
	// MinimizeCost picks the cheapest predicted configuration.
	MinimizeCost = core.MinimizeCost
)

// Predict estimates a configuration's per-stage TTCs and cost.
func Predict(ds *Dataset, cfg Config) (Plan, error) { return core.Predict(ds, cfg) }

// Optimize returns the feasible candidate configuration with the best
// predicted objective.
func Optimize(ds *Dataset, candidates []Config, obj Objective) (Plan, error) {
	return core.Optimize(ds, candidates, obj)
}

// Backend selects how a stage buys its compute: fixed-price on-demand
// VMs, reclaimable spot-market VMs, or serverless function
// invocations.
type Backend = cloud.Backend

// Execution backends.
const (
	// OnDemand is the paper's fixed-price EC2 model (the default).
	OnDemand = cloud.OnDemand
	// Spot buys reclaimable capacity at a seed-deterministic market
	// price; reclamation probability rises with the price level.
	Spot = cloud.Spot
	// Serverless runs work as function invocations with cold/warm
	// starts, memory-tier pricing and a per-invocation duration cap.
	Serverless = cloud.Serverless
)

// StageBackends assigns an execution backend to each pipeline stage
// (Config.Backends). The zero value is all-on-demand.
type StageBackends = core.StageBackends

// ExpandBackends crosses a base configuration with every per-stage
// backend assignment drawn from the given set (all three backends when
// nil), skipping combinations the runtime rejects.
func ExpandBackends(base Config, backends []Backend) []Config {
	return core.ExpandBackends(base, backends)
}

// Frontier predicts every candidate configuration and returns the
// Pareto-optimal plans under (TTC, cost), sorted fastest-first.
func Frontier(ds *Dataset, candidates []Config) ([]Plan, error) {
	return core.Frontier(ds, candidates)
}

// Outcome classifies how a run ended (Report.Outcome): complete,
// deadline_exceeded, shed or cancelled.
type Outcome = core.Outcome

// Run outcome classes.
const (
	// OutcomeComplete: the run finished all stages.
	OutcomeComplete = core.OutcomeComplete
	// OutcomeDeadlineExceeded: the run crossed its virtual-time
	// deadline and remaining work was cancelled.
	OutcomeDeadlineExceeded = core.OutcomeDeadlineExceeded
	// OutcomeShed: the run was refused before execution (admission
	// control or a cost-budget preflight); the pipeline itself never
	// produces it.
	OutcomeShed = core.OutcomeShed
	// OutcomeCancelled: the run was cancelled at Config.CancelAt.
	OutcomeCancelled = core.OutcomeCancelled
)

// CutoffError is returned by Run when a virtual-time deadline
// (Config.Deadline) or cancellation point (Config.CancelAt) cut the
// run off; the partial Report carries the matching Outcome.
type CutoffError = core.CutoffError

// BreakerOptions tunes the per-backend circuit breaker
// (Config.Breaker): how many consecutive backend failures trip it
// open, and how long it stays open before a half-open probe. Nil
// disables the breaker.
type BreakerOptions = cloud.BreakerOptions

// FaultPlan is a parsed deterministic fault-injection plan; assign it
// to Config.FaultPlan (with Config.FaultSeed) to run under injected
// faults.
type FaultPlan = faults.Plan

// RecoveryReport summarizes injected faults and the recovery work a
// run performed (Report.Recovery).
type RecoveryReport = core.RecoveryReport

// ParseFaultSpec parses a fault-injection spec like
// "crash:p=0.1,after=600;slowxfer:x=0.5". See internal/faults for the
// grammar.
func ParseFaultSpec(spec string) (*FaultPlan, error) { return faults.ParseSpec(spec) }

// Journal is a write-ahead run journal; assign one (via CreateJournal)
// to Config.Journal to make a run resumable across driver loss.
type Journal = journal.Writer

// JournalStats summarizes a run's journal activity
// (Report.Journal): how many records and units were replayed from a
// surviving journal versus executed live.
type JournalStats = core.JournalStats

// DriverCrashError is returned by Run when an injected
// "drivercrash:at=<vtime>" fault kills the driver at a journal
// checkpoint. The journal written so far survives; pass it to Resume.
type DriverCrashError = core.DriverCrashError

// JournalOptions tunes the journal's group-commit batching: how many
// concurrent appends coalesce into one write+fsync. Batching changes when fsyncs
// happen, never what is written — the journal bytes are identical at
// any batch size.
type JournalOptions = journal.Options

// JournalVerifyResult is the forensic report of a journal
// chain-verification pass: the verified record count, the first bad
// sequence number when the hash chain breaks, the chain head and the
// Merkle root.
type JournalVerifyResult = journal.VerifyResult

// CreateJournal opens a write-ahead run journal at path for
// Config.Journal. Close it after the run returns.
func CreateJournal(path string) (*Journal, error) { return journal.Create(path) }

// CreateJournalOptions is CreateJournal with explicit group-commit
// options.
func CreateJournalOptions(path string, opts JournalOptions) (*Journal, error) {
	return journal.CreateOptions(path, opts)
}

// VerifyJournal checks the journal at path against its tamper-evident
// hash chain without modifying it. Corruption is reported in the
// result, not the error (which covers I/O only).
func VerifyJournal(path string) (JournalVerifyResult, error) { return journal.Verify(path) }

// Resume continues an interrupted run from its write-ahead journal.
// ds and cfg must match the original run (verified via a config
// digest in the journal header). Completed stages and units are
// replayed from the journal — not re-executed — and the run continues
// from the crash point; the final report, metrics and Chrome trace
// are byte-identical to an uninterrupted run's, except for the
// snapshot's Resumed marker.
func Resume(ds *Dataset, cfg Config, path string) (*Report, error) {
	return core.Resume(ds, cfg, path)
}

// Assemblers lists the names of the registered de novo assemblers,
// sorted: the paper's three distributed tools (Table I), the
// Velvet/Oases baselines, and the Trinity comparator.
func Assemblers() []string {
	var names []string
	for _, a := range assembler.List() {
		names = append(names, a.Info().Name)
	}
	return names
}
