package core

import (
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"slices"
	"strings"

	"rnascale/internal/assembler"
	"rnascale/internal/cloud"
	"rnascale/internal/cluster"
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
	"rnascale/internal/sge"
	"rnascale/internal/simdata"
	"rnascale/internal/sweep"
	"rnascale/internal/vclock"
)

// Pipeline is one configured run environment.
type Pipeline struct {
	cfg      Config
	clock    *vclock.Clock
	provider *cloud.Provider
	pm       *pilot.Manager

	// o is the run's observability bundle (never nil: New creates one
	// when the config does not supply it); bridge mirrors the pilot
	// state store into spans; runSpan is the root of the span tree.
	o       *obs.Obs
	bridge  *pilot.SpanBridge
	runSpan *obs.Span

	// jr drives the write-ahead run journal and the drivercrash fault
	// checkpoints; nil when the run is neither journaled nor resumed
	// and no drivercrash rule is armed.
	jr *runJournal

	// budget is the run-wide retry token bucket (nil = unlimited);
	// cutoff is the virtual time past which no new attempt may start
	// (0 = none), and cutoffOutcome says which config knob set it.
	budget        *pilot.RetryBudget
	cutoff        vclock.Time
	cutoffOutcome Outcome

	// sxs are the stage vehicles launched so far, in stage order (the
	// conventional pattern's one pilot appears once per stage).
	sxs []*stageExec

	// estimate makes the run Predict's dry run: each unit's work returns
	// its cost model instead of computing, and no stage touches the reads
	// or the stores.
	estimate bool
}

// New builds a pipeline with a fresh simulated cloud.
func New(cfg Config) *Pipeline {
	cfg = cfg.withDefaults()
	clock := vclock.NewClock(0)
	var copts cloud.Options
	if cfg.Cloud != nil {
		copts = *cfg.Cloud
	}
	// A spot stage may need a market the caller didn't configure:
	// default it, seeded from FaultSeed so a run is a pure function of
	// its config.
	if cfg.Backends.AnySpot() && copts.Spot == nil {
		copts.Spot = &cloud.SpotOptions{Seed: cfg.FaultSeed}
	}
	o := cfg.Obs
	if o == nil {
		o = obs.New()
	}
	var inj *faults.Injector
	if cfg.FaultPlan != nil {
		inj = faults.NewInjector(cfg.FaultPlan, cfg.FaultSeed, clock)
		inj.SetMetrics(o.Metrics)
		copts.Faults = inj
	}
	provider := cloud.NewProvider(clock, copts)
	provider.SetMetrics(o.Metrics)
	store := pilot.NewStateStore()
	pm := pilot.NewManager(provider, store)
	pm.SetObs(o)
	pl := &Pipeline{
		cfg:      cfg,
		clock:    clock,
		provider: provider,
		pm:       pm,
		o:        o,
		bridge:   pilot.NewSpanBridge(store, o),
	}
	if cfg.Journal != nil || cfg.Resume != nil || len(inj.DriverCrashTimes()) > 0 {
		pl.jr = newRunJournal(pl, cfg, inj)
	}
	if cfg.RetryBudget > 0 {
		pl.budget = pilot.NewRetryBudget(cfg.RetryBudget, cfg.RetryBudgetRefill)
	}
	// The run clock starts at 0, so durations from the config are
	// absolute cutoff times; when both are set the earlier wins.
	if cfg.Deadline > 0 {
		pl.cutoff = vclock.Time(cfg.Deadline)
		pl.cutoffOutcome = OutcomeDeadlineExceeded
	}
	if cfg.CancelAt > 0 && (pl.cutoff == 0 || vclock.Time(cfg.CancelAt) < pl.cutoff) {
		pl.cutoff = vclock.Time(cfg.CancelAt)
		pl.cutoffOutcome = OutcomeCancelled
	}
	if cfg.Breaker != nil {
		cb := cloud.NewCircuitBreaker(clock, *cfg.Breaker)
		cb.SetMetrics(o.Metrics)
		provider.SetBreaker(cb)
	}
	return pl
}

// Run executes the full workflow over a dataset and returns the
// report. On stage failure the partial report is returned along with
// the error, so callers can inspect how far the run got (Table IV's
// X cells are exactly such failures).
func Run(ds *simdata.Dataset, cfg Config) (*Report, error) {
	return New(cfg).Run(ds)
}

// errConventionalServerless refuses a config that puts a stage of the
// conventional pattern on functions.
var errConventionalServerless = errors.New("core: the conventional pattern shares one cluster across stages and cannot host serverless stages")

// Run executes the pipeline.
func (pl *Pipeline) Run(ds *simdata.Dataset) (rep *Report, err error) {
	// The journal epilogue: an injected drivercrash unwinds out of an
	// arbitrary checkpoint and surfaces as DriverCrashError WITHOUT
	// teardown or a final journal record (the driver is gone — VMs
	// stay up, the journal prefix stays on disk). Every other exit
	// writes the journal's complete record.
	defer func() {
		if r := recover(); r != nil {
			switch v := r.(type) {
			case driverCrashPanic:
				err = &DriverCrashError{At: v.at}
			case journalDriftPanic:
				err = fmt.Errorf("core: journal: %s", v.msg)
			default:
				panic(r)
			}
			return
		}
		// A resume that reaches its own error still reports a complete
		// record it does not match.
		if cerr := pl.jr.complete(pl.clock.Now(), pl.provider.TotalCost(), rep.Metrics, err); cerr != nil {
			err = errors.Join(err, cerr)
		}
	}()

	cfg := pl.cfg
	fs := ds.Profile.FullScale
	rep = &Report{Config: cfg, PerAssembler: map[string][]seq.FastaRecord{}}
	// The header comes first, so even a refused run's journal reads back
	// and resumes to the same refusal.
	digest, err := configDigest(cfg, ds)
	pl.jr.header(digest, cfg.FaultSeed, ds.Profile.Name)
	if err != nil {
		return rep, err
	}
	if err := checkAssemblers(cfg.Assemblers); err != nil {
		return rep, err
	}
	if cfg.Pattern == Conventional && cfg.Backends.AnyServerless() {
		return rep, fmt.Errorf("%w (%s)", errConventionalServerless, cfg.Backends)
	}

	pl.runSpan = pl.o.Tracer.StartSpan(nil, obs.KindRun, "run", pl.clock.Now())
	pl.runSpan.SetAttr("scheme", cfg.Scheme.String())
	pl.runSpan.SetAttr("pattern", cfg.Pattern.String())
	pl.runSpan.SetAttr("assemblers", strings.Join(cfg.Assemblers, ","))
	pl.runSpan.SetAttr("profile", ds.Profile.Name)

	// --- Stage 0: upload the raw data from the local server ---
	t0 := pl.clock.Now()
	xferScope := pl.beginStage("transfer")
	xferScope.attr("bytes", fmt.Sprintf("%d", fs.SeqDataBytes))
	pl.provider.UploadFromLocal(fs.SeqDataBytes)
	xferScope.end("")
	rep.Stages = append(rep.Stages, StageReport{
		Name: "transfer", Start: t0, End: pl.clock.Now(),
		Note: fmt.Sprintf("%.1f GB to cloud", float64(fs.SeqDataBytes)/1e9),
	})

	// --- PA: pre-processing ---
	cleaned, err := pl.preprocess(ds, rep)
	if err != nil {
		return rep, err
	}
	// The k-mer plan is now known — the information the dynamic
	// workflow waits for.
	rep.KmersUsed = kmerPlan(cfg, ds, &rep.PreStats)

	// --- PB: multiple-k-mer, multi-assembler transcript assembly ---
	outputs, err := pl.assemble(fs, cleaned, rep)
	if err != nil {
		return rep, err
	}

	// --- PC: post-processing, quantification ---
	if err := pl.postprocess(fs, cleaned, outputs, rep); err != nil {
		return rep, err
	}

	// --- Wrap up: terminate everything, bill, evaluate ---
	pl.teardown()
	rep.Outcome = OutcomeComplete
	rep.finish(pl)

	if cfg.EvaluateAgainstTruth {
		// A resume of a finished run takes the scores its journal holds.
		if rep.Metrics, err = pl.jr.journaledMetrics(); err != nil || rep.Metrics != nil {
			return rep, err
		}
		opts := detonate.DefaultOptions()
		opts.ReadBases = cleaned.TotalBases()
		// Score against the gene-annotation track when present — the
		// paper evaluates against predicted protein gene sequences,
		// not full mRNAs.
		truth := ds.Annotations
		if len(truth) == 0 {
			truth = ds.Transcripts
		}
		m, err := detonate.Evaluate(rep.Transcripts, truth, ds.Expression, opts)
		if err != nil {
			return rep, err
		}
		rep.Metrics = &m
	}
	return rep, nil
}

// sfaConversion is Contrail's read conversion to SFA (the paper's 1 min).
const sfaConversion = 60 * vclock.Second

// kmerPlan resolves the multiple-k-mer plan (st is nil before
// pre-processing has run).
func kmerPlan(cfg Config, ds *simdata.Dataset, st *preprocess.Stats) []int {
	if len(cfg.Kmers) > 0 {
		return cfg.Kmers
	}
	if len(ds.Profile.FullScale.AssemblyKmers) > 0 {
		return ds.Profile.FullScale.AssemblyKmers
	}
	mean := float64(ds.Profile.ReadLen)
	if st != nil && st.MeanReadLen > 0 {
		mean = st.MeanReadLen
	}
	return preprocess.KmerPlan(mean, ds.Profile.ReadLen)
}

// assemblyNodes resolves the PB cluster size.
func assemblyNodes(cfg Config, kmers []int) int {
	if cfg.AssemblyNodesOverride > 0 {
		return cfg.AssemblyNodesOverride
	}
	return AssemblyNodesFor(kmers, cfg.Assemblers, cfg.NodesPerMPIJob, cfg.ContrailNodes)
}

// preprocessShards is the number of data-parallel PA units.
func preprocessShards(cfg Config) int {
	return max(cfg.ParallelPreprocessShards, 1)
}

// assemblyWork is what a PB unit reports of an assembly, run,
// replayed or estimated: its TTC, plus Contrail's SFA conversion, at
// the tool's per-node memory.
func assemblyWork(name string, res assembler.Result) pilot.WorkResult {
	d := res.TTC
	if name == "contrail" {
		d += sfaConversion
	}
	return pilot.WorkResult{Duration: d, PeakMemoryGB: res.PeakMemoryGBPerNode}
}

// preprocess runs PA, sharding the raw reads (fragment-preserving) for
// data-parallel cleaning; a single shard is the paper's stock
// single-VM PA. It returns the cleaned reads.
func (pl *Pipeline) preprocess(ds *simdata.Dataset, rep *Report) (seq.ReadSet, error) {
	cfg, fs := pl.cfg, ds.Profile.FullScale
	preModel := preprocess.DefaultCostModel()
	shards := preprocessShards(cfg)
	nodes := shards
	if cfg.Pattern == Conventional {
		// One pilot hosts everything: size it for the whole workflow
		// up front (the pattern's defining inflexibility).
		nodes = max(nodes, assemblyNodes(cfg, kmerPlan(cfg, ds, nil)))
	}
	shardClean := make([]seq.ReadSet, shards)
	shardStats := make([]preprocess.Stats, shards)
	fsShard := fs
	fsShard.SeqDataBytes = fs.SeqDataBytes / int64(shards)
	var cleaned seq.ReadSet
	err := pl.runStage(rep, stageSpec{
		name: "PA", backend: cfg.Backends.PA, nodes: nodes, memGB: preModel.MemoryGB(fs),
		units: func(sx *stageExec) []pilot.UnitDescription {
			var shardReads []seq.ReadSet
			var descs []pilot.UnitDescription
			for s := 0; s < shards; s++ {
				name := fmt.Sprintf("preprocess-%d", s)
				// Only a unit that runs needs its input shard, and a single
				// shard is the dataset's own reads: preprocess.Run never
				// writes its input.
				var in seq.ReadSet
				switch {
				case pl.estimate || pl.jr.replays("PA", name):
				case shards == 1:
					in = ds.Reads
				default:
					if shardReads == nil {
						shardReads = shardReadSet(ds.Reads, shards)
					}
					in = shardReads[s]
				}
				descs = append(descs, pilot.UnitDescription{
					Name:  name,
					Slots: min(sx.cores, 8),
					Rule:  sge.SingleNode,
					Retry: cfg.Retry.PA,
					Work: pl.jr.unit("PA", name,
						func(env *pilot.ExecEnv) (pilot.WorkResult, error) {
							if !pl.estimate {
								shardClean[s], shardStats[s] = preprocess.Run(in, cfg.Preprocess)
							}
							return pilot.WorkResult{
								Duration:     preModel.Duration(fsShard, env.Slots),
								PeakMemoryGB: preModel.MemoryGB(fsShard),
							}, nil
						},
						unitCodec{
							encode: func(pilot.WorkResult) ([]byte, error) {
								return encodePA(paPayload{
									Shard: s, Reads: shardClean[s].Reads,
									Paired: shardClean[s].Paired, Stats: shardStats[s],
								})
							},
							replay: func(rec journal.Record, _ *pilot.ExecEnv) (pilot.WorkResult, error) {
								p, err := decodePA(rec.Payload)
								if err != nil {
									return pilot.WorkResult{}, err
								}
								shardClean[s] = seq.ReadSet{Reads: p.Reads, Paired: p.Paired}
								shardStats[s] = p.Stats
								return pilot.WorkResult{}, nil
							},
						}),
				})
			}
			return descs
		},
		failed: func(sx *stageExec, u *pilot.Unit) error {
			return fmt.Errorf("core: PA pre-processing failed on %s: %w", sx.instance, u.Err)
		},
		fold: func(sx *stageExec, _ []*pilot.Unit) (string, error) {
			if pl.estimate {
				// No statistics, so Run keeps the a-priori k-mer plan.
				return "estimated", nil
			}
			var st preprocess.Stats
			for _, s := range shardStats {
				st = combineStats(st, s)
			}
			// One shard's reads are the stage's; several are concatenated
			// in shard order.
			cleaned = seq.ReadSet{Paired: ds.Reads.Paired, Reads: shardClean[0].Reads}
			if shards > 1 {
				reads := make([][]seq.Read, shards)
				for s := range shards {
					reads[s] = shardClean[s].Reads
				}
				cleaned.Reads = slices.Concat(reads...)
			}
			if st.OutputReads == 0 {
				return "", fmt.Errorf("core: pre-processing removed every read")
			}
			pl.counter(MetricReadsProcessed, "Reads surviving pre-processing.", nil).
				Add(float64(st.OutputReads))
			pl.counter(MetricBasesProcessed, "Bases surviving pre-processing.", nil).
				Add(float64(st.OutputBases))
			rep.PreStats = st
			return st.String(), nil
		},
	})
	return cleaned, err
}

// checkAssemblers refuses a run naming a tool the registry lacks.
func checkAssemblers(names []string) error {
	for _, name := range names {
		if _, err := assembler.Get(name); err != nil {
			return err
		}
	}
	return nil
}

// asmKey names one PB job: an assembler at one k.
type asmKey struct {
	name string
	k    int
}

// asmOutput threads an assembly unit's identity and result through
// the pilot framework's opaque output slot.
type asmOutput struct {
	asmKey
	res assembler.Result
}

// report adds the assembly's row and its distributed traffic to the
// run.
func (out asmOutput) report(pl *Pipeline, rep *Report) {
	rep.Assemblies = append(rep.Assemblies, AssemblyReport{
		Assembler: out.name, K: out.k,
		Contigs: len(out.res.Contigs), N50: out.res.N50,
		TTC: out.res.TTC, MemoryGB: out.res.PeakMemoryGBPerNode,
	})
	if out.res.Messages > 0 || out.res.BytesSent > 0 {
		labels := obs.Labels{"assembler": out.name} //rnavet:allow metriccard — out.name is one of the registered assembler names (Assemblers()), a closed set
		pl.counter(MetricAssemblerMessages, "MPI/MapReduce messages sent by distributed assemblers.", labels).
			Add(float64(out.res.Messages))
		pl.counter(MetricAssemblerBytesSent, "MPI/MapReduce bytes sent by distributed assemblers.", labels).
			Add(float64(out.res.BytesSent))
	}
}

// assemble runs PB, one unit per assembler and k, and returns each
// job's contigs.
func (pl *Pipeline) assemble(fs simdata.FullScaleStats, cleaned seq.ReadSet, rep *Report) (map[asmKey][]seq.FastaRecord, error) {
	cfg, kmers := pl.cfg, rep.KmersUsed
	asmFS := fs
	asmFS.SeqDataBytes = fs.PostPreprocessBytes
	outputs := map[asmKey][]seq.FastaRecord{}
	// Contrail cannot handle N bases (the paper pre-processes P. Crispa
	// for exactly this reason): it is fed the N-free subset, via the SFA
	// conversion the paper charges 1 min for (sfaConversion). The subset
	// is the same for every k and is made once, before any assembly is
	// computed.
	var nFree []seq.Read
	nFreeReads := func() []seq.Read {
		if nFree == nil {
			nFree = seq.NFree(cleaned.Reads)
		}
		return nFree
	}
	// A unit's assembly is a future, computed ahead of the event loop
	// within the budget; a unit the journal replays gets none.
	futures := newAssemblies(pbBytesPerBase * cleaned.TotalBases())
	// The live assemblies share what tools at the same k compute alike
	// (Ray's and ABySS's k-mer spectrum); the journal's and the
	// planner's requests carry no memo.
	memo := &assembler.Memo{}
	units := func(sx *stageExec) []pilot.UnitDescription {
		var descs []pilot.UnitDescription
		for _, name := range cfg.Assemblers {
			a, _ := assembler.Get(name)
			jobNodes, rule := sx.jobShape(a.Info())
			for _, k := range kmers {
				key := asmKey{name, k}
				unit := fmt.Sprintf("%s-k%d", name, k)
				req := assembler.Request{
					Params:       assembler.Params{K: k, MinCoverage: cfg.MinCoverage},
					Nodes:        jobNodes,
					CoresPerNode: sx.cores,
					FullScale:    asmFS,
				}
				future := -1
				if !pl.estimate && !pl.jr.replays("PB", unit) {
					req.Reads, req.Memo = cleaned.Reads, memo
					if name == "contrail" {
						req.Reads = nFreeReads()
					}
					hostBytes := int64(math.MaxInt64) // unknown: runs alone
					if est, ok := a.(assembler.HostMemoryEstimator); ok {
						hostBytes = est.EstimateHostBytes(req)
					}
					future = futures.add(hostBytes, func() (assembler.Result, error) { return a.Assemble(req) })
				}
				// done records an assembly, live or replayed (a replay's
				// duration and memory come from the journal).
				done := func(res assembler.Result) pilot.WorkResult {
					outputs[key] = res.Contigs
					wr := assemblyWork(name, res)
					wr.Output = asmOutput{key, res}
					return wr
				}
				// The pilot runs the work before it learns whether the job's
				// node outlived it, so a unit that loses its node comes back
				// for another attempt; every attempt awaits the same future
				// and repeats only the effects.
				work := func(*pilot.ExecEnv) (pilot.WorkResult, error) {
					if pl.estimate {
						res, err := a.Estimate(req)
						return assemblyWork(name, res), err
					}
					res, err := futures.await(future)
					if err != nil {
						return pilot.WorkResult{}, err
					}
					return done(res), nil
				}
				codec := unitCodec{
					encode: func(res pilot.WorkResult) ([]byte, error) {
						out := res.Output.(asmOutput)
						return encodePB(pbPayload{
							Contigs:             out.res.Contigs,
							TTCSeconds:          float64(out.res.TTC),
							PeakMemoryGBPerNode: out.res.PeakMemoryGBPerNode,
							Messages:            out.res.Messages,
							BytesSent:           out.res.BytesSent,
							N50:                 out.res.N50,
						})
					},
					replay: func(rec journal.Record, _ *pilot.ExecEnv) (pilot.WorkResult, error) {
						p, err := decodePB(rec.Payload)
						if err != nil {
							return pilot.WorkResult{}, err
						}
						return done(assembler.Result{
							Contigs:             p.Contigs,
							TTC:                 vclock.Duration(p.TTCSeconds),
							PeakMemoryGBPerNode: p.PeakMemoryGBPerNode,
							Messages:            p.Messages,
							BytesSent:           p.BytesSent,
							N50:                 p.N50,
						}), nil
					},
				}
				descs = append(descs, pilot.UnitDescription{
					Name:  unit,
					Slots: jobNodes * sx.cores,
					Rule:  rule,
					Retry: cfg.Retry.PB,
					Work:  pl.jr.unit("PB", unit, work, codec),
				})
			}
		}
		return descs
	}
	err := pl.runStage(rep, stageSpec{
		name: "PB", backend: cfg.Backends.PB, nodes: assemblyNodes(cfg, kmers), cluster: true,
		attrs:      []string{"kmers", fmt.Sprint(kmers)},
		memGB:      assembler.GraphMemoryGB(asmFS, cfg.NodesPerMPIJob),
		stageBytes: fs.PostPreprocessBytes,
		units:      units,
		release:    futures.stop,
		failed: func(_ *stageExec, u *pilot.Unit) error {
			return fmt.Errorf("core: PB unit %s failed: %w", u.ID, u.Err)
		},
		fold: func(sx *stageExec, units []*pilot.Unit) (string, error) {
			return fmt.Sprintf("%d assembly jobs %s", len(units), sx.placement(rep.AssemblyNodes)), nil
		},
	})
	return outputs, err
}

// mergeGrainBytes is the PB output below which PC merges the
// assemblers' sets on the caller alone.
const mergeGrainBytes = 256 << 10

// postprocess runs PC: merging, quantification and the optional
// differential-expression test.
func (pl *Pipeline) postprocess(fs simdata.FullScaleStats, cleaned seq.ReadSet,
	outputs map[asmKey][]seq.FastaRecord, rep *Report) error {

	cfg := pl.cfg
	postModel := quant.DefaultCostModel()
	var pbOutBytes int64
	for _, set := range outputs {
		for _, c := range set {
			pbOutBytes += int64(len(c.Seq)) + int64(len(c.ID)) + 2
		}
	}
	work := func(env *pilot.ExecEnv) (pilot.WorkResult, error) {
		res := pilot.WorkResult{Duration: postModel.Duration(fs, env.Slots), PeakMemoryGB: postModel.MemoryGB(fs)}
		if cfg.ConditionB != nil {
			// The differential-expression step is charged as a second
			// quantification pass.
			res.Duration *= 2
		}
		if pl.estimate {
			return res, nil
		}
		// Merge each assembler's multi-k sets, one assembler per range
		// once PB's output is worth the fan-out, then the MAMP union
		// (optionally with cross-assembler consensus validation).
		all := make([][]seq.FastaRecord, len(cfg.Assemblers))
		perRange := 1
		if pbOutBytes < mergeGrainBytes {
			perRange = len(all)
		}
		sweep.Ranges(len(all), sweep.Parts(len(all), perRange), func(_, lo, hi int) {
			for i := lo; i < hi; i++ {
				sets := make([][]seq.FastaRecord, len(rep.KmersUsed))
				for j, k := range rep.KmersUsed {
					sets[j] = outputs[asmKey{cfg.Assemblers[i], k}]
				}
				all[i], _ = merge.Merge(sets, merge.DefaultOptions())
			}
		})
		for i, name := range cfg.Assemblers {
			rep.PerAssembler[name] = all[i]
		}
		var final []seq.FastaRecord
		if cfg.ConsensusMerge && len(all) >= 2 {
			f, cs, err := merge.ConsensusMerge(all, merge.DefaultConsensusOptions())
			if err != nil {
				return pilot.WorkResult{}, err
			}
			final = f
			rep.MergeStats = cs.Stats
		} else {
			f, mstats := merge.Merge(all, merge.DefaultOptions())
			final = f
			rep.MergeStats = mstats
		}
		rep.Transcripts = final
		q, err := quant.Quantify(final, cleaned.Reads, quant.DefaultOptions())
		if err != nil {
			return pilot.WorkResult{}, err
		}
		rep.Quant = q
		if cfg.ConditionB != nil {
			// Optional differential-expression step: clean and
			// quantify the second condition, then test.
			cleanB, _ := preprocess.Run(*cfg.ConditionB, cfg.Preprocess)
			qb, err := quant.Quantify(final, cleanB.Reads, quant.DefaultOptions())
			if err != nil {
				return pilot.WorkResult{}, err
			}
			rep.QuantB = qb
			ids := make([]string, len(final))
			ca := make([]int64, len(final))
			cb := make([]int64, len(final))
			idx := map[string]int{}
			for i, tx := range final {
				ids[i] = tx.ID
				idx[tx.ID] = i
			}
			for _, a := range q.Abundances {
				ca[idx[a.ID]] = a.Count
			}
			for _, a := range qb.Abundances {
				cb[idx[a.ID]] = a.Count
			}
			rows, err := diffexpr.Test(ids, ca, cb)
			if err != nil {
				return pilot.WorkResult{}, fmt.Errorf("differential expression: %w", err)
			}
			rep.DiffExpr = rows
		}
		return res, nil
	}
	codec := unitCodec{
		encode: func(pilot.WorkResult) ([]byte, error) {
			return json.Marshal(pcPayload{
				PerAssembler: rep.PerAssembler,
				Transcripts:  rep.Transcripts,
				MergeStats:   rep.MergeStats,
				Quant:        rep.Quant,
				QuantB:       rep.QuantB,
				DiffExpr:     rep.DiffExpr,
			})
		},
		replay: func(rec journal.Record, _ *pilot.ExecEnv) (pilot.WorkResult, error) {
			var p pcPayload
			if err := json.Unmarshal(rec.Payload, &p); err != nil {
				return pilot.WorkResult{}, err
			}
			rep.PerAssembler = p.PerAssembler
			rep.Transcripts = p.Transcripts
			rep.MergeStats = p.MergeStats
			rep.Quant = p.Quant
			rep.QuantB = p.QuantB
			rep.DiffExpr = p.DiffExpr
			return pilot.WorkResult{}, nil
		},
	}
	return pl.runStage(rep, stageSpec{
		name: "PC", backend: cfg.Backends.PC, nodes: 1,
		memGB: postModel.MemoryGB(fs), stageBytes: pbOutBytes,
		units: func(sx *stageExec) []pilot.UnitDescription {
			return []pilot.UnitDescription{{
				Name:  "postprocess",
				Slots: min(sx.cores, 8),
				Rule:  sge.SingleNode,
				Retry: cfg.Retry.PC,
				Work:  pl.jr.unit("PC", "postprocess", work, codec),
			}}
		},
		failed: func(_ *stageExec, u *pilot.Unit) error {
			return fmt.Errorf("core: PC post-processing failed: %w", u.Err)
		},
		fold: func(*stageExec, []*pilot.Unit) (string, error) {
			return rep.MergeStats.String(), nil
		},
	})
}

// stageSpec is one of PA, PB and PC as runStage runs it.
type stageSpec struct {
	name    string
	backend cloud.Backend // requested; an open breaker reroutes it on-demand
	// nodes sizes the stage's vehicle. A cluster stage's (PB's) launcher
	// sizes its cluster, and that size is the report's AssemblyNodes.
	nodes   int
	cluster bool
	attrs   []string // extra span attributes, key/value pairs
	// memGB sizes a fresh vehicle's instance type under the dynamic
	// pattern; stageBytes migrate from the previous stage's vehicle.
	memGB      float64
	stageBytes int64

	units  func(sx *stageExec) []pilot.UnitDescription
	failed func(sx *stageExec, u *pilot.Unit) error // the stage error for an unfinished unit
	// fold folds the finished units into the report and returns the
	// stage note; an error fails the stage.
	fold func(sx *stageExec, units []*pilot.Unit) (string, error)
	// release, when set, runs however the stage ends: it joins what the
	// units started beside the event loop.
	release func()
}

// runStage runs one stage through the bracket every stage shares:
// route, open the scope, stop at the cutoff, launch (or take over from
// the previous stage's vehicle), submit and run the units, stop at the
// first cancelled or failed unit, fold, close the scope and report.
// Once the scope is open, every early exit goes through abort.
func (pl *Pipeline) runStage(rep *Report, sp stageSpec) error {
	if sp.release != nil {
		defer sp.release()
	}
	l, fallback := pl.routeBackend(sp.backend)
	nodes := sp.nodes
	if sp.cluster {
		nodes = l.clusterNodes(nodes)
		rep.AssemblyNodes = nodes
	}
	// The first stage's instance type is part of its span; a later
	// stage's is decided only if it boots fresh nodes.
	first := len(pl.sxs) == 0
	var itype string
	if first {
		var err error
		if itype, err = l.instanceType(sp.memGB); err != nil {
			return err
		}
	}
	sc := pl.beginStage(sp.name)
	if first {
		sc.attr(obs.AttrInstanceType, itype)
	}
	for i := 0; i+1 < len(sp.attrs); i += 2 {
		sc.attr(sp.attrs[i], sp.attrs[i+1])
	}
	sc.attr(obs.AttrNodes, fmt.Sprint(nodes))
	if pl.cutoff > 0 && pl.clock.Now() >= pl.cutoff {
		return pl.abort(rep, sc, pl.cutoffCancel(rep, sp.name, "", pl.clock.Now()))
	}

	sx, transferNote, err := pl.nextStage(sp, l, itype, nodes)
	if err != nil {
		return pl.abort(rep, sc, fmt.Errorf("core: launching %s: %w", sp.name, err))
	}
	pl.sxs = append(pl.sxs, sx)
	sc.attr(obs.AttrInstanceType, sx.instance)

	start := pl.clock.Now()
	um, err := sx.runner()
	var units []*pilot.Unit
	if err == nil {
		um.SetObs(pl.o)
		um.SetOnUnitDone(pl.jr.onUnitDone(sp.name))
		um.SetRetryBudget(pl.budget)
		um.SetCutoff(pl.cutoff)
		if units, err = um.Submit(sp.units(sx)); err == nil {
			err = um.Run()
		}
	}
	if err != nil {
		return pl.abort(rep, sc, fmt.Errorf("core: running %s: %w", sp.name, err))
	}
	for _, u := range units {
		// The runners cancel (never fail) a unit whose attempt would start
		// past the cutoff, and nothing else cancels units inside a run.
		if pl.cutoff > 0 && u.State() == pilot.UnitCanceled {
			return pl.abort(rep, sc, pl.cutoffCancel(rep, sp.name, sx.id, start))
		}
		if u.State() != pilot.UnitDone {
			rep.Stages = append(rep.Stages, StageReport{Name: sp.name, Pilot: sx.id, Start: start, End: pl.clock.Now(), Note: "FAILED"})
			return pl.abort(rep, sc, sp.failed(sx, u))
		}
		if out, ok := u.Result.Output.(asmOutput); ok {
			// An assembly folds into the report when it is reached, so a
			// PB that stops at a later unit keeps the earlier ones.
			out.report(pl, rep)
		}
	}
	note, err := sp.fold(sx, units)
	if err != nil {
		return pl.abort(rep, sc, err)
	}
	sc.end("")
	rep.Stages = append(rep.Stages, StageReport{
		Name: sp.name, Pilot: sx.id, Start: start, End: pl.clock.Now(),
		Note: note + transferNote + fallback,
	})
	return nil
}

// abort ends the run inside a stage: the scope fails, a cutoff is
// journaled and becomes the outcome, everything tears down, and the
// report is stamped.
func (pl *Pipeline) abort(rep *Report, sc *stageScope, err error) error {
	sc.fail(err)
	if ce, ok := err.(*CutoffError); ok {
		pl.jr.cancelled(string(ce.Outcome))
		rep.Outcome = ce.Outcome
	}
	pl.teardown()
	rep.finish(pl)
	return err
}

// stageExec is one stage's launched vehicle: the launcher that made it,
// and what it filled in. cores is what units size their slot requests
// by; moveIn names how the previous stage's data reaches it (NFS on a
// cluster, an object store for functions).
type stageExec struct {
	launcher
	id, instance, moveIn string
	cores                int
}

// cutoffCancel reports a stage cut off at the run's cutoff and returns
// the *CutoffError.
func (pl *Pipeline) cutoffCancel(rep *Report, stage, pilotID string, start vclock.Time) error {
	// A preempted unit leaves the clock where its attempt started;
	// the run still waited until the cutoff expired before giving up.
	if pl.clock.Now() < pl.cutoff {
		pl.clock.AdvanceTo(pl.cutoff)
	}
	now := pl.clock.Now()
	rep.Stages = append(rep.Stages, StageReport{
		Name: stage, Pilot: pilotID, Start: start, End: now, Note: string(pl.cutoffOutcome),
	})
	return &CutoffError{Outcome: pl.cutoffOutcome, At: now, Cutoff: pl.cutoff}
}

// routeBackend applies the circuit breaker to a stage's requested
// backend — a tripped spot or serverless circuit routes the stage to
// the on-demand fallback — and returns the launcher for the effective
// backend, with a human-readable note suffix when a fallback happened.
func (pl *Pipeline) routeBackend(backend cloud.Backend) (launcher, string) {
	var note string
	if cb := pl.provider.Breaker(); cb != nil && backend != cloud.OnDemand && !cb.Allow(backend) {
		backend, note = cloud.OnDemand, fmt.Sprintf("; %s breaker open, on-demand fallback", backend)
	}
	if backend == cloud.Serverless {
		return &functionLauncher{pl: pl}, note
	}
	return &pilotLauncher{pl: pl, backend: backend}, note
}

// A launcher provisions one kind of stage vehicle — a pilot on
// on-demand or spot VMs, or functions — then runs and releases it.
// routeBackend picks it once per stage, and only it knows the kinds.
type launcher interface {
	instanceType(memGB float64) (string, error) // a fresh vehicle's flavour
	clusterNodes(nodes int) int                 // a cluster stage's size
	// launch provisions the vehicle fresh; adopt takes over the VMs prev
	// retained instead, resized to nodes, and is nil when there are none.
	launch(name, itype string, nodes int) (*stageExec, error)
	adopt(name string, prev *stageExec, nodes int) (*stageExec, error)
	retained() *pilot.Pilot                                 // the pilot holding its VMs
	jobShape(info assembler.Info) (int, sge.AllocationRule) // each PB job's
	runner() (*pilot.UnitManager, error)                    // a stage's unit manager
	release(terminateVMs bool) error                        // completes it, VMs too if set
	placement(nodes int) string                             // where PB's jobs ran
}

// pilotLauncher launches a pilot on a purchasing backend's VMs.
type pilotLauncher struct {
	pl      *Pipeline
	backend cloud.Backend
	p       *pilot.Pilot // once launched
}

// instanceType: the dynamic pattern picks the cheapest 8-core type with
// memGB, the others keep the configured one.
func (l *pilotLauncher) instanceType(memGB float64) (string, error) {
	if l.pl.cfg.Pattern != DistributedDynamic {
		return l.pl.cfg.InstanceType, nil
	}
	it, err := ChooseInstanceType(l.pl.provider, memGB, 8)
	return it.Name, err
}

func (l *pilotLauncher) launch(name, itype string, nodes int) (*stageExec, error) {
	return l.submit(pilot.PilotDescription{
		Name: name, InstanceType: itype, Nodes: nodes, Backend: l.backend,
		// Under S2, VM lifetime belongs to the scheme, not the pilot.
		RetainVMs: l.pl.cfg.Scheme == S2 && l.pl.cfg.Pattern != Conventional,
	})
}

func (l *pilotLauncher) submit(desc pilot.PilotDescription) (*stageExec, error) {
	p, err := l.pl.pm.SubmitPilot(desc)
	if err != nil {
		return nil, err
	}
	l.p = p
	it := p.Cluster.InstanceType()
	return &stageExec{launcher: l, id: p.ID, instance: it.Name, moveIn: "inter-pilot data transfer",
		cores: it.Cores}, nil
}

// adopt completes the previous pilot and hands its VMs, grown or shrunk
// to size, to a new one.
func (l *pilotLauncher) adopt(name string, prev *stageExec, nodes int) (*stageExec, error) {
	old, pl := prev.retained(), l.pl
	if old == nil {
		return nil, nil
	}
	if err := pl.pm.CompletePilot(old); err != nil {
		return nil, err
	}
	vms := old.Cluster.VMs()
	if len(vms) > nodes {
		// Terminate the excess (sample run: "other 35 VMs, which
		// are not necessary for PC, are terminated").
		pl.provider.Terminate(vms[nodes:]...)
		vms = vms[:nodes]
	} else if len(vms) < nodes {
		// Growth buys on the stage's requested backend; the adopted
		// nodes keep whichever market they were booted on.
		extra, err := pl.provider.RunInstancesOn(old.Cluster.InstanceType().Name, nodes-len(vms), l.backend)
		if err != nil {
			return nil, err
		}
		pl.provider.WaitRunning(extra)
		pl.clock.Advance(cluster.ConfigPerNode)
		vms = append(vms, extra...)
	}
	// The shared filesystem persists across pilots under S2: no
	// transfer.
	return l.submit(pilot.PilotDescription{Name: name, ReuseVMs: vms})
}

func (l *pilotLauncher) jobShape(info assembler.Info) (int, sge.AllocationRule) {
	switch n := l.pl.cfg.NodesPerMPIJob; {
	case info.Name == "contrail":
		return l.pl.cfg.ContrailNodes, sge.FillUp
	case n > 1 && info.MultiNode():
		return n, sge.FillUp
	}
	return 1, sge.SingleNode
}

func (l *pilotLauncher) release(terminateVMs bool) error {
	err := l.pl.pm.CompletePilot(l.p)
	if err == nil && terminateVMs {
		l.p.Cluster.Terminate()
	}
	return err
}

func (l *pilotLauncher) clusterNodes(nodes int) int { return nodes }
func (l *pilotLauncher) retained() *pilot.Pilot     { return l.p }

// runner binds a fresh manager each stage, so every stage a pilot
// serves numbers its units from one.
func (l *pilotLauncher) runner() (*pilot.UnitManager, error) { return pilot.NewUnitManager(l.p) }
func (l *pilotLauncher) placement(nodes int) string          { return fmt.Sprintf("on %d nodes", nodes) }

// functionLauncher deploys a stage as functions. An invocation is one
// single-core allocation, so there is no cluster to size, and a job too
// long for one is split into parallel pieces at the duration cap.
type functionLauncher struct {
	pl *Pipeline
	um *pilot.UnitManager // once launched
}

func (l *functionLauncher) launch(name, itype string, _ int) (*stageExec, error) {
	um, err := pilot.NewFunctionRunner(l.pl.provider, l.pl.pm.Store(), name)
	if err != nil {
		return nil, err
	}
	l.um = um
	return &stageExec{launcher: l, id: um.ID(), instance: itype, moveIn: "transfer to object store",
		cores: 1}, nil
}

func (l *functionLauncher) instanceType(float64) (string, error)              { return "serverless", nil }
func (l *functionLauncher) clusterNodes(int) int                              { return 0 }
func (l *functionLauncher) adopt(string, *stageExec, int) (*stageExec, error) { return nil, nil }
func (l *functionLauncher) retained() *pilot.Pilot                            { return nil }
func (l *functionLauncher) jobShape(assembler.Info) (int, sge.AllocationRule) {
	return 1, sge.SingleNode
}
func (l *functionLauncher) runner() (*pilot.UnitManager, error) { return l.um, nil }
func (l *functionLauncher) release(bool) error                  { return l.um.Complete() }
func (l *functionLauncher) placement(int) string                { return "as functions" }

// nextStage provisions a stage's vehicle through its launcher: fresh
// for the first stage, and for a later one by the matching scheme and
// workflow pattern, migrating the stage's bytes from the previous one.
// It returns the vehicle and a note about any data transfer.
func (pl *Pipeline) nextStage(sp stageSpec, l launcher, itype string, nodes int) (*stageExec, string, error) {
	if len(pl.sxs) == 0 {
		sx, err := l.launch(sp.name, itype, nodes)
		return sx, "", err
	}
	prev := pl.sxs[len(pl.sxs)-1]
	if pl.cfg.Pattern == Conventional {
		// Single-pilot workflow: reuse the original pilot untouched.
		return prev, "", nil
	}
	if pl.cfg.Scheme == S2 {
		if sx, err := l.adopt(sp.name, prev, nodes); sx != nil || err != nil {
			return sx, "", err
		}
	}
	// S1, or no VMs to adopt: launch fresh, migrate the data and release
	// the previous stage with any VMs it retained, which nothing adopts.
	itype, err := l.instanceType(sp.memGB)
	if err != nil {
		return nil, "", err
	}
	sx, err := l.launch(sp.name, itype, nodes)
	if err != nil {
		return nil, "", err
	}
	d := pl.provider.InterNodeTransfer(sp.stageBytes)
	pl.clock.Advance(d)
	if err := prev.release(true); err != nil {
		return nil, "", err
	}
	return sx, fmt.Sprintf("; %v %s", d, sx.moveIn), nil
}

// teardown completes every stage vehicle and terminates all VMs.
func (pl *Pipeline) teardown() {
	for _, sx := range pl.sxs {
		_ = sx.release(false)
	}
	pl.provider.TerminateAll()
}

// finish stamps the report's totals and folds the observability state
// into the snapshot.
func (r *Report) finish(pl *Pipeline) {
	r.TTC = vclock.Duration(pl.clock.Now())
	r.CostUSD = pl.provider.TotalCost()
	r.Bill = pl.provider.Bill()
	r.Events = pl.pm.Store().History()
	pl.finishObs(r)
}

// shardReadSet splits reads into n fragment-preserving shards by
// round-robin over fragments.
func shardReadSet(rs seq.ReadSet, n int) []seq.ReadSet {
	stride := 1
	if rs.Paired {
		stride = 2
	}
	out := make([]seq.ReadSet, n)
	perShard := (len(rs.Reads)/stride/n + 1) * stride
	for i := range out {
		out[i] = seq.ReadSet{Paired: rs.Paired, Reads: make([]seq.Read, 0, perShard)}
	}
	for f := 0; f*stride < len(rs.Reads); f++ {
		s := f % n
		out[s].Reads = append(out[s].Reads, rs.Reads[f*stride:min((f+1)*stride, len(rs.Reads))]...)
	}
	return out
}

// combineStats folds per-shard pre-processing statistics.
func combineStats(a, b preprocess.Stats) preprocess.Stats {
	a.InputReads += b.InputReads
	a.OutputReads += b.OutputReads
	a.InputBases += b.InputBases
	a.OutputBases += b.OutputBases
	a.TrimmedBases += b.TrimmedBases
	a.DroppedNRich += b.DroppedNRich
	a.DroppedShort += b.DroppedShort
	a.DroppedDup += b.DroppedDup
	if a.OutputReads > 0 {
		a.MeanReadLen = float64(a.OutputBases) / float64(a.OutputReads)
	}
	return a
}
