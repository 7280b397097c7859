package core

import (
	"bytes"
	"encoding/json"
	"fmt"
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
}

// New builds a pipeline with a fresh simulated cloud.
func New(cfg Config) *Pipeline {
	cfg = cfg.withDefaults()
	clock := vclock.NewClock(0)
	copts := cloud.DefaultOptions()
	if cfg.Cloud != nil {
		copts = *cfg.Cloud
	}
	// Stage backends may need markets the caller didn't configure:
	// default them. The spot market is seeded from FaultSeed so a run
	// is a pure function of its config.
	if cfg.Backends.AnySpot() && copts.Spot == nil {
		copts.Spot = &cloud.SpotOptions{Seed: cfg.FaultSeed}
	}
	if cfg.Backends.AnyServerless() && copts.Serverless == nil {
		copts.Serverless = &cloud.ServerlessOptions{}
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
	pm := pilot.NewManager(provider, store, cluster.DefaultOptions())
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

// Provider exposes the simulated cloud (for inspection in tests and
// benches).
func (pl *Pipeline) Provider() *cloud.Provider { return pl.provider }

// Obs exposes the pipeline's observability bundle (tracer + metric
// registry).
func (pl *Pipeline) Obs() *obs.Obs { return pl.o }

// Run executes the full workflow over a dataset and returns the
// report. On stage failure the partial report is returned along with
// the error, so callers can inspect how far the run got (Table IV's
// X cells are exactly such failures).
func Run(ds *simdata.Dataset, cfg Config) (*Report, error) {
	return New(cfg).Run(ds)
}

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
		if cerr := pl.jr.complete(pl.clock.Now(), pl.provider.TotalCost(), err); cerr != nil && err == nil {
			err = cerr
		}
	}()

	cfg := pl.cfg
	fs := ds.Profile.FullScale
	rep = &Report{Config: cfg, PerAssembler: map[string][]seq.FastaRecord{}}
	for _, name := range cfg.Assemblers {
		if _, err := assembler.Get(name); err != nil {
			return rep, err
		}
	}
	if cfg.Pattern == Conventional && cfg.Backends.AnyServerless() {
		return rep, fmt.Errorf("core: the conventional pattern shares one cluster across stages and cannot host serverless stages (%s)", cfg.Backends)
	}

	pl.runSpan = pl.o.Tracer.StartSpan(nil, obs.KindRun, "run", pl.clock.Now())
	pl.runSpan.SetAttr("scheme", cfg.Scheme.String())
	pl.runSpan.SetAttr("pattern", cfg.Pattern.String())
	pl.runSpan.SetAttr("assemblers", strings.Join(cfg.Assemblers, ","))
	pl.runSpan.SetAttr("profile", ds.Profile.Name)
	pl.jr.header(configDigest(cfg, ds), cfg.FaultSeed, ds.Profile.Name)

	// --- Stage 0: upload the raw data from the local server ---
	t0 := pl.clock.Now()
	xferScope := pl.beginStage("transfer")
	xferScope.attr("bytes", fmt.Sprintf("%d", fs.SeqDataBytes))
	pl.provider.UploadFromLocal(fs.SeqDataBytes)
	xferScope.end()
	rep.Stages = append(rep.Stages, StageReport{
		Name: "transfer", Start: t0, End: pl.clock.Now(),
		Note: fmt.Sprintf("%.1f GB to cloud", float64(fs.SeqDataBytes)/1e9),
	})

	// --- PA: pre-processing ---
	preModel := preprocess.DefaultCostModel()
	paBackend, paFallback := pl.routeBackend(cfg.Backends.PA)
	paType := cfg.InstanceType
	if paBackend == cloud.Serverless {
		paType = "serverless"
	} else if cfg.Pattern == DistributedDynamic {
		it, err := ChooseInstanceType(pl.provider, preModel.MemoryGB(fs), 8)
		if err != nil {
			return rep, err
		}
		paType = it.Name
	}
	shards := cfg.ParallelPreprocessShards
	if shards < 1 {
		shards = 1
	}
	paNodes := shards
	if cfg.Pattern == Conventional {
		// One pilot hosts everything: size it for the whole workflow
		// up front (the pattern's defining inflexibility).
		kmers := pl.kmerPlan(ds, nil)
		if n := pl.assemblyNodes(kmers); n > paNodes {
			paNodes = n
		}
	}
	paScope := pl.beginStage("PA")
	paScope.attr(obs.AttrInstanceType, paType)
	paScope.attr(obs.AttrNodes, fmt.Sprintf("%d", paNodes))
	if pl.cutoffReached() {
		return pl.cutoffCancel(rep, paScope, "PA", "", pl.clock.Now())
	}
	pa, err := pl.firstStage("PA", paType, paNodes, paBackend)
	if err != nil {
		err = fmt.Errorf("core: launching PA: %w", err)
		paScope.fail(err)
		pl.teardown()
		rep.finish(pl)
		return rep, err
	}

	// Shard the raw reads (fragment-preserving) for data-parallel
	// pre-processing; a single shard is the paper's stock single-VM PA.
	shardReads := shardReadSet(ds.Reads, shards)
	shardClean := make([]seq.ReadSet, shards)
	shardStats := make([]preprocess.Stats, shards)
	fsShard := fs
	fsShard.SeqDataBytes = fs.SeqDataBytes / int64(shards)

	paUM, err := pl.newRunner(pa, "PA")
	if err != nil {
		return rep, err
	}
	paStart := pl.clock.Now()
	var paDescs []pilot.UnitDescription
	for s := 0; s < shards; s++ {
		s := s
		paDescs = append(paDescs, pilot.UnitDescription{
			Name:  fmt.Sprintf("preprocess-%d", s),
			Slots: min(pa.cores(), 8),
			Rule:  sge.SingleNode,
			Retry: cfg.Retry.PA,
			Work: pl.jr.unit("PA", fmt.Sprintf("preprocess-%d", s),
				func(env *pilot.ExecEnv) (pilot.WorkResult, error) {
					shardClean[s], shardStats[s] = preprocess.Run(shardReads[s], cfg.Preprocess)
					return pilot.WorkResult{
						Duration:     preModel.Duration(fsShard, env.Slots),
						PeakMemoryGB: preModel.MemoryGB(fsShard),
					}, nil
				},
				unitCodec{
					encode: func(pilot.WorkResult) (json.RawMessage, error) {
						return json.Marshal(paPayload{
							Shard: s, Reads: shardClean[s].Reads,
							Paired: shardClean[s].Paired, Stats: shardStats[s],
						})
					},
					replay: func(rec journal.Record, _ *pilot.ExecEnv) (pilot.WorkResult, error) {
						// Pre-processing only drops or trims reads, so the
						// shard's input count bounds the journaled output.
						p := paPayload{Reads: make([]seq.Read, 0, len(shardReads[s].Reads))}
						if err := json.Unmarshal(rec.Payload, &p); err != nil {
							return pilot.WorkResult{}, err
						}
						shardClean[s] = seq.ReadSet{Reads: p.Reads, Paired: p.Paired}
						shardStats[s] = p.Stats
						return pilot.WorkResult{}, nil
					},
				}),
		})
	}
	paUnits, err := paUM.Submit(paDescs)
	if err != nil {
		return rep, err
	}
	if err := paUM.Run(); err != nil {
		return rep, err
	}
	for _, u := range paUnits {
		if pl.canceledAtCutoff(u) {
			return pl.cutoffCancel(rep, paScope, "PA", pa.id(), paStart, pa)
		}
		if u.State() != pilot.UnitDone {
			rep.Stages = append(rep.Stages, StageReport{Name: "PA", Pilot: pa.id(), Start: paStart, End: pl.clock.Now(), Note: "FAILED"})
			err := fmt.Errorf("core: PA pre-processing failed on %s: %w", paType, u.Err)
			paScope.fail(err)
			pl.teardown(pa)
			rep.finish(pl)
			return rep, err
		}
	}
	var preStats preprocess.Stats
	for s := 0; s < shards; s++ {
		preStats = combineStats(preStats, shardStats[s])
	}
	cleaned := seq.ReadSet{Paired: ds.Reads.Paired, Reads: make([]seq.Read, 0, preStats.OutputReads)}
	for s := 0; s < shards; s++ {
		cleaned.Reads = append(cleaned.Reads, shardClean[s].Reads...)
	}
	if preStats.OutputReads == 0 {
		err := fmt.Errorf("core: pre-processing removed every read")
		paScope.fail(err)
		pl.teardown(pa)
		rep.finish(pl)
		return rep, err
	}
	pl.counter(MetricReadsProcessed, "Reads surviving pre-processing.", nil).
		Add(float64(preStats.OutputReads))
	pl.counter(MetricBasesProcessed, "Bases surviving pre-processing.", nil).
		Add(float64(preStats.OutputBases))
	fq := bytes.NewBuffer(make([]byte, 0, seq.FastqSize(cleaned.Reads)))
	if err := seq.WriteFastq(fq, cleaned.Reads); err != nil {
		return rep, err
	}
	if err := pa.store().Put("data/clean.fastq", fq.Bytes()); err != nil {
		return rep, err
	}
	rep.PreStats = preStats
	paScope.end()
	rep.Stages = append(rep.Stages, StageReport{
		Name: "PA", Pilot: pa.id(), Start: paStart, End: pl.clock.Now(),
		Note: preStats.String() + paFallback,
	})

	// The k-mer plan is now known — the information the dynamic
	// workflow waits for.
	kmers := pl.kmerPlan(ds, &preStats)
	rep.KmersUsed = kmers
	asmFS := fs
	asmFS.SeqDataBytes = fs.PostPreprocessBytes

	// --- PB: multiple-k-mer, multi-assembler transcript assembly ---
	pbBackend, pbFallback := pl.routeBackend(cfg.Backends.PB)
	nodes := pl.assemblyNodes(kmers)
	if pbBackend == cloud.Serverless {
		// Functions are single one-core allocations: there is no
		// assembly cluster to size.
		nodes = 0
	}
	rep.AssemblyNodes = nodes
	pbScope := pl.beginStage("PB")
	pbScope.attr("kmers", fmt.Sprint(kmers))
	pbScope.attr(obs.AttrNodes, fmt.Sprintf("%d", nodes))
	if pl.cutoffReached() {
		return pl.cutoffCancel(rep, pbScope, "PB", "", pl.clock.Now(), pa)
	}
	pb, transferNote, err := pl.nextStage("PB", pa, nodes, pbBackend, func() (string, error) {
		// Instance choice for a fresh (S1) PB pilot.
		if cfg.Pattern != DistributedDynamic {
			return cfg.InstanceType, nil
		}
		need := assembler.GraphMemoryGB(asmFS, cfg.NodesPerMPIJob)
		it, err := ChooseInstanceType(pl.provider, need, 8)
		if err != nil {
			return "", err
		}
		return it.Name, nil
	}, fs.PostPreprocessBytes)
	if err != nil {
		err = fmt.Errorf("core: launching PB: %w", err)
		pbScope.fail(err)
		pl.teardown(pa)
		rep.finish(pl)
		return rep, err
	}
	pbScope.attr(obs.AttrInstanceType, pb.instanceName())

	pbStart := pl.clock.Now()
	pbUM, err := pl.newRunner(pb, "PB")
	if err != nil {
		return rep, err
	}
	cores := pb.cores()
	type asmKey struct {
		name string
		k    int
	}
	outputs := map[asmKey][]seq.FastaRecord{}
	// Contrail cannot handle N bases (the paper pre-processes P. Crispa
	// for exactly this reason): it is fed the N-free subset, via the SFA
	// conversion the paper charges 1 min for. Both are the same for
	// every k, so the first Contrail unit to need them, live or
	// replayed, makes them for the run (units run one at a time on the
	// event loop) and each unit stages the one blob under its own name.
	var nFree []seq.Read
	var sfa []byte
	stageSFA := func(store *cluster.SharedStore, k int) error {
		if sfa == nil {
			nFree = dropNReads(cleaned.Reads)
			buf := bytes.NewBuffer(make([]byte, 0, seq.SFASize(nFree)))
			if err := seq.WriteSFA(buf, nFree); err != nil {
				return err
			}
			sfa = buf.Bytes()
		}
		return store.Put(fmt.Sprintf("data/clean.k%d.sfa", k), sfa)
	}
	var descs []pilot.UnitDescription
	for _, name := range cfg.Assemblers {
		name := name
		a, _ := assembler.Get(name)
		jobNodes := cfg.NodesPerMPIJob
		rule := sge.SingleNode
		if name == "contrail" {
			jobNodes = cfg.ContrailNodes
			rule = sge.FillUp
		} else if !a.Info().MultiNode() {
			jobNodes = 1
		}
		if jobNodes > 1 {
			rule = sge.FillUp
		}
		if pbBackend == cloud.Serverless {
			// A function invocation is one single-core allocation;
			// multi-node MPI shapes don't exist on this backend, so the
			// assembler runs sequentially and long jobs split into
			// parallel pieces at the duration cap instead.
			jobNodes = 1
			rule = sge.SingleNode
		}
		for _, k := range kmers {
			k := k
			jobNodes := jobNodes
			// The pilot runs the work before it learns whether the job's
			// node outlived it, so a unit that loses its node comes back
			// for another attempt. The assembly depends on nothing an
			// attempt changes: it is computed once and every attempt
			// repeats only the effects.
			var assembled *assembler.Result
			work := func(env *pilot.ExecEnv) (pilot.WorkResult, error) {
				extra := vclock.Duration(0)
				jobReads := cleaned.Reads
				if name == "contrail" {
					if err := stageSFA(env.Store, k); err != nil {
						return pilot.WorkResult{}, err
					}
					jobReads = nFree
					extra = 60 * vclock.Second
				}
				if assembled == nil {
					res, err := a.Assemble(assembler.Request{
						Reads:        jobReads,
						Params:       assembler.Params{K: k, MinCoverage: cfg.MinCoverage},
						Nodes:        jobNodes,
						CoresPerNode: cores,
						FullScale:    asmFS,
					})
					if err != nil {
						return pilot.WorkResult{}, err
					}
					assembled = &res
				}
				res := *assembled
				outputs[asmKey{name, k}] = res.Contigs
				if err := stageFasta(env.Store, fmt.Sprintf("asm/%s/k%d.contigs.fa", name, k), res.Contigs); err != nil {
					return pilot.WorkResult{}, err
				}
				return pilot.WorkResult{
					Duration:     res.TTC + extra,
					PeakMemoryGB: res.PeakMemoryGBPerNode,
					Output:       asmOutput{name: name, k: k, res: res},
				}, nil
			}
			codec := unitCodec{
				encode: func(res pilot.WorkResult) (json.RawMessage, error) {
					out := res.Output.(asmOutput)
					return json.Marshal(pbPayload{
						Assembler: out.name, K: out.k, Contigs: out.res.Contigs,
						TTCSeconds:          float64(out.res.TTC),
						PeakMemoryGBPerNode: out.res.PeakMemoryGBPerNode,
						Messages:            out.res.Messages,
						BytesSent:           out.res.BytesSent,
						N50:                 out.res.N50,
					})
				},
				replay: func(rec journal.Record, env *pilot.ExecEnv) (pilot.WorkResult, error) {
					var p pbPayload
					if err := json.Unmarshal(rec.Payload, &p); err != nil {
						return pilot.WorkResult{}, err
					}
					if p.Assembler == "contrail" {
						// Re-stage the SFA conversion the original unit
						// staged, so the shared store's contents match.
						if err := stageSFA(env.Store, p.K); err != nil {
							return pilot.WorkResult{}, err
						}
					}
					outputs[asmKey{p.Assembler, p.K}] = p.Contigs
					if err := stageFasta(env.Store, fmt.Sprintf("asm/%s/k%d.contigs.fa", p.Assembler, p.K), p.Contigs); err != nil {
						return pilot.WorkResult{}, err
					}
					res := assembler.Result{
						Contigs:             p.Contigs,
						TTC:                 vclock.Duration(p.TTCSeconds),
						PeakMemoryGBPerNode: p.PeakMemoryGBPerNode,
						Messages:            p.Messages,
						BytesSent:           p.BytesSent,
						N50:                 p.N50,
					}
					return pilot.WorkResult{Output: asmOutput{name: p.Assembler, k: p.K, res: res}}, nil
				},
			}
			descs = append(descs, pilot.UnitDescription{
				Name:  fmt.Sprintf("%s-k%d", name, k),
				Slots: jobNodes * cores,
				Rule:  rule,
				Retry: cfg.Retry.PB,
				Work:  pl.jr.unit("PB", fmt.Sprintf("%s-k%d", name, k), work, codec),
			})
		}
	}
	pbUnits, err := pbUM.Submit(descs)
	if err != nil {
		return rep, err
	}
	if err := pbUM.Run(); err != nil {
		return rep, err
	}
	for _, u := range pbUnits {
		if pl.canceledAtCutoff(u) {
			return pl.cutoffCancel(rep, pbScope, "PB", pb.id(), pbStart, pa, pb)
		}
		if u.State() != pilot.UnitDone {
			rep.Stages = append(rep.Stages, StageReport{Name: "PB", Pilot: pb.id(), Start: pbStart, End: pl.clock.Now(), Note: "FAILED"})
			err := fmt.Errorf("core: PB unit %s failed: %w", u.ID, u.Err)
			pbScope.fail(err)
			pl.teardown(pa, pb)
			rep.finish(pl)
			return rep, err
		}
		out := u.Result.Output.(asmOutput)
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
	pbScope.end()
	pbNote := fmt.Sprintf("%d assembly jobs on %d nodes%s%s", len(pbUnits), nodes, transferNote, pbFallback)
	if pb.faas != nil {
		pbNote = fmt.Sprintf("%d assembly jobs as functions%s", len(pbUnits), transferNote)
	}
	rep.Stages = append(rep.Stages, StageReport{
		Name: "PB", Pilot: pb.id(), Start: pbStart, End: pl.clock.Now(),
		Note: pbNote,
	})

	// --- PC: post-processing, quantification ---
	postModel := quant.DefaultCostModel()
	var pbOutBytes int64
	for _, set := range outputs {
		for _, c := range set {
			pbOutBytes += int64(len(c.Seq)) + int64(len(c.ID)) + 2
		}
	}
	pcBackend, pcFallback := pl.routeBackend(cfg.Backends.PC)
	pcScope := pl.beginStage("PC")
	pcScope.attr(obs.AttrNodes, "1")
	if pl.cutoffReached() {
		return pl.cutoffCancel(rep, pcScope, "PC", "", pl.clock.Now(), pa, pb)
	}
	pc, pcTransferNote, err := pl.nextStage("PC", pb, 1, pcBackend, func() (string, error) {
		if cfg.Pattern != DistributedDynamic {
			return cfg.InstanceType, nil
		}
		it, err := ChooseInstanceType(pl.provider, postModel.MemoryGB(fs), 8)
		if err != nil {
			return "", err
		}
		return it.Name, nil
	}, pbOutBytes)
	if err != nil {
		err = fmt.Errorf("core: launching PC: %w", err)
		pcScope.fail(err)
		pl.teardown(pa, pb)
		rep.finish(pl)
		return rep, err
	}
	pcScope.attr(obs.AttrInstanceType, pc.instanceName())
	pcStart := pl.clock.Now()
	pcUM, err := pl.newRunner(pc, "PC")
	if err != nil {
		return rep, err
	}
	pcWork := func(env *pilot.ExecEnv) (pilot.WorkResult, error) {
		// Merge each assembler's multi-k sets, then the MAMP union
		// (optionally with cross-assembler consensus validation).
		var all [][]seq.FastaRecord
		for _, name := range cfg.Assemblers {
			var sets [][]seq.FastaRecord
			for _, k := range kmers {
				sets = append(sets, outputs[asmKey{name, k}])
			}
			perTool, _ := merge.Merge(sets, merge.DefaultOptions())
			rep.PerAssembler[name] = perTool
			all = append(all, perTool)
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
		if err := stageFasta(env.Store, "post/transcripts.fa", final); err != nil {
			return pilot.WorkResult{}, err
		}
		q, err := quant.Quantify(final, cleaned.Reads, quant.DefaultOptions())
		if err != nil {
			return pilot.WorkResult{}, err
		}
		rep.Quant = q
		dur := postModel.Duration(fs, env.Slots)
		if cfg.ConditionB != nil {
			// Optional differential-expression step: clean and
			// quantify the second condition, then test — charged as
			// a second quantification pass.
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
			rows, err := diffexpr.Test(ids, ca, cb, diffexpr.DefaultOptions())
			if err != nil {
				return pilot.WorkResult{}, fmt.Errorf("differential expression: %w", err)
			}
			rep.DiffExpr = rows
			dur += postModel.Duration(fs, env.Slots)
		}
		return pilot.WorkResult{
			Duration:     dur,
			PeakMemoryGB: postModel.MemoryGB(fs),
		}, nil
	}
	pcCodec := unitCodec{
		encode: func(pilot.WorkResult) (json.RawMessage, error) {
			return json.Marshal(pcPayload{
				PerAssembler: rep.PerAssembler,
				Transcripts:  rep.Transcripts,
				MergeStats:   rep.MergeStats,
				Quant:        rep.Quant,
				QuantB:       rep.QuantB,
				DiffExpr:     rep.DiffExpr,
			})
		},
		replay: func(rec journal.Record, env *pilot.ExecEnv) (pilot.WorkResult, error) {
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
			return pilot.WorkResult{}, stageFasta(env.Store, "post/transcripts.fa", p.Transcripts)
		},
	}
	pcUnits, err := pcUM.Submit([]pilot.UnitDescription{{
		Name:  "postprocess",
		Slots: min(pc.cores(), 8),
		Rule:  sge.SingleNode,
		Retry: cfg.Retry.PC,
		Work:  pl.jr.unit("PC", "postprocess", pcWork, pcCodec),
	}})
	if err != nil {
		return rep, err
	}
	if err := pcUM.Run(); err != nil {
		return rep, err
	}
	if pl.canceledAtCutoff(pcUnits[0]) {
		return pl.cutoffCancel(rep, pcScope, "PC", pc.id(), pcStart, pa, pb, pc)
	}
	if st := pcUnits[0].State(); st != pilot.UnitDone {
		rep.Stages = append(rep.Stages, StageReport{Name: "PC", Pilot: pc.id(), Start: pcStart, End: pl.clock.Now(), Note: "FAILED"})
		err := fmt.Errorf("core: PC post-processing failed: %w", pcUnits[0].Err)
		pcScope.fail(err)
		pl.teardown(pa, pb, pc)
		rep.finish(pl)
		return rep, err
	}
	pcScope.end()
	rep.Stages = append(rep.Stages, StageReport{
		Name: "PC", Pilot: pc.id(), Start: pcStart, End: pl.clock.Now(),
		Note: rep.MergeStats.String() + pcTransferNote + pcFallback,
	})

	// --- Wrap up: terminate everything, bill, evaluate ---
	pl.teardown(pa, pb, pc)
	rep.Outcome = OutcomeComplete
	rep.finish(pl)

	if cfg.EvaluateAgainstTruth {
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

// kmerPlan resolves the multiple-k-mer plan.
func (pl *Pipeline) kmerPlan(ds *simdata.Dataset, st *preprocess.Stats) []int {
	if len(pl.cfg.Kmers) > 0 {
		return pl.cfg.Kmers
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
func (pl *Pipeline) assemblyNodes(kmers []int) int {
	if pl.cfg.AssemblyNodesOverride > 0 {
		return pl.cfg.AssemblyNodesOverride
	}
	return AssemblyNodesFor(kmers, pl.cfg.Assemblers, pl.cfg.NodesPerMPIJob, pl.cfg.ContrailNodes)
}

// stageExec is the execution vehicle for one pipeline stage: a
// VM-backed pilot (on-demand or spot), or a serverless function
// runner.
type stageExec struct {
	pilot *pilot.Pilot
	faas  *pilot.FunctionRunner
}

// id reports the vehicle's state-store ID for stage reports.
func (sx *stageExec) id() string {
	if sx.faas != nil {
		return sx.faas.ID()
	}
	return sx.pilot.ID
}

// store exposes the vehicle's shared filesystem (NFS on a cluster, an
// object store for functions).
func (sx *stageExec) store() *cluster.SharedStore {
	if sx.faas != nil {
		return sx.faas.Store()
	}
	return sx.pilot.Cluster.Store()
}

// cores reports the per-allocation core count units size their slot
// requests by: the node flavour's cores on a pilot, one for functions.
func (sx *stageExec) cores() int {
	if sx.faas != nil {
		return 1
	}
	return sx.pilot.Cluster.InstanceType().Cores
}

func (sx *stageExec) instanceName() string {
	if sx.faas != nil {
		return "serverless"
	}
	return sx.pilot.Cluster.InstanceType().Name
}

// unitRunner is the slice of the unit-execution contract the pipeline
// drives, satisfied by both *pilot.UnitManager and
// *pilot.FunctionRunner.
type unitRunner interface {
	SetObs(*obs.Obs)
	SetOnUnitDone(func(*pilot.Unit, vclock.Time))
	SetRetryBudget(*pilot.RetryBudget)
	SetCutoff(vclock.Time)
	Submit([]pilot.UnitDescription) ([]*pilot.Unit, error)
	Run() error
}

// newRunner builds the unit runner for a stage vehicle, wired into the
// run's observability, journal, retry-budget and cutoff hooks.
func (pl *Pipeline) newRunner(sx *stageExec, stage string) (unitRunner, error) {
	var r unitRunner
	if sx.faas != nil {
		r = sx.faas
	} else {
		um := pilot.NewUnitManager(pl.pm.Store(), pl.clock, pilot.RoundRobin)
		if err := um.AddPilots(sx.pilot); err != nil {
			return nil, err
		}
		r = um
	}
	r.SetObs(pl.o)
	r.SetOnUnitDone(pl.jr.onUnitDone(stage))
	r.SetRetryBudget(pl.budget)
	r.SetCutoff(pl.cutoff)
	return r, nil
}

// cutoffReached reports whether the virtual clock crossed the run's
// cutoff (deadline or cancellation point).
func (pl *Pipeline) cutoffReached() bool {
	return pl.cutoff > 0 && pl.clock.Now() >= pl.cutoff
}

// canceledAtCutoff reports whether a unit terminated via the cutoff
// path: the runners transition units to CANCELED (never FAILED) when
// an attempt would start past the cutoff, and nothing else cancels
// units inside a pipeline run.
func (pl *Pipeline) canceledAtCutoff(u *pilot.Unit) bool {
	return pl.cutoff > 0 && u.State() == pilot.UnitCanceled
}

// cutoffCancel ends a run at its cutoff: the stage is closed with the
// outcome, a cancelled record is journaled (so a resume replays the
// same truncation byte-for-byte), every vehicle tears down, and the
// truncated report is stamped and returned with a *CutoffError.
func (pl *Pipeline) cutoffCancel(rep *Report, sc *stageScope, stage, pilotID string,
	start vclock.Time, sxs ...*stageExec) (*Report, error) {

	// A preempted unit leaves the clock where its attempt started;
	// the run still waited until the cutoff expired before giving up.
	if pl.clock.Now() < pl.cutoff {
		pl.clock.AdvanceTo(pl.cutoff)
	}
	now := pl.clock.Now()
	err := &CutoffError{Outcome: pl.cutoffOutcome, At: now, Cutoff: pl.cutoff}
	rep.Stages = append(rep.Stages, StageReport{
		Name: stage, Pilot: pilotID, Start: start, End: now, Note: string(pl.cutoffOutcome),
	})
	sc.fail(err)
	pl.jr.cancelled(string(pl.cutoffOutcome))
	pl.teardown(sxs...)
	rep.Outcome = pl.cutoffOutcome
	rep.finish(pl)
	return rep, err
}

// routeBackend applies the circuit breaker to a stage's requested
// backend: a tripped spot or serverless circuit routes the stage to
// the on-demand fallback. It returns the effective backend and a
// human-readable note suffix when a fallback happened.
func (pl *Pipeline) routeBackend(backend cloud.Backend) (cloud.Backend, string) {
	cb := pl.provider.Breaker()
	if cb == nil || backend == cloud.OnDemand || cb.Allow(backend) {
		return backend, ""
	}
	return cloud.OnDemand, fmt.Sprintf("; %s breaker open, on-demand fallback", backend)
}

// firstStage provisions the workflow's first execution vehicle: a
// pilot on the requested purchasing backend, or a function runner when
// the stage is serverless.
func (pl *Pipeline) firstStage(name, itype string, nodes int, backend cloud.Backend) (*stageExec, error) {
	if backend == cloud.Serverless {
		fr, err := pilot.NewFunctionRunner(pl.provider, pl.pm.Store(), name)
		if err != nil {
			return nil, err
		}
		return &stageExec{faas: fr}, nil
	}
	p, err := pl.pm.SubmitPilot(pilot.PilotDescription{
		Name: name, InstanceType: itype, Nodes: nodes, Backend: backend,
		// Under S2, VM lifetime belongs to the scheme, not the pilot.
		RetainVMs: pl.cfg.Scheme == S2 && pl.cfg.Pattern != Conventional,
	})
	if err != nil {
		return nil, err
	}
	return &stageExec{pilot: p}, nil
}

// release completes a finished stage's execution vehicle. When
// terminateVMs is set, VMs it retained under S2 are shut down too —
// the boundary into a serverless stage, where nothing will adopt them.
func (pl *Pipeline) release(sx *stageExec, terminateVMs bool) error {
	if sx.faas != nil {
		return sx.faas.Complete()
	}
	vms := sx.pilot.Cluster.VMs()
	if err := pl.pm.CompletePilot(sx.pilot); err != nil {
		return err
	}
	if terminateVMs {
		pl.provider.Terminate(vms...)
	}
	return nil
}

// nextStage provisions the execution vehicle for the next stage
// according to the matching scheme, workflow pattern and requested
// backend, migrating `stageBytes` of data from the previous stage's
// store. It returns the vehicle and a human-readable note about any
// data transfer performed.
func (pl *Pipeline) nextStage(name string, prev *stageExec, nodes int, backend cloud.Backend,
	chooseType func() (string, error), stageBytes int64) (*stageExec, string, error) {

	if pl.cfg.Pattern == Conventional {
		// Single-pilot workflow: reuse the original pilot untouched.
		return prev, "", nil
	}
	prevStore := prev.store()
	if backend == cloud.Serverless {
		// The stage runs as functions: its data moves to the object
		// store, and any VMs the previous stage retained have no
		// successor to adopt them, so they terminate now.
		fr, err := pilot.NewFunctionRunner(pl.provider, pl.pm.Store(), name)
		if err != nil {
			return nil, "", err
		}
		d := pl.provider.InterNodeTransfer(stageBytes)
		pl.clock.Advance(d)
		prevStore.CopyAll(fr.Store())
		if err := pl.release(prev, true); err != nil {
			return nil, "", err
		}
		return &stageExec{faas: fr}, fmt.Sprintf("; %v transfer to object store", d), nil
	}
	if pl.cfg.Scheme == S2 && prev.pilot != nil {
		// Reuse the previous pilot's VMs; grow or shrink to size.
		if err := pl.pm.CompletePilot(prev.pilot); err != nil {
			return nil, "", err
		}
		vms := prev.pilot.Cluster.VMs()
		if len(vms) > nodes {
			// Terminate the excess (sample run: "other 35 VMs, which
			// are not necessary for PC, are terminated").
			pl.provider.Terminate(vms[nodes:]...)
			vms = vms[:nodes]
		} else if len(vms) < nodes {
			// Growth buys on the stage's requested backend; the adopted
			// nodes keep whichever market they were booted on.
			extra, err := pl.provider.RunInstancesOn(prev.pilot.Cluster.InstanceType().Name, nodes-len(vms), backend)
			if err != nil {
				return nil, "", err
			}
			pl.provider.WaitRunning(extra)
			pl.clock.Advance(cluster.DefaultOptions().ConfigPerNode)
			vms = append(vms, extra...)
		}
		p, err := pl.pm.SubmitPilot(pilot.PilotDescription{Name: name, ReuseVMs: vms})
		if err != nil {
			return nil, "", err
		}
		// Shared filesystem persists across pilots under S2: no
		// transfer, just carry the files over.
		prevStore.CopyAll(p.Cluster.Store())
		return &stageExec{pilot: p}, "", nil
	}
	// S1 — or the previous stage ran serverless, leaving no VMs to
	// reuse: boot fresh nodes on the requested backend.
	itype, err := chooseType()
	if err != nil {
		return nil, "", err
	}
	p, err := pl.pm.SubmitPilot(pilot.PilotDescription{
		Name: name, InstanceType: itype, Nodes: nodes, Backend: backend,
		RetainVMs: pl.cfg.Scheme == S2,
	})
	if err != nil {
		return nil, "", err
	}
	// Migrate data between the old and new stages' filesystems, then
	// release the previous stage's resources.
	d := pl.provider.InterNodeTransfer(stageBytes)
	pl.clock.Advance(d)
	prevStore.CopyAll(p.Cluster.Store())
	if err := pl.release(prev, false); err != nil {
		return nil, "", err
	}
	return &stageExec{pilot: p}, fmt.Sprintf("; %v inter-pilot data transfer", d), nil
}

// teardown completes every stage vehicle and terminates all VMs.
func (pl *Pipeline) teardown(sxs ...*stageExec) {
	for _, sx := range sxs {
		if sx == nil {
			continue
		}
		if sx.faas != nil {
			_ = sx.faas.Complete()
		} else if sx.pilot != nil {
			_ = pl.pm.CompletePilot(sx.pilot)
		}
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

// stageFasta renders records at 80 columns into a buffer of exactly
// their FASTA length and hands the blob to the store.
func stageFasta(store *cluster.SharedStore, path string, recs []seq.FastaRecord) error {
	buf := bytes.NewBuffer(make([]byte, 0, seq.FastaSize(recs, 80)))
	if err := seq.WriteFasta(buf, recs, 80); err != nil {
		return err
	}
	return store.Put(path, buf.Bytes())
}

// asmOutput threads an assembly unit's identity and result through
// the pilot framework's opaque output slot.
type asmOutput struct {
	name string
	k    int
	res  assembler.Result
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

// dropNReads filters reads containing ambiguous bases.
func dropNReads(reads []seq.Read) []seq.Read {
	out := make([]seq.Read, 0, len(reads))
	for _, r := range reads {
		if seq.CountN(r.Seq) == 0 {
			out = append(out, r)
		}
	}
	return out
}
