package main

import (
	"bytes"
	"fmt"
	"io"
	"slices"
	"strings"

	"rnascale/internal/assembler"
	_ "rnascale/internal/assembler/all"
	"rnascale/internal/cloud"
	"rnascale/internal/core"
	"rnascale/internal/dbg"
	"rnascale/internal/detonate"
	"rnascale/internal/kernelbench"
	"rnascale/internal/mapreduce"
	"rnascale/internal/merge"
	"rnascale/internal/mpi"
	"rnascale/internal/obs"
	"rnascale/internal/preprocess"
	"rnascale/internal/quant"
	"rnascale/internal/seq"
	"rnascale/internal/simdata"
)

// pipelineSpec is a pipeline workload: a dataset profile and the
// assemblers the run fans out to.
type pipelineSpec struct {
	profile    func() simdata.Profile
	assemblers []string
}

var (
	mampBGlumae = pipelineSpec{profile: simdata.BGlumae, assemblers: []string{"ray", "abyss", "contrail"}}
	mpiPCrispa  = pipelineSpec{profile: simdata.PCrispa, assemblers: []string{"ray", "abyss"}}
)

// dataset makes the workload's input from the seed. Seed 0 is the
// profile's own dataset (what `rnapipe -profile <name>` runs); any
// other seed hands the pipeline the same fragments in a seed-chosen
// order. The work is then the same for every seed, which keeps host
// time and allocation comparable across them: re-seeding the genome
// moved both by ±10% from seed to seed, and even redrawing only the
// reads moved host time by ±5%, as much as the regressions the bounds
// are meant to catch.
func dataset(p simdata.Profile, seed int64) (*simdata.Dataset, error) {
	ds, err := simdata.Generate(p)
	if err != nil || seed == 0 {
		return ds, err
	}
	reads, stride := ds.Reads.Reads, 1
	if ds.Reads.Paired {
		stride = 2 // mates stay adjacent
	}
	r := rng{s: uint64(seed)}
	for i := len(reads)/stride - 1; i > 0; i-- {
		j := r.intn(i + 1)
		for m := 0; m < stride; m++ {
			reads[i*stride+m], reads[j*stride+m] = reads[j*stride+m], reads[i*stride+m]
		}
	}
	return ds, nil
}

// config is the run configuration: the paper's sample-run defaults
// with the workload's assemblers, scored against ground truth.
func (s pipelineSpec) config(seed int64) core.Config {
	cfg := core.DefaultConfig()
	cfg.Assemblers = s.assemblers
	cfg.EvaluateAgainstTruth = true
	cfg.FaultSeed ^= uint64(seed)
	cfg.Obs = obs.New()
	return cfg
}

// measurePipeline times back-to-back core.Run calls on one dataset.
func measurePipeline(e *env, s pipelineSpec) (measured, error) {
	var m measured
	var ds *simdata.Dataset
	var err error
	if m.setupS, err = medianSetup(9, func() (err error) {
		ds, err = dataset(e.profile(s.profile()), e.seed)
		return err
	}); err != nil {
		return m, err
	}
	u0 := readUsage()
	for n := 0; e.more(n, m.wallMS); n++ {
		cfg := s.config(e.seed)
		start := now()
		rep, err := core.Run(ds, cfg)
		ms := sinceMS(start)
		m.opMS = append(m.opMS, ms)
		m.wallMS += ms
		e.check.run(rep, err)
	}
	m.since(u0)
	return m, nil
}

// tracePipeline makes one traced pass over a pipeline workload: the
// run itself, then the same stages re-enacted call by call from here
// so each module gets its own span, then the kernels under them.
func tracePipeline(e *env, tr *tracer, s pipelineSpec) (map[string]float64, error) {
	v := map[string]float64{}
	root := tr.begin(0, "bench", e.workload)
	defer tr.end(root)

	var ds *simdata.Dataset
	var err error
	v["simdata.generate_ms"] = tr.timed(root, "simdata", "generate", func() { ds, err = dataset(e.profile(s.profile()), e.seed) })
	if err != nil {
		return nil, err
	}
	v["simdata.reads"] = float64(len(ds.Reads.Reads))

	cfg := s.config(e.seed)
	var rep *core.Report
	v["core.run_ms"] = tr.timed(root, "core", "run", func() { rep, err = core.Run(ds, cfg) })
	v["bench.traced_op_ms"] = v["core.run_ms"]
	e.check.run(rep, err)
	if err != nil {
		return nil, err
	}
	reportCounts(v, rep)
	exportObs(v, tr, root, cfg.Obs)
	if err := planner(v, tr, root, ds, s.config(e.seed)); err != nil {
		return nil, err
	}

	staged, cleaned, err := stagePipeline(v, tr, root, ds, cfg, rep.KmersUsed)
	if err != nil {
		return nil, err
	}
	// The re-enactment must assemble what the pipeline assembled, or
	// its spans time something else.
	want, err := fastaSHA256(rep.Transcripts)
	if err != nil {
		return nil, err
	}
	if staged != want {
		err = fmt.Errorf("stage-by-stage transcripts %s differ from the pipeline's %s", staged, want)
	}
	e.check.count("staged re-enactment", err)
	if err := kernels(v, tr, root, cleaned, cfg, rep.KmersUsed); err != nil {
		return nil, err
	}
	return v, nil
}

// reportCounts records the orchestration counts of a finished run.
func reportCounts(v map[string]float64, rep *core.Report) {
	v["core.virtual_ttc_s"] = rep.TTC.Seconds()
	v["core.cost_usd"] = rep.CostUSD
	v["pilot.events"] = float64(len(rep.Events))
	for _, line := range rep.Bill {
		v["cloud.instance_hours"] += line.InstanceHours
	}
}

// countingWriter discards what it is given and counts the bytes.
type countingWriter struct{ n int64 }

func (w *countingWriter) Write(p []byte) (int, error) {
	w.n += int64(len(p))
	return len(p), nil
}

// exportObs times the opt-in exports of a finished run's spans and
// metrics.
func exportObs(v map[string]float64, tr *tracer, parent int, o *obs.Obs) {
	var trace countingWriter
	v["obs.chrome_trace_ms"] = tr.timed(parent, "obs", "chrome_trace", func() { _ = o.Tracer.WriteChromeTrace(&trace) })
	v["obs.prometheus_ms"] = tr.timed(parent, "obs", "prometheus", func() { _ = o.Metrics.WritePrometheus(io.Discard) })
	v["obs.spans"] = float64(o.Tracer.Len())
	v["obs.trace_bytes"] = float64(trace.n)
}

// planner times the closed-form predictor the gateway prices
// admissions with, and the backend frontier sweep built on it.
func planner(v map[string]float64, tr *tracer, parent int, ds *simdata.Dataset, cfg core.Config) error {
	var err error
	v["core.predict_ms"] = tr.timed(parent, "core", "predict", func() { _, err = core.Predict(ds, cfg) })
	if err != nil {
		return err
	}
	v["core.frontier_ms"] = tr.timed(parent, "core", "frontier", func() {
		candidates := core.ExpandBackends(cfg, nil)
		v["core.frontier_candidates"] = float64(len(candidates))
		_, err = core.Frontier(ds, candidates)
	})
	return err
}

// stagePipeline re-enacts Pipeline.Run's real work stage by stage —
// preprocess, every (assembler, k) job, merge, quantify, evaluate —
// with the arguments the pipeline passes, and returns the SHA-256 of
// the final transcripts and the cleaned reads they were built from.
func stagePipeline(v map[string]float64, tr *tracer, parent int, ds *simdata.Dataset, cfg core.Config, kmers []int) (string, []seq.Read, error) {
	sp := tr.begin(parent, "bench", "staged")
	defer tr.end(sp)

	var cleaned seq.ReadSet
	var stats preprocess.Stats
	v["preprocess.run_ms"] = tr.timed(sp, "preprocess", "run", func() { cleaned, stats = preprocess.Run(ds.Reads, cfg.Preprocess) })
	v["preprocess.reads_out"] = float64(stats.OutputReads)

	fs := ds.Profile.FullScale
	fs.SeqDataBytes = fs.PostPreprocessBytes
	var all [][]seq.FastaRecord
	for _, name := range cfg.Assemblers {
		a, err := assembler.Get(name)
		if err != nil {
			return "", nil, err
		}
		reads, nodes := cleaned.Reads, cfg.NodesPerMPIJob
		if name == "contrail" {
			reads, nodes = nFree(reads), cfg.ContrailNodes
		}
		var sets [][]seq.FastaRecord
		for _, k := range kmers {
			var res assembler.Result
			ms := tr.timed(sp, "assembler", fmt.Sprintf("%s.assemble.k%d", name, k), func() {
				res, err = a.Assemble(assembler.Request{
					Reads: reads, Params: assembler.Params{K: k, MinCoverage: cfg.MinCoverage},
					Nodes: nodes, CoresPerNode: cloud.C32XLarge.Cores, FullScale: fs,
				})
			})
			if err != nil {
				return "", nil, err
			}
			v["assembler."+name+".assemble_ms"] += ms
			v["assembler."+name+".contigs"] += float64(len(res.Contigs))
			if name != "contrail" && name != "trinity" {
				v["assembler."+name+".messages"] += float64(res.Messages)
				v["assembler."+name+".bytes_sent"] += float64(res.BytesSent)
			}
			sets = append(sets, res.Contigs)
		}
		v["merge.merge_ms"] += tr.timed(sp, "merge", "merge."+name, func() {
			perTool, _ := merge.Merge(sets, merge.DefaultOptions())
			all = append(all, perTool)
		})
	}
	var final []seq.FastaRecord
	v["merge.merge_ms"] += tr.timed(sp, "merge", "merge.all", func() { final, _ = merge.Merge(all, merge.DefaultOptions()) })
	v["merge.transcripts"] = float64(len(final))

	var q *quant.Result
	var err error
	v["quant.quantify_ms"] = tr.timed(sp, "quant", "quantify", func() { q, err = quant.Quantify(final, cleaned.Reads, quant.DefaultOptions()) })
	if err != nil {
		return "", nil, err
	}
	v["quant.mapping_rate"] = q.MappingRate()

	if cfg.EvaluateAgainstTruth {
		opts := detonate.DefaultOptions()
		opts.ReadBases = cleaned.TotalBases()
		v["detonate.evaluate_ms"] = tr.timed(sp, "detonate", "evaluate", func() { _, err = detonate.Evaluate(final, ds.Annotations, ds.Expression, opts) })
		if err != nil {
			return "", nil, err
		}
	}
	sha, err := fastaSHA256(final)
	return sha, cleaned.Reads, err
}

// nFree drops reads with ambiguous bases, as the pipeline does for
// Contrail.
func nFree(reads []seq.Read) []seq.Read {
	var out []seq.Read
	for _, r := range reads {
		if seq.CountN(r.Seq) == 0 {
			out = append(out, r)
		}
	}
	return out
}

// kernels times the shared kernels under the assemblers on the
// workload's own cleaned reads at the middle k of its plan, plus the
// two kernelbench kernels of the orchestration layer.
func kernels(v map[string]float64, tr *tracer, parent int, reads []seq.Read, cfg core.Config, kmers []int) error {
	sp := tr.begin(parent, "bench", "kernels")
	defer tr.end(sp)
	k := kmers[len(kmers)/2]

	var g *dbg.Graph
	var err error
	v["dbg.build_ms"] = tr.timed(sp, "dbg", "build", func() { g, err = dbg.Build(reads, k, 2) })
	if err != nil {
		return err
	}
	v["dbg.nodes"] = float64(g.Len())
	v["dbg.unitigs_ms"] = tr.timed(sp, "dbg", "unitigs", func() { v["dbg.unitigs"] = float64(len(g.Unitigs(2 * k))) })

	coder, err := seq.NewKmerCoder(k)
	if err != nil {
		return err
	}
	v["seq.count_distinct_ms"] = tr.timed(sp, "seq", "count_distinct", func() { coder.CountDistinct(reads) })
	v["seq.fastq_roundtrip_ms"] = tr.timed(sp, "seq", "fastq_roundtrip", func() {
		var buf bytes.Buffer
		if err = seq.WriteFastq(&buf, reads); err != nil {
			return
		}
		v["seq.fastq_bytes"] = float64(buf.Len())
		_, err = seq.ParseFastq(&buf)
	})
	if err != nil {
		return err
	}

	// The exchange pattern of the distributed DBG build: every rank
	// sends every other rank its share of the k-mers each round.
	const ranks, rounds = 8, 256
	var res mpi.Result
	v["mpi.alltoall_ms"] = tr.timed(sp, "mpi", "alltoall", func() {
		res, err = mpi.Run(mpi.DefaultConfig(ranks), func(c *mpi.Comm) error {
			for round := 0; round < rounds; round++ {
				payloads := make([]any, c.Size())
				sizes := make([]int64, c.Size())
				for d := range payloads {
					payloads[d] = reads[(c.Rank()*rounds+round)%len(reads)].Seq
					sizes[d] = int64(len(reads)) * int64(len(reads[0].Seq)) / ranks / ranks
				}
				c.AlltoAll(payloads, sizes)
			}
			return nil
		})
	})
	if err != nil {
		return err
	}
	v["mpi.messages"] = float64(res.Stats.Messages)

	if slices.Contains(cfg.Assemblers, "contrail") {
		if err := kmerCountJob(v, tr, sp, nFree(reads), k, cfg.ContrailNodes); err != nil {
			return err
		}
	}
	for _, kn := range kernelbench.Kernels() {
		if kn.Name == "vclock.slotpool" || kn.Name == "cloud.spot_walk" {
			op := kn.Setup()
			layer, name, _ := strings.Cut(kn.Name, ".")
			v[kn.Name+"_ms"] = tr.timed(sp, layer, name, func() {
				for i := 0; i < kn.Iters; i++ {
					op()
				}
			})
		}
	}
	return nil
}

// kmerCountJob runs one MapReduce job — count canonical k-mers, the
// first thing Contrail does with its reads — on an engine the size of
// a Contrail job.
func kmerCountJob(v map[string]float64, tr *tracer, parent int, reads []seq.Read, k, workers int) error {
	cfg := mapreduce.DefaultConfig(workers)
	cfg.SplitBytes = 64 << 10 // the scaled reads would fit one HDFS block: split them so every worker maps
	engine, err := mapreduce.NewEngine(cfg)
	if err != nil {
		return err
	}
	input := make([]mapreduce.KV, len(reads))
	for i, r := range reads {
		input[i] = mapreduce.KV{Key: r.ID, Value: string(r.Seq)}
	}
	sum := func(values []string) string {
		total := 0
		for _, s := range values {
			n := 0
			fmt.Sscan(s, &n)
			total += n
		}
		return fmt.Sprint(total)
	}
	job := mapreduce.Job{
		Name: "bench-kmercount",
		Map: func(kv mapreduce.KV, emit func(mapreduce.KV)) {
			for i := 0; i+k <= len(kv.Value); i++ {
				w := kv.Value[i : i+k]
				if rc := string(seq.ReverseComplement([]byte(w))); rc < w {
					w = rc
				}
				emit(mapreduce.KV{Key: w, Value: "1"})
			}
		},
		Combine: func(_ string, values []string) []string { return []string{sum(values)} },
		Reduce: func(key string, values []string, emit func(mapreduce.KV)) {
			emit(mapreduce.KV{Key: key, Value: sum(values)})
		},
	}
	var res mapreduce.Result
	v["mapreduce.kmercount_ms"] = tr.timed(parent, "mapreduce", "kmercount", func() { res, err = engine.Run(job, input) })
	if err != nil {
		return err
	}
	v["mapreduce.shuffle_bytes"] = float64(res.ShuffleBytes)
	v["mapreduce.map_tasks"] = float64(res.MapTasks)
	return nil
}
