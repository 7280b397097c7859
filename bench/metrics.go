package main

import (
	"fmt"
	"os"
	"strconv"
	"strings"
)

// metricSpec declares one metric the benchmark emits. BENCHMARK.json
// at the repo root lists the same names, units, directions and bounds
// (the self-test holds the two together).
type metricSpec struct {
	Name   string
	Unit   string
	Better string
	// Bound is the share of the baseline by which an end-to-end
	// metric may worsen before -compare fails; per-layer metrics have
	// none.
	Bound float64
	// Exact marks a count that repeats exactly for a seed; -compare
	// flags any difference.
	Exact bool
}

// endToEnd is measured with tracing off and emitted by every
// workload. All values are HOST time or host memory: the simulator's
// own cost, which optimisation drives down. The virtual-time results
// (TTC, cost) are not metrics but part of the output check, because
// they must not move at all.
//
// The time bounds are the widest the contract allows because the
// sandbox demands it: with identical code and inputs, ten-run medians
// taken half an hour apart differed by 8–19%, and the quartile spread
// within ten runs was 4–10%. Allocation repeats to 0.05% on the
// pipelines and 1.7% on the gateway (polls vary), hence its tight bound.
var endToEnd = []metricSpec{
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25},
	{Name: "op_p50_ms", Unit: "ms", Better: "lower", Bound: 0.25},
	{Name: "op_tail_ms", Unit: "ms", Better: "lower", Bound: 0.25},
	{Name: "ops_per_s", Unit: "1/s", Better: "higher", Bound: 0.25},
	{Name: "cpu_s_per_op", Unit: "s", Better: "lower", Bound: 0.25},
	{Name: "alloc_mb_per_op", Unit: "MB", Better: "lower", Bound: 0.05},
	{Name: "peak_rss_mb", Unit: "MB", Better: "lower", Bound: 0.20},
}

// perLayer comes from the traced run. Names are <module>.<what>; a
// workload that never enters a module reports 0 for it (so "no
// mapreduce span on mpi_pcrispa" reads mapreduce.* = 0).
var perLayer = []metricSpec{
	{Name: "bench.traced_op_ms", Unit: "ms", Better: "lower"},
	{Name: "bench.spans", Unit: "count", Better: "lower"},

	{Name: "simdata.generate_ms", Unit: "ms", Better: "lower"},
	{Name: "simdata.reads", Unit: "count", Better: "higher", Exact: true},
	{Name: "preprocess.run_ms", Unit: "ms", Better: "lower"},
	{Name: "preprocess.reads_out", Unit: "count", Better: "higher", Exact: true},

	{Name: "assembler.ray.assemble_ms", Unit: "ms", Better: "lower"},
	{Name: "assembler.ray.contigs", Unit: "count", Better: "higher", Exact: true},
	{Name: "assembler.ray.messages", Unit: "count", Better: "lower", Exact: true},
	{Name: "assembler.ray.bytes_sent", Unit: "bytes", Better: "lower", Exact: true},
	{Name: "assembler.abyss.assemble_ms", Unit: "ms", Better: "lower"},
	{Name: "assembler.abyss.contigs", Unit: "count", Better: "higher", Exact: true},
	{Name: "assembler.abyss.messages", Unit: "count", Better: "lower", Exact: true},
	{Name: "assembler.abyss.bytes_sent", Unit: "bytes", Better: "lower", Exact: true},
	{Name: "assembler.contrail.assemble_ms", Unit: "ms", Better: "lower"},
	{Name: "assembler.contrail.contigs", Unit: "count", Better: "higher", Exact: true},
	{Name: "assembler.trinity.assemble_ms", Unit: "ms", Better: "lower"},
	{Name: "assembler.trinity.contigs", Unit: "count", Better: "higher", Exact: true},

	{Name: "mapreduce.kmercount_ms", Unit: "ms", Better: "lower"},
	{Name: "mapreduce.shuffle_bytes", Unit: "bytes", Better: "lower", Exact: true},
	{Name: "mapreduce.map_tasks", Unit: "count", Better: "lower", Exact: true},
	{Name: "dbg.build_ms", Unit: "ms", Better: "lower"},
	{Name: "dbg.unitigs_ms", Unit: "ms", Better: "lower"},
	{Name: "dbg.nodes", Unit: "count", Better: "higher", Exact: true},
	{Name: "dbg.unitigs", Unit: "count", Better: "higher", Exact: true},
	{Name: "mpi.alltoall_ms", Unit: "ms", Better: "lower"},
	{Name: "mpi.messages", Unit: "count", Better: "lower", Exact: true},
	{Name: "seq.count_distinct_ms", Unit: "ms", Better: "lower"},
	{Name: "seq.fastq_roundtrip_ms", Unit: "ms", Better: "lower"},
	{Name: "seq.fastq_bytes", Unit: "bytes", Better: "lower", Exact: true},

	{Name: "merge.merge_ms", Unit: "ms", Better: "lower"},
	{Name: "merge.transcripts", Unit: "count", Better: "higher", Exact: true},
	{Name: "quant.quantify_ms", Unit: "ms", Better: "lower"},
	{Name: "quant.mapping_rate", Unit: "ratio", Better: "higher"},
	{Name: "detonate.evaluate_ms", Unit: "ms", Better: "lower"},

	{Name: "core.run_ms", Unit: "ms", Better: "lower"},
	{Name: "core.resume_ms", Unit: "ms", Better: "lower"},
	{Name: "core.units_replayed", Unit: "count", Better: "higher", Exact: true},
	{Name: "core.units_executed", Unit: "count", Better: "lower", Exact: true},
	{Name: "core.predict_ms", Unit: "ms", Better: "lower"},
	{Name: "core.frontier_ms", Unit: "ms", Better: "lower"},
	{Name: "core.frontier_candidates", Unit: "count", Better: "higher", Exact: true},
	{Name: "core.virtual_ttc_s", Unit: "virtual_s", Better: "lower", Exact: true},
	{Name: "core.cost_usd", Unit: "USD", Better: "lower", Exact: true},
	{Name: "pilot.events", Unit: "count", Better: "lower", Exact: true},
	{Name: "cloud.instance_hours", Unit: "hours", Better: "lower", Exact: true},
	{Name: "cloud.spot_walk_ms", Unit: "ms", Better: "lower"},
	{Name: "vclock.slotpool_ms", Unit: "ms", Better: "lower"},

	{Name: "journal.write_ms", Unit: "ms", Better: "lower"},
	{Name: "journal.fsyncs", Unit: "count", Better: "lower", Exact: true},
	{Name: "journal.records", Unit: "count", Better: "lower", Exact: true},
	{Name: "journal.bytes", Unit: "bytes", Better: "lower", Exact: true},
	{Name: "journal.open_ms", Unit: "ms", Better: "lower"},
	{Name: "journal.verify_ms", Unit: "ms", Better: "lower"},
	{Name: "journal.run_journal_bytes_per_run", Unit: "bytes", Better: "lower"},
	{Name: "journal.event_log_bytes_per_run", Unit: "bytes", Better: "lower"},
	{Name: "journal.segments", Unit: "count", Better: "lower"},

	{Name: "obs.chrome_trace_ms", Unit: "ms", Better: "lower"},
	{Name: "obs.prometheus_ms", Unit: "ms", Better: "lower"},
	{Name: "obs.spans", Unit: "count", Better: "lower", Exact: true},
	{Name: "obs.trace_bytes", Unit: "bytes", Better: "lower", Exact: true},

	{Name: "gateway.submit_p50_ms", Unit: "ms", Better: "lower"},
	{Name: "gateway.reject_p50_ms", Unit: "ms", Better: "lower"},
	{Name: "gateway.poll_p50_ms", Unit: "ms", Better: "lower"},
	{Name: "gateway.polls_per_run", Unit: "count", Better: "lower"},
	{Name: "gateway.queue_wait_mean_ms", Unit: "ms", Better: "lower"},
	{Name: "gateway.metrics_scrape_ms", Unit: "ms", Better: "lower"},
	{Name: "gateway.submit_done_p99_ms", Unit: "ms", Better: "lower"},
	{Name: "gateway.overhead_p50_ms", Unit: "ms", Better: "lower"},
}

// metric is one reported value; result is the object printed as the
// last line of a run's standard output.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// newResult fills every spec'd metric from vals; a metric the
// workload did not produce reads 0 (only per-layer metrics may). A
// value under a name no spec declares is a bug in the benchmark.
func newResult(specs []metricSpec, vals map[string]float64, attempted, failed int) (result, error) {
	r := result{Correct: failed == 0, Attempted: attempted, Failed: failed, Metrics: map[string]metric{}}
	for _, s := range specs {
		r.Metrics[s.Name] = metric{Value: vals[s.Name], Unit: s.Unit}
	}
	for name := range vals {
		if _, ok := r.Metrics[name]; !ok {
			return r, fmt.Errorf("metric %q is measured but not declared", name)
		}
	}
	return r, nil
}

// print lists every metric by name with its unit, direction and bound.
func (r result) print(specs []metricSpec, workload string, notes map[string]string) {
	for _, s := range specs {
		m := r.Metrics[s.Name]
		line := fmt.Sprintf("%-16s %-36s %14s %-9s better=%s", workload, s.Name, strconv.FormatFloat(m.Value, 'f', -1, 64), m.Unit, s.Better)
		if s.Bound > 0 {
			line += fmt.Sprintf(" bound=%g%%", s.Bound*100)
		}
		line += notes[s.Name]
		fmt.Println(strings.TrimRight(line, " "))
	}
	fmt.Printf("%-16s %-36s %14g %-9s attempted=%d failed=%d\n", workload, "failed_share", float64(r.Failed)/float64(max(r.Attempted, 1)), "ratio", r.Attempted, r.Failed)
}

// peakRSSMB reads the process's resident-set high-water mark.
func peakRSSMB() (float64, error) {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 64)
			if err != nil {
				return 0, fmt.Errorf("parsing VmHWM %q: %w", line, err)
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("no VmHWM line in /proc/self/status")
}
