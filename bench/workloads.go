package main

import (
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"syscall"

	"rnascale/internal/simdata"
)

// workload is one set of inputs the benchmark runs. measure is the
// untraced run behind the end-to-end metrics; layers is the traced run
// behind the per-layer metrics.
type workload struct {
	name string
	// why records the reason the workload exists (BENCHMARK.json and
	// bench/README.md carry the same line).
	why string
	// tailPct is the percentile op_tail_ms reports at full scale: the
	// highest with at least ten samples beyond it, 100 (the maximum)
	// where a run has too few operations for any.
	tailPct float64
	// maxOps caps the operations of a full-scale run (0: time alone
	// ends it); smokeOps is the fixed count at smoke scale.
	maxOps, smokeOps int
	measure          func(e *env) (measured, error)
	layers           func(e *env, tr *tracer) (map[string]float64, error)
}

var workloads = []workload{
	{
		name:    "mamp_bglumae",
		why:     "the paper's sample run (bglumae, Ray+ABySS+Contrail, S2, dynamic): Contrail/mapreduce is about two thirds of host time",
		tailPct: 100, smokeOps: 1,
		measure: func(e *env) (measured, error) { return measurePipeline(e, mampBGlumae) },
		layers:  func(e *env, tr *tracer) (map[string]float64, error) { return tracePipeline(e, tr, mampBGlumae) },
	},
	{
		name:    "mpi_pcrispa",
		why:     "same pipeline on a 3x larger genome with N bases and no Contrail: dbg/mpi/seq k-mer code does nearly all the work",
		tailPct: 100, smokeOps: 1,
		measure: func(e *env) (measured, error) { return measurePipeline(e, mpiPCrispa) },
		layers:  func(e *env, tr *tracer) (map[string]float64, error) { return tracePipeline(e, tr, mpiPCrispa) },
	},
	{
		name:    "replay_bglumae",
		why:     "verify and resume a complete journal: journal reads and the bare orchestration skeleton, zero assembler work",
		tailPct: 80, smokeOps: 3,
		measure: measureReplay,
		layers:  traceReplay,
	},
	{
		name:    "gateway_burst",
		why:     "closed loop of 2 clients submitting cheapest runs over HTTP: journal writes, admission pricing, queue and HTTP on the latency path",
		tailPct: 95,
		// The gateway keeps every run it has finished, so its peak RSS
		// grows with the number of submissions: capping the count keeps
		// a faster gateway from reading as a memory regression.
		maxOps: 800, smokeOps: 20,
		measure: measureGateway,
		layers:  traceGateway,
	},
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// env is what one run of one workload is given.
type env struct {
	workload string
	seed     int64
	// seconds is how long the measured phase keeps starting
	// operations; maxOps, when >0, also caps how many it starts.
	seconds float64
	maxOps  int
	smoke   bool
	// workDir holds journals and server state; inside the checkout,
	// removed when the run ends.
	workDir string
	check   *checker
}

// more reports whether the measured phase should start operation n
// (0-based) given the host milliseconds measured so far.
func (e *env) more(n int, elapsedMS float64) bool {
	if e.maxOps > 0 && n >= e.maxOps {
		return false
	}
	return n == 0 || elapsedMS < e.seconds*1000
}

// profile swaps in the tiny dataset at smoke scale.
func (e *env) profile(full simdata.Profile) simdata.Profile {
	if e.smoke {
		return simdata.Tiny()
	}
	return full
}

func (e *env) path(name string) string { return filepath.Join(e.workDir, name) }

// measured is the raw outcome of an untraced run.
type measured struct {
	setupS  float64
	opMS    []float64 // host ms of each operation, in order
	wallMS  float64   // host ms the operations took together (≠ Σ opMS for concurrent clients)
	allocMB float64   // TotalAlloc growth over the measured phase
	cpuS    float64   // user+system CPU seconds of the process over the measured phase
	// costOps is how many operations allocMB and cpuS are shared by,
	// when that is more than the timed ones (the gateway's rejected
	// submissions cost too); 0 means len(opMS).
	costOps int
	// extra lines for the human-readable report, per metric name.
	notes map[string]string
}

// endToEndValues turns a measured run into the end-to-end metrics,
// plus a note per metric for the human-readable report.
func (m measured) endToEndValues(w workload, smoke bool) (map[string]float64, map[string]string, error) {
	rss, err := peakRSSMB()
	if err != nil {
		return nil, nil, err
	}
	costOps := float64(len(m.opMS))
	if m.costOps > 0 {
		costOps = float64(m.costOps)
	}
	tail := w.tailPct
	if smoke {
		tail = highestPercentile(len(m.opMS))
	}
	vals := map[string]float64{
		"setup_s":         m.setupS,
		"op_p50_ms":       median(m.opMS),
		"op_tail_ms":      percentile(m.opMS, tail),
		"ops_per_s":       float64(len(m.opMS)) / (m.wallMS / 1000),
		"cpu_s_per_op":    m.cpuS / costOps,
		"alloc_mb_per_op": m.allocMB / costOps,
		"peak_rss_mb":     rss,
	}
	for name, v := range vals {
		if math.IsNaN(v) || math.IsInf(v, 0) || v <= 0 {
			return nil, nil, fmt.Errorf("%s: metric %s = %v; every end-to-end metric must be a positive number", w.name, name, v)
		}
	}
	notes := map[string]string{
		"op_p50_ms":  fmt.Sprintf(" n=%d min=%.4g max=%.4g", len(m.opMS), percentile(m.opMS, 0), percentile(m.opMS, 100)),
		"op_tail_ms": fmt.Sprintf(" p%g n=%d beyond=%d", tail, len(m.opMS), int(float64(len(m.opMS))*(100-tail)/100)),
	}
	for name, note := range m.notes {
		notes[name] += note
	}
	return vals, notes, nil
}

// usage is the process's cumulative allocation and CPU time; the
// measured phase reports the growth between two readings.
type usage struct{ allocMB, cpuS float64 }

func readUsage() usage {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		panic(err) // RUSAGE_SELF with a valid pointer cannot fail
	}
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return usage{allocMB: float64(ms.TotalAlloc) / 1e6, cpuS: tv(ru.Utime) + tv(ru.Stime)}
}

// since charges the growth from an earlier reading to the run.
func (m *measured) since(u0 usage) {
	u := readUsage()
	m.allocMB, m.cpuS = u.allocMB-u0.allocMB, u.cpuS-u0.cpuS
}

// medianSetup repeats an idempotent set-up step n times and reports
// the median host seconds, so a sub-second set-up is not one noisy
// sample.
func medianSetup(n int, step func() error) (float64, error) {
	var secs []float64
	for i := 0; i < n; i++ {
		start := now()
		if err := step(); err != nil {
			return 0, err
		}
		secs = append(secs, sinceMS(start)/1000)
	}
	return median(secs), nil
}

// copyFile copies src to dst through the kernel (the untimed "fresh
// copy of the journal" before each replay must not show up in
// alloc_mb_per_op).
func copyFile(src, dst string) error {
	in, err := os.Open(src)
	if err != nil {
		return err
	}
	defer in.Close()
	out, err := os.Create(dst)
	if err != nil {
		return err
	}
	if _, err := io.Copy(out, in); err != nil {
		out.Close()
		return err
	}
	return out.Close()
}
