package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
)

// resultsFile is <out>/results.json: one complete set of runs, with
// what is needed to judge whether two sets are comparable.
type resultsFile struct {
	Env       environment             `json:"env"`
	Workloads map[string]workloadRuns `json:"workloads"`
}

type environment struct {
	GoVersion  string  `json:"goVersion"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	NProc      int     `json:"nproc"`
	Seed       int64   `json:"seed"`
	Seconds    float64 `json:"seconds"`
	Scale      string  `json:"scale"`
	GitCommit  string  `json:"gitCommit"`
}

type workloadRuns struct {
	Untraced result `json:"untraced"`
	Traced   result `json:"traced"`
	// TraceOverheadPct is (traced − untraced) ÷ untraced host time of
	// the workload's operation: what recording spans costs.
	TraceOverheadPct float64 `json:"trace_overhead_pct"`
}

func gitCommit() string {
	out, err := exec.Command("git", "rev-parse", "HEAD").Output()
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(out))
}

// runAll runs every workload untraced, then traced, each run in a
// child process of this binary.
func runAll(o options) error {
	self, err := os.Executable()
	if err != nil {
		return err
	}
	file := resultsFile{
		Env: environment{
			GoVersion: runtime.Version(), GOMAXPROCS: runtime.GOMAXPROCS(0), NProc: runtime.NumCPU(),
			Seed: o.seed, Seconds: o.seconds, Scale: o.scale, GitCommit: gitCommit(),
		},
		Workloads: map[string]workloadRuns{},
	}
	failed := 0
	for _, w := range workloads {
		var runs workloadRuns
		for trace, res := range []*result{&runs.Untraced, &runs.Traced} {
			args := []string{"-workload", w.name, "-seed", fmt.Sprint(o.seed), "-seconds", fmt.Sprint(o.seconds),
				"-trace", fmt.Sprint(trace), "-scale", o.scale, "-out", o.out}
			if *res, err = runChild(self, args); err != nil {
				return fmt.Errorf("%s (trace %d): %w", w.name, trace, err)
			}
			failed += res.Failed
		}
		untraced := runs.Untraced.Metrics["op_p50_ms"].Value
		runs.TraceOverheadPct = (runs.Traced.Metrics["bench.traced_op_ms"].Value - untraced) / untraced * 100
		file.Workloads[w.name] = runs
	}
	fmt.Println()
	for _, w := range workloads {
		fmt.Printf("%-16s %-36s %14.2f %%\n", w.name, "trace_overhead_pct", file.Workloads[w.name].TraceOverheadPct)
	}
	data, err := json.MarshalIndent(file, "", "  ")
	if err != nil {
		return err
	}
	path := filepath.Join(o.out, "results.json")
	if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
		return err
	}
	fmt.Println("results:", path)
	if failed > 0 {
		return fmt.Errorf("%d operations failed", failed)
	}
	return nil
}

// runChild runs one workload in a child process, passes its report
// through, and parses the result object off its last line. A child
// that fails operations exits non-zero but still reports them.
func runChild(self string, args []string) (result, error) {
	var stdout bytes.Buffer
	cmd := exec.Command(self, args...)
	cmd.Stdout, cmd.Stderr = &stdout, os.Stderr
	runErr := cmd.Run()
	lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
	fmt.Println(strings.Join(lines[:len(lines)-1], "\n"))
	var res result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil || res.Metrics == nil {
		if runErr != nil {
			return res, runErr
		}
		return res, fmt.Errorf("no result object on the last line of output")
	}
	return res, nil
}

// printSelfTimes lists, per layer, the host time spent in its spans
// themselves rather than in the spans they caused.
func printSelfTimes(workload string, spans []span) {
	self := selfTimes(spans)
	layers := make([]string, 0, len(self))
	var total int64
	for layer, ns := range self {
		layers = append(layers, layer)
		total += ns
	}
	sort.Slice(layers, func(i, j int) bool { return self[layers[i]] > self[layers[j]] })
	for _, layer := range layers {
		fmt.Printf("%-16s self_time %-26s %14.3f ms %6.2f %%\n", workload, layer, float64(self[layer])/1e6, float64(self[layer])/float64(max(total, 1))*100)
	}
}

func readResults(path string) (resultsFile, error) {
	var f resultsFile
	data, err := os.ReadFile(path)
	if err != nil {
		return f, err
	}
	if err := json.Unmarshal(data, &f); err != nil {
		return f, fmt.Errorf("%s: %w", path, err)
	}
	return f, nil
}

// compareFiles prints, per workload and end-to-end metric, baseline
// and candidate, the relative difference and the bound, lists exact
// counts that differ, and fails when a difference exceeds its bound.
func compareFiles(basePath, candPath string) error {
	base, err := readResults(basePath)
	if err != nil {
		return err
	}
	cand, err := readResults(candPath)
	if err != nil {
		return err
	}
	fmt.Printf("baseline  %s: %+v\ncandidate %s: %+v\n\n", basePath, base.Env, candPath, cand.Env)
	var bad []string
	fmt.Printf("%-16s %-18s %14s %14s %9s %7s\n", "workload", "metric", "baseline", "candidate", "worse by", "bound")
	for _, w := range workloads {
		b, okB := base.Workloads[w.name]
		c, okC := cand.Workloads[w.name]
		if !okB || !okC {
			bad = append(bad, w.name+": missing from one file")
			continue
		}
		for _, s := range endToEnd {
			bv, cv := b.Untraced.Metrics[s.Name].Value, c.Untraced.Metrics[s.Name].Value
			worse := (cv - bv) / bv
			if s.Better == "higher" {
				worse = -worse
			}
			mark := ""
			if worse > s.Bound {
				mark = "  REGRESSION"
				bad = append(bad, fmt.Sprintf("%s %s worse by %.1f%% (bound %g%%)", w.name, s.Name, worse*100, s.Bound*100))
			}
			fmt.Printf("%-16s %-18s %14.6g %14.6g %+8.1f%% %6g%%%s\n", w.name, s.Name, bv, cv, worse*100, s.Bound*100, mark)
		}
		if failed := b.Untraced.Failed + b.Traced.Failed + c.Untraced.Failed + c.Traced.Failed; failed > 0 {
			bad = append(bad, fmt.Sprintf("%s: %d failed operations (baseline %d, candidate %d)", w.name, failed,
				b.Untraced.Failed+b.Traced.Failed, c.Untraced.Failed+c.Traced.Failed))
		}
		for _, s := range perLayer {
			if bv, cv := b.Traced.Metrics[s.Name].Value, c.Traced.Metrics[s.Name].Value; s.Exact && bv != cv {
				fmt.Printf("%-16s %-18s %14.6g %14.6g   EXACT COUNT DIFFERS\n", w.name, s.Name, bv, cv)
				bad = append(bad, fmt.Sprintf("%s %s: exact count %v != %v", w.name, s.Name, bv, cv))
			}
		}
	}
	if len(bad) > 0 {
		return fmt.Errorf("%d differences beyond bounds:\n  %s", len(bad), strings.Join(bad, "\n  "))
	}
	fmt.Println("\nall end-to-end metrics within bounds; exact counts identical")
	return nil
}
