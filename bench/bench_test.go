package main

import (
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

// benchmarkJSON mirrors the contract file at the repo root.
type benchmarkJSON struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

// TestBenchmarkJSONMatchesSpecs holds BENCHMARK.json and the metric
// and workload tables in this package together.
func TestBenchmarkJSONMatchesSpecs(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b benchmarkJSON
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(b.Paths, []string{"bench"}) || !reflect.DeepEqual(b.Command, []string{"bash", "bench/run.sh"}) {
		t.Errorf("paths %v, command %v", b.Paths, b.Command)
	}
	if len(b.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, the package %d", len(b.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if b.Workloads[i].Name != w.name || b.Workloads[i].Why != w.why {
			t.Errorf("workload %d: BENCHMARK.json %+v, package {%s %s}", i, b.Workloads[i], w.name, w.why)
		}
	}
	if len(b.EndToEnd) != len(endToEnd) {
		t.Fatalf("BENCHMARK.json has %d end-to-end metrics, the package %d", len(b.EndToEnd), len(endToEnd))
	}
	for i, s := range endToEnd {
		if g := b.EndToEnd[i]; g.Name != s.Name || g.Unit != s.Unit || g.Better != s.Better || g.Bound != s.Bound {
			t.Errorf("end-to-end %d: BENCHMARK.json %+v, package %+v", i, g, s)
		}
	}
	if len(b.PerLayer) != len(perLayer) {
		t.Fatalf("BENCHMARK.json has %d per-layer metrics, the package %d", len(b.PerLayer), len(perLayer))
	}
	for i, s := range perLayer {
		if g := b.PerLayer[i]; g.Name != s.Name || g.Unit != s.Unit || g.Better != s.Better {
			t.Errorf("per-layer %d: BENCHMARK.json %+v, package %+v", i, g, s)
		}
	}
}

// TestSmokeEmitsEveryMetric runs every workload end to end at smoke
// scale, untraced and traced, and checks that each declared metric is
// emitted once with its unit, that nothing failed, and that the trace
// file is well formed.
func TestSmokeEmitsEveryMetric(t *testing.T) {
	out := t.TempDir()
	traced := map[string]result{}
	for _, w := range workloads {
		for trace, specs := range [][]metricSpec{endToEnd, perLayer} {
			res, err := runOne(options{workload: w.name, seed: 3, seconds: 1, trace: trace, scale: "smoke", out: out})
			if err != nil {
				t.Fatalf("%s trace=%d: %v", w.name, trace, err)
			}
			if trace == 1 {
				traced[w.name] = res
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Errorf("%s trace=%d: correct=%v attempted=%d failed=%d", w.name, trace, res.Correct, res.Attempted, res.Failed)
			}
			if len(res.Metrics) != len(specs) {
				t.Errorf("%s trace=%d: %d metrics emitted, %d declared", w.name, trace, len(res.Metrics), len(specs))
			}
			for _, s := range specs {
				m, ok := res.Metrics[s.Name]
				if !ok || m.Unit != s.Unit || math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
					t.Errorf("%s trace=%d: metric %s = %+v (present %v), want unit %s", w.name, trace, s.Name, m, ok, s.Unit)
				}
				if trace == 0 && m.Value <= 0 {
					t.Errorf("%s: end-to-end metric %s = %v, must be positive", w.name, s.Name, m.Value)
				}
			}
		}
		checkTraceFile(t, filepath.Join(out, "trace."+w.name+".json"), w.name)
	}
	// The issue's predictions must be checkable from the output alone.
	for name, m := range traced["mpi_pcrispa"].Metrics {
		if (strings.HasPrefix(name, "mapreduce.") || strings.HasPrefix(name, "assembler.contrail.")) && m.Value != 0 {
			t.Errorf("mpi_pcrispa entered Contrail/mapreduce: %s = %v", name, m.Value)
		}
	}
	if m := traced["mamp_bglumae"].Metrics; m["mapreduce.kmercount_ms"].Value <= 0 || m["assembler.contrail.assemble_ms"].Value <= 0 {
		t.Error("mamp_bglumae did not enter Contrail/mapreduce")
	}
	if m := traced["replay_bglumae"].Metrics; m["core.units_executed"].Value != 0 || m["core.units_replayed"].Value == 0 {
		t.Errorf("replay executed %v units and replayed %v", m["core.units_executed"].Value, m["core.units_replayed"].Value)
	}
	if left, _ := filepath.Glob(filepath.Join(out, "work.*")); len(left) != 0 {
		t.Errorf("scratch directories left behind: %v", left)
	}
}

// checkTraceFile reads a written Chrome trace back and re-checks the
// span invariants from the file alone.
func checkTraceFile(t *testing.T, path, workload string) {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var f struct {
		TraceEvents []struct {
			Name string
			Cat  string
			Ph   string
			TS   float64
			Dur  float64
			Args struct {
				ID, Parent int
				Workload   string
			}
		}
	}
	if err := json.Unmarshal(data, &f); err != nil {
		t.Fatalf("%s: %v", path, err)
	}
	if len(f.TraceEvents) == 0 {
		t.Fatalf("%s: no events", path)
	}
	spans := make([]span, len(f.TraceEvents))
	for i, ev := range f.TraceEvents {
		if ev.Ph != "X" || ev.Args.Workload != workload || !strings.HasPrefix(ev.Name, ev.Cat+".") {
			t.Errorf("%s: event %d malformed: %+v", path, i, ev)
		}
		spans[i] = span{ID: ev.Args.ID, Parent: ev.Args.Parent, Layer: ev.Cat, Name: ev.Name,
			StartNS: int64(math.Round(ev.TS * 1e3)), EndNS: int64(math.Round((ev.TS + ev.Dur) * 1e3))}
	}
	if err := checkSpans(spans); err != nil {
		t.Errorf("%s: %v", path, err)
	}
}

func TestPercentile(t *testing.T) {
	vals := []float64{40, 10, 30, 20}
	for _, c := range []struct{ p, want float64 }{{0, 10}, {50, 25}, {100, 40}, {25, 17.5}} {
		if got := percentile(vals, c.p); got != c.want {
			t.Errorf("percentile(%v, %v) = %v, want %v", vals, c.p, got, c.want)
		}
	}
	if got := percentile([]float64{7}, 95); got != 7 {
		t.Errorf("single sample: %v", got)
	}
	if !math.IsNaN(percentile(nil, 50)) {
		t.Error("no samples must give NaN")
	}
	if !reflect.DeepEqual(vals, []float64{40, 10, 30, 20}) {
		t.Error("percentile reordered its input")
	}
}

// TestHighestPercentile: the tail is reported at the highest
// percentile that still has ten samples beyond it.
func TestHighestPercentile(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
	}{{5, 100}, {19, 100}, {20, 50}, {40, 75}, {50, 80}, {60, 80}, {100, 90}, {200, 95}, {885, 95}, {1000, 99}, {10000, 99.9}} {
		if got := highestPercentile(c.n); got != c.want {
			t.Errorf("highestPercentile(%d) = %v, want %v", c.n, got, c.want)
		}
	}
	// The fixed full-scale percentiles are the ones a typical run's
	// sample count supports: ~720 accepted runs, ~50 replays, 2-3 runs.
	for name, n := range map[string]int{"gateway_burst": 720, "replay_bglumae": 50, "mamp_bglumae": 3, "mpi_pcrispa": 2} {
		if w, _ := findWorkload(name); w.tailPct != highestPercentile(n) {
			t.Errorf("%s reports p%v; %d samples support p%v", name, w.tailPct, n, highestPercentile(n))
		}
	}
}

func TestSelfTimes(t *testing.T) {
	spans := []span{
		{ID: 1, Layer: "bench", StartNS: 0, EndNS: 100},
		{ID: 2, Parent: 1, Layer: "core", StartNS: 10, EndNS: 60},    // nested, has its own child
		{ID: 3, Parent: 2, Layer: "journal", StartNS: 20, EndNS: 30}, // grandchild
		{ID: 4, Parent: 1, Layer: "gateway", StartNS: 50, EndNS: 80}, // overlaps span 2 by 10
		{ID: 5, Parent: 1, Layer: "gateway", StartNS: 70, EndNS: 90}, // overlaps span 4 by 10
	}
	if err := checkSpans(spans); err != nil {
		t.Fatal(err)
	}
	want := map[string]int64{
		"bench":   100 - 80, // children cover [10,90]
		"core":    50 - 10,
		"journal": 10,
		"gateway": 30 + 20,
	}
	if got := selfTimes(spans); !reflect.DeepEqual(got, want) {
		t.Errorf("selfTimes = %v, want %v", got, want)
	}
	// A child reaching past its parent is clipped, not counted twice.
	if got := covered([][2]int64{{-5, 5}, {3, 8}, {95, 120}}, 0, 100); got != 8+5 {
		t.Errorf("covered = %d, want 13", got)
	}
}

func TestCheckSpansRejectsMalformedTraces(t *testing.T) {
	ok := []span{{ID: 1, StartNS: 0, EndNS: 10}, {ID: 2, Parent: 1, StartNS: 2, EndNS: 8}}
	if err := checkSpans(ok); err != nil {
		t.Fatal(err)
	}
	for name, bad := range map[string][]span{
		"missing parent":  {{ID: 1, Parent: 7, StartNS: 0, EndNS: 1}},
		"never ended":     {{ID: 1, StartNS: 5, EndNS: -1}},
		"outside parent":  {{ID: 1, StartNS: 0, EndNS: 10}, {ID: 2, Parent: 1, StartNS: 5, EndNS: 11}},
		"ids out of step": {{ID: 2, StartNS: 0, EndNS: 1}},
	} {
		if checkSpans(bad) == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}

func TestTracerNilAndLanes(t *testing.T) {
	var none *tracer
	if id := none.begin(0, "x", "y"); id != 0 {
		t.Errorf("nil tracer handed out span %d", id)
	}
	none.end(0)
	ran := false
	if none.timed(0, "x", "y", func() { ran = true }); !ran {
		t.Error("nil tracer did not run the timed call")
	}
	tr := &tracer{workload: "w"}
	root := tr.begin(0, "bench", "root")
	a := tr.beginLane(root, 2, "bench", "client")
	child := tr.begin(a, "gateway", "submit")
	tr.end(child)
	tr.end(a)
	tr.end(root)
	if tr.spans[child-1].lane != 2 || tr.spans[root-1].lane != 0 {
		t.Errorf("lanes: %+v", tr.spans)
	}
	if err := checkSpans(tr.spans); err != nil {
		t.Error(err)
	}
}

// TestCheckerFallsBackToRepToRep: without a golden the first digest of
// each kind is the reference; with one, the committed digest is.
func TestCheckerFallsBackToRepToRep(t *testing.T) {
	c, err := newChecker("mamp_bglumae", false)
	if err != nil {
		t.Fatal(err)
	}
	c.op("run", `{"a":1}`, nil)
	c.op("run", `{"a":1}`, nil)
	c.op("run", `{"a":2}`, nil)
	c.op("run", "", os.ErrInvalid)
	if c.attempted != 4 || c.failed != 2 {
		t.Errorf("attempted %d failed %d, want 4 and 2", c.attempted, c.failed)
	}
	for _, w := range workloads {
		g, err := newChecker(w.name, true)
		if err != nil {
			t.Fatal(err)
		}
		if len(g.want) == 0 {
			t.Errorf("golden/%s.json holds no digests", w.name)
		}
		g.op("run", `{"not":"the golden"}`, nil)
		if g.failed != 1 {
			t.Errorf("%s: a digest that misses the golden passed", w.name)
		}
	}
}

func TestCompareFlagsRegressionsAndCountMismatches(t *testing.T) {
	mk := func(p50, units float64) resultsFile {
		f := resultsFile{Workloads: map[string]workloadRuns{}}
		for _, w := range workloads {
			e2e := map[string]float64{}
			for _, s := range endToEnd {
				e2e[s.Name] = 100
			}
			e2e["op_p50_ms"] = p50
			u, _ := newResult(endToEnd, e2e, 1, 0)
			tr, _ := newResult(perLayer, map[string]float64{"core.units_replayed": units}, 1, 0)
			f.Workloads[w.name] = workloadRuns{Untraced: u, Traced: tr}
		}
		return f
	}
	dir := t.TempDir()
	write := func(name string, f resultsFile) string {
		data, err := json.Marshal(f)
		if err != nil {
			t.Fatal(err)
		}
		path := filepath.Join(dir, name)
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	base := write("base.json", mk(100, 23))
	if err := compareFiles(base, write("same.json", mk(120, 23))); err != nil {
		t.Errorf("20%% slower is within the 25%% bound: %v", err)
	}
	if err := compareFiles(base, write("faster.json", mk(50, 23))); err != nil {
		t.Errorf("an improvement failed the comparison: %v", err)
	}
	if err := compareFiles(base, write("slow.json", mk(130, 23))); err == nil || !strings.Contains(err.Error(), "op_p50_ms") {
		t.Errorf("30%% slower passed: %v", err)
	}
	if err := compareFiles(base, write("count.json", mk(100, 22))); err == nil || !strings.Contains(err.Error(), "core.units_replayed") {
		t.Errorf("an exact count that moved passed: %v", err)
	}
}
