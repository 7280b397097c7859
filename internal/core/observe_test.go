package core

import (
	"bytes"
	"encoding/json"
	"math"
	"strings"
	"testing"

	_ "rnascale/internal/assembler/all"
	"rnascale/internal/cloud"
	"rnascale/internal/obs"
	"rnascale/internal/pilot"
	"rnascale/internal/vclock"
)

// observedRun executes the tiny pipeline with an explicit obs bundle
// and returns both.
func observedRun(t *testing.T) (*Report, *obs.Obs) {
	t.Helper()
	ds := tinyDS(t)
	cfg := tinyConfig()
	cfg.Obs = obs.New()
	rep, err := Run(ds, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return rep, cfg.Obs
}

func TestRunProducesSpanTree(t *testing.T) {
	rep, o := observedRun(t)

	roots := o.Tracer.Roots()
	if len(roots) != 1 {
		t.Fatalf("%d root spans, want 1 run root", len(roots))
	}
	run := roots[0]
	if run.Kind != obs.KindRun {
		t.Fatalf("root kind %q", run.Kind)
	}
	if vclock.Duration(run.EndTime()) != rep.TTC {
		t.Errorf("run span ends at %v, report TTC %v", run.EndTime(), rep.TTC)
	}
	// Every pipeline stage appears as a direct child, in order.
	want := []string{"transfer", "PA", "PB", "PC"}
	var stages []*obs.Span
	for _, c := range run.Children() {
		if c.Kind == obs.KindStage {
			stages = append(stages, c)
		}
	}
	if len(stages) != len(want) {
		t.Fatalf("%d stage spans, want %d", len(stages), len(want))
	}
	for i, s := range stages {
		if s.Name != want[i] {
			t.Errorf("stage %d = %q, want %q", i, s.Name, want[i])
		}
		if s.EndTime() < s.Start {
			t.Errorf("stage %s negative span", s.Name)
		}
	}

	// Each compute stage hosts its pilot span, and pilots host units.
	pilots, units := 0, 0
	for _, s := range stages[1:] {
		for _, p := range s.Children() {
			if p.Kind != obs.KindPilot {
				continue
			}
			pilots++
			if _, ok := spanAttr(p, "final_state"); !ok {
				t.Errorf("pilot span %s missing final_state", p.Name)
			}
			for _, u := range p.Children() {
				if u.Kind != obs.KindUnit {
					continue
				}
				units++
				if fs, _ := spanAttr(u, "final_state"); fs != string(pilot.UnitDone) {
					t.Errorf("unit %s final_state %q", u.Name, fs)
				}
			}
		}
	}
	if pilots < 3 {
		t.Errorf("%d pilot spans, want one per compute stage", pilots)
	}
	// 1 preprocess + assemblers×k + 1 postprocess.
	wantUnits := 1 + len(rep.Assemblies) + 1
	if units != wantUnits {
		t.Errorf("%d unit spans, want %d", units, wantUnits)
	}
	// Each unit span carries its transition events, which the tree
	// prints as "@" lines right under the span's own line.
	var tree strings.Builder
	if err := o.Tracer.WriteTree(&tree); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(tree.String(), "\n")
	for i, l := range lines[:len(lines)-1] {
		if strings.HasPrefix(strings.TrimSpace(l), obs.KindUnit+" ") && !strings.HasPrefix(strings.TrimSpace(lines[i+1]), "@") {
			t.Errorf("unit span has no transition events: %s", strings.TrimSpace(l))
		}
	}
}

// spanAttr reads one of a span's attributes.
func spanAttr(s *obs.Span, key string) (string, bool) {
	for _, a := range s.Attrs() {
		if a.Key == key {
			return a.Value, true
		}
	}
	return "", false
}

func TestRunEmitsMetrics(t *testing.T) {
	rep, o := observedRun(t)

	sum := func(name string) float64 {
		var v float64
		for _, p := range o.Metrics.Points() {
			if p.Name == name {
				v += p.Value
			}
		}
		return v
	}

	if got := sum(cloud.MetricVMBoots); got <= 0 {
		t.Errorf("%s = %v", cloud.MetricVMBoots, got)
	}
	if got := sum(pilot.MetricTransitions); got <= 0 {
		t.Errorf("%s = %v", pilot.MetricTransitions, got)
	}
	if got := sum(MetricReadsProcessed); got != float64(rep.PreStats.OutputReads) {
		t.Errorf("%s = %v, report says %d", MetricReadsProcessed, got, rep.PreStats.OutputReads)
	}
	if got := sum(MetricRunCost); math.Abs(got-rep.CostUSD) > 1e-9 {
		t.Errorf("%s = %v, report cost %v", MetricRunCost, got, rep.CostUSD)
	}
	if got := sum(MetricRunTTC); got != rep.TTC.Seconds() {
		t.Errorf("%s = %v, report TTC %v", MetricRunTTC, got, rep.TTC.Seconds())
	}
	if got := sum(pilot.MetricSGEQueueWait + "_count"); got <= 0 {
		t.Errorf("queue-wait histogram empty")
	}
}

func TestSnapshotMatchesReport(t *testing.T) {
	rep, _ := observedRun(t)

	snap := rep.Snapshot
	if snap == nil {
		t.Fatal("report has no snapshot")
	}
	if snap.Schema != obs.SnapshotSchema {
		t.Errorf("schema %q", snap.Schema)
	}
	if snap.TTCSeconds != rep.TTC.Seconds() {
		t.Errorf("snapshot TTC %v, report %v", snap.TTCSeconds, rep.TTC.Seconds())
	}
	if math.Abs(snap.CostUSD-rep.CostUSD) > 1e-9 {
		t.Errorf("snapshot cost %v, report %v", snap.CostUSD, rep.CostUSD)
	}
	if len(snap.Stages) != 4 {
		t.Fatalf("%d snapshot stages", len(snap.Stages))
	}
	var stageCost float64
	for _, s := range snap.Stages {
		stageCost += s.CostUSD
	}
	// Stage cost deltas cover the bill except the final-teardown
	// rounding charged after PC ends; each stage attr rounds to
	// 4 decimals, so allow that much slack.
	if stageCost > snap.CostUSD+5e-4*float64(len(snap.Stages)) {
		t.Errorf("stage costs %v exceed run cost %v", stageCost, snap.CostUSD)
	}
}

// TestObservabilityDeterministic is the acceptance check that two
// identical runs export byte-identical traces and metric dumps.
func TestObservabilityDeterministic(t *testing.T) {
	render := func() (trace, metrics, tree []byte) {
		_, o := observedRun(t)
		var a, b, c bytes.Buffer
		if err := o.Tracer.WriteChromeTrace(&a); err != nil {
			t.Fatal(err)
		}
		o.Metrics.WritePrometheus(&b)
		o.Tracer.WriteTree(&c)
		return a.Bytes(), b.Bytes(), c.Bytes()
	}
	t1, m1, tr1 := render()
	t2, m2, tr2 := render()
	if !bytes.Equal(t1, t2) {
		t.Error("chrome traces differ across identical runs")
	}
	if !bytes.Equal(m1, m2) {
		t.Error("metric dumps differ across identical runs")
	}
	if !bytes.Equal(tr1, tr2) {
		t.Error("tree renderings differ across identical runs")
	}
	var doc struct {
		TraceEvents []map[string]any `json:"traceEvents"`
	}
	if err := json.Unmarshal(t1, &doc); err != nil {
		t.Fatalf("chrome trace is not valid JSON: %v", err)
	}
	if len(doc.TraceEvents) == 0 {
		t.Fatal("chrome trace has no events")
	}
}
