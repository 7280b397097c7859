package obs

import (
	"bytes"
	"encoding/json"
	"strings"
	"sync"
	"testing"

	"rnascale/internal/vclock"
)

// buildScenario constructs a fixed run→stage→pilot→unit span tree
// with metrics; used by the tree, chrome and golden tests.
func buildScenario() *Obs {
	o := New()
	tr := o.Tracer
	run := tr.StartSpan(nil, KindRun, "run-00001", 0)
	run.SetAttr("scheme", "S2")
	run.SetAttr("pattern", "distributed-dynamic")

	xfer := tr.StartSpan(run, KindStage, "transfer", 0)
	xfer.End(215)

	pa := tr.StartSpan(run, KindStage, "PA", 215)
	pa.SetAttr(AttrInstanceType, "c3.2xlarge")
	pa.SetAttr(AttrNodes, "1")
	pa.SetAttr(AttrCostUSD, "0.12")
	pilot := tr.StartSpan(pa, KindPilot, "pilot.0001(PA)", 215)
	pilot.Event(275, "PMGR_ACTIVE", "agent up")
	unit := tr.StartSpan(pilot, KindUnit, "unit.00001(preprocess)", 275)
	unit.Event(275, "AGENT_EXECUTING", "")
	unit.End(1100)
	pilot.End(1100)
	pa.End(1100)
	run.End(1100)

	reg := o.Metrics
	reg.Counter("rnascale_vm_boots_total", "VMs booted.", Labels{"type": "c3.2xlarge"}).Add(2)
	reg.Gauge("rnascale_run_cost_usd", "Total cloud bill.", nil).Set(0.12)
	h := reg.Histogram("rnascale_sge_queue_wait_seconds", "SGE queue wait.", nil, nil)
	h.Observe(0)
	h.Observe(42)
	h.Observe(90000)
	return o
}

func TestSpanHierarchy(t *testing.T) {
	o := buildScenario()
	roots := o.Tracer.Roots()
	if len(roots) != 1 || roots[0].Kind != KindRun {
		t.Fatalf("roots: %+v", roots)
	}
	run := roots[0]
	kids := run.Children()
	if len(kids) != 2 || kids[0].Name != "transfer" || kids[1].Name != "PA" {
		t.Fatalf("run children: %+v", kids)
	}
	pa := kids[1]
	if got := pa.Children(); len(got) != 1 || got[0].Kind != KindPilot {
		t.Fatalf("stage children: %+v", got)
	}
	unit := pa.Children()[0].Children()[0]
	if unit.Kind != KindUnit || unit.Duration() != 825 {
		t.Fatalf("unit: kind=%s dur=%v", unit.Kind, unit.Duration())
	}
	if v, ok := pa.attrs[AttrInstanceType]; !ok || v != "c3.2xlarge" {
		t.Errorf("attr: %q %v", v, ok)
	}
	if o.Tracer.Find(KindStage, "PA") != pa {
		t.Error("Find missed the PA stage")
	}
	if o.Tracer.Find(KindStage, "nope") != nil {
		t.Error("Find invented a span")
	}
	if o.Tracer.Len() != 5 {
		t.Errorf("len: %d", o.Tracer.Len())
	}
}

func TestSpanEndSemantics(t *testing.T) {
	tr := NewTracer()
	s := tr.StartSpan(nil, KindRun, "r", 100)
	if s.ended {
		t.Error("new span reported ended")
	}
	// Unended span end time floats with its contents.
	s.Event(250, "milestone", "")
	c := tr.StartSpan(s, KindStage, "st", 120)
	c.End(400)
	if got := s.EndTime(); got != 400 {
		t.Errorf("open end time: %v", got)
	}
	// End before start clamps.
	s.End(50)
	if got := s.EndTime(); got != 100 {
		t.Errorf("clamped end: %v", got)
	}
	// First end wins.
	s.End(999)
	if got := s.EndTime(); got != 100 {
		t.Errorf("double end: %v", got)
	}
	// Nil-span methods are no-ops.
	var nilSpan *Span
	nilSpan.SetAttr("k", "v")
	nilSpan.Event(0, "e", "")
	nilSpan.End(0)
}

func TestWriteTree(t *testing.T) {
	o := buildScenario()
	var b bytes.Buffer
	if err := o.Tracer.WriteTree(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{
		"run run-00001 0s..18m20s (18m20s)",
		"pattern=distributed-dynamic scheme=S2",
		"  stage transfer",
		"    pilot pilot.0001(PA)",
		"    @4m35s PMGR_ACTIVE (agent up)",
		"      unit unit.00001(preprocess)",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("tree missing %q:\n%s", want, out)
		}
	}
	if strings.Contains(out, "[open]") {
		t.Errorf("all spans ended but tree shows [open]:\n%s", out)
	}

	var empty bytes.Buffer
	NewTracer().WriteTree(&empty)
	if !strings.Contains(empty.String(), "no spans") {
		t.Errorf("empty tree: %q", empty.String())
	}
}

func TestChromeTraceIsValidJSON(t *testing.T) {
	o := buildScenario()
	// Leave one span open to exercise the in-flight path.
	o.Tracer.StartSpan(nil, KindRun, "run-00002", 2000).SetAttr("k", "v")
	var b bytes.Buffer
	if err := o.Tracer.WriteChromeTrace(&b); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []map[string]any `json:"traceEvents"`
		Unit        string           `json:"displayTimeUnit"`
	}
	if err := json.Unmarshal(b.Bytes(), &doc); err != nil {
		t.Fatalf("not JSON: %v\n%s", err, b.String())
	}
	var xEvents, metas, instants int
	for _, e := range doc.TraceEvents {
		switch e["ph"] {
		case "X":
			xEvents++
		case "M":
			metas++
		case "i":
			instants++
		}
	}
	// 6 spans -> 6 X + 6 thread_name metas; 2 span events -> 2 instants.
	if xEvents != 6 || metas != 6 || instants != 2 {
		t.Errorf("events: X=%d M=%d i=%d", xEvents, metas, instants)
	}
	if !strings.Contains(b.String(), `"open": "true"`) {
		t.Errorf("open span not flagged:\n%s", b.String())
	}
	// Virtual seconds scale to microseconds.
	if !strings.Contains(b.String(), `"ts": 215000000`) {
		t.Errorf("PA start not at 215s*1e6:\n%s", b.String())
	}
}

func TestTracerConcurrency(t *testing.T) {
	tr := NewTracer()
	root := tr.StartSpan(nil, KindRun, "r", 0)
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for j := 0; j < 50; j++ {
				s := tr.StartSpan(root, KindUnit, "u", vclock.Time(j))
				s.SetAttr("i", "x")
				s.Event(vclock.Time(j), "e", "")
				s.End(vclock.Time(j + 1))
				var b bytes.Buffer
				_ = tr.WriteTree(&b)
			}
		}(i)
	}
	wg.Wait()
	if tr.Len() != 1+8*50 {
		t.Errorf("spans: %d", tr.Len())
	}
}
