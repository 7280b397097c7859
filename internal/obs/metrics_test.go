package obs

import (
	"bytes"
	"strings"
	"sync"
	"testing"
)

func TestCounterGauge(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("x_total", "help", Labels{"a": "1"})
	c.Inc()
	c.Add(2.5)
	if c.Value() != 3.5 {
		t.Errorf("counter: %v", c.Value())
	}
	// Same (name, labels) returns the same series.
	if r.Counter("x_total", "", Labels{"a": "1"}) != c {
		t.Error("counter identity lost")
	}
	// Different labels are a distinct series.
	if r.Counter("x_total", "", Labels{"a": "2"}) == c {
		t.Error("label sets collapsed")
	}
	g := r.Gauge("y", "", nil)
	g.Set(10)
	g.Add(-4)
	if g.Value() != 6 {
		t.Errorf("gauge: %v", g.Value())
	}

	defer func() {
		if recover() == nil {
			t.Error("negative counter add did not panic")
		}
	}()
	c.Add(-1)
}

func TestKindCollisionPanics(t *testing.T) {
	r := NewRegistry()
	r.Counter("m", "", nil)
	defer func() {
		if recover() == nil {
			t.Error("kind collision did not panic")
		}
	}()
	r.Gauge("m", "", nil)
}

func TestHistogram(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("lat", "", []float64{1, 10, 100}, nil)
	for _, v := range []float64{0.5, 5, 50, 500} {
		h.Observe(v)
	}
	if h.Count() != 4 || h.Sum() != 555.5 {
		t.Errorf("count=%d sum=%v", h.Count(), h.Sum())
	}
	var b bytes.Buffer
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{
		"# TYPE lat histogram",
		`lat_bucket{le="1"} 1`,
		`lat_bucket{le="10"} 2`,
		`lat_bucket{le="100"} 3`,
		`lat_bucket{le="+Inf"} 4`,
		"lat_sum 555.5",
		"lat_count 4",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q:\n%s", want, out)
		}
	}
	// Non-ascending buckets are a programming error.
	defer func() {
		if recover() == nil {
			t.Error("bad buckets did not panic")
		}
	}()
	r.Histogram("bad", "", []float64{5, 5}, nil)
}

// TestHistogramZeroObservations: a registered-but-never-observed
// histogram still renders its full bucket ladder (all zero), so a
// scraper sees the series exist before the first event — the state
// the gateway's queue-wait histogram is in between boot and the
// first run.
func TestHistogramZeroObservations(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("idle", "", []float64{1, 10}, nil)
	if h.Count() != 0 || h.Sum() != 0 {
		t.Errorf("fresh histogram count=%d sum=%v", h.Count(), h.Sum())
	}
	var b bytes.Buffer
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{
		`idle_bucket{le="1"} 0`,
		`idle_bucket{le="10"} 0`,
		`idle_bucket{le="+Inf"} 0`,
		"idle_sum 0",
		"idle_count 0",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("zero-observation exposition missing %q:\n%s", want, out)
		}
	}
}

// TestHistogramNoBounds: nil bounds are legal (the TTC histogram uses
// them) and collapse to a single +Inf bucket that still satisfies the
// histogram contract: bucket == count, sum tracked.
func TestHistogramNoBounds(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("free", "", nil, nil)
	h.Observe(3)
	h.Observe(4.5)
	var b bytes.Buffer
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{
		`free_bucket{le="+Inf"} 2`,
		"free_sum 7.5",
		"free_count 2",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("boundless exposition missing %q:\n%s", want, out)
		}
	}
}

// TestHistogramBoundaryAndOverflow: a value exactly on a bound lands
// in that bucket (le is inclusive), and values above every bound land
// only in +Inf.
func TestHistogramBoundaryAndOverflow(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("edge", "", []float64{1, 10}, nil)
	h.Observe(1)    // exactly on the first bound
	h.Observe(10)   // exactly on the last bound
	h.Observe(1e9)  // above every bound
	h.Observe(-0.5) // below every bound still lands in the first bucket
	var b bytes.Buffer
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{
		`edge_bucket{le="1"} 2`,
		`edge_bucket{le="10"} 3`,
		`edge_bucket{le="+Inf"} 4`,
		"edge_count 4",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("boundary exposition missing %q:\n%s", want, out)
		}
	}
}

// TestHistogramBadBounds: unsorted and duplicate bounds are
// programming errors, caught at registration rather than rendering
// garbage cumulative counts.
func TestHistogramBadBounds(t *testing.T) {
	for _, bounds := range [][]float64{
		{10, 1},      // descending
		{1, 5, 3},    // out of order past the front
		{5, 5},       // duplicate
		{1, 2, 2, 3}, // duplicate mid-ladder
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("bounds %v did not panic", bounds)
				}
			}()
			NewRegistry().Histogram("bad", "", bounds, nil)
		}()
	}
}

func TestPrometheusExposition(t *testing.T) {
	r := NewRegistry()
	// Register in scrambled order; exposition must sort.
	r.Gauge("zz", "last metric", nil).Set(1)
	r.Counter("aa_total", "first metric", Labels{"b": "2", "a": "1"}).Add(7)
	r.Counter("aa_total", "first metric", Labels{"a": "0"}).Inc()
	var b bytes.Buffer
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	want := `# HELP aa_total first metric
# TYPE aa_total counter
aa_total{a="0"} 1
aa_total{a="1",b="2"} 7
# HELP zz last metric
# TYPE zz gauge
zz 1
`
	if b.String() != want {
		t.Errorf("exposition:\n%s\nwant:\n%s", b.String(), want)
	}
}

func TestHistogramLabelsInBuckets(t *testing.T) {
	r := NewRegistry()
	r.Histogram("w", "", []float64{1}, Labels{"p": "x"}).Observe(0.5)
	var b bytes.Buffer
	r.WritePrometheus(&b)
	if !strings.Contains(b.String(), `w_bucket{p="x",le="1"} 1`) {
		t.Errorf("labelled bucket:\n%s", b.String())
	}
}

func TestPoints(t *testing.T) {
	r := NewRegistry()
	r.Counter("c_total", "", Labels{"k": "v"}).Add(3)
	r.Gauge("g", "", nil).Set(2)
	h := r.Histogram("h", "", []float64{1}, nil)
	h.Observe(0.5)
	h.Observe(4)
	pts := r.Points()
	got := map[string]float64{}
	for _, p := range pts {
		got[p.Name] = p.Value
		if p.Name == "c_total" && p.Labels["k"] != "v" {
			t.Errorf("labels lost: %+v", p)
		}
	}
	if got["c_total"] != 3 || got["g"] != 2 || got["h_sum"] != 4.5 || got["h_count"] != 2 {
		t.Errorf("points: %+v", pts)
	}
}

func TestRegistryConcurrency(t *testing.T) {
	r := NewRegistry()
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 100; j++ {
				r.Counter("c_total", "", nil).Inc()
				r.Gauge("g", "", nil).Set(float64(j))
				r.Histogram("h", "", nil, nil).Observe(float64(j))
				var b bytes.Buffer
				_ = r.WritePrometheus(&b)
			}
		}()
	}
	wg.Wait()
	if got := r.Counter("c_total", "", nil).Value(); got != 800 {
		t.Errorf("counter: %v", got)
	}
}
