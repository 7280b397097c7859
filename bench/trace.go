package main

import (
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"sync"
)

// span is one timed call into a layer, recorded from the benchmark's
// side of the call. Layer is the module name (core, journal, dbg, …);
// Parent is the id of the span that caused it, 0 for a root.
type span struct {
	ID       int    `json:"id"`
	Parent   int    `json:"parent"`
	Workload string `json:"workload"`
	Layer    string `json:"layer"`
	Name     string `json:"name"`
	StartNS  int64  `json:"start_ns"`
	EndNS    int64  `json:"end_ns"`
	// lane is the viewer track: inherited from the parent, so only
	// concurrent siblings (gateway clients) need their own.
	lane int
}

// tracer keeps spans in memory until the run ends. A nil tracer
// records nothing, so traced and untraced runs share their code.
type tracer struct {
	mu       sync.Mutex
	workload string
	spans    []span
}

// begin opens a span on its parent's viewer track and returns its id
// (0 on a nil tracer).
func (t *tracer) begin(parent int, layer, name string) int {
	return t.beginLane(parent, -1, layer, name)
}

// beginLane is begin for a span that runs concurrently with its
// siblings and so needs a viewer track of its own (lane ≥ 0).
func (t *tracer) beginLane(parent, lane int, layer, name string) int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if lane < 0 {
		lane = 0
		if parent != 0 {
			lane = t.spans[parent-1].lane
		}
	}
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{ID: id, Parent: parent, Workload: t.workload, Layer: layer, Name: name, StartNS: now(), EndNS: -1, lane: lane})
	return id
}

func (t *tracer) end(id int) {
	if t == nil {
		return
	}
	at := now()
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans[id-1].EndNS = at
}

// timed runs fn inside a span and returns its host milliseconds.
func (t *tracer) timed(parent int, layer, name string, fn func()) float64 {
	id := t.begin(parent, layer, name)
	start := now()
	fn()
	ms := sinceMS(start)
	t.end(id)
	return ms
}

// checkSpans verifies the trace is well formed: ids are 1..n, every
// span ended at or after its start, names an existing earlier parent,
// and lies inside that parent's interval.
func checkSpans(spans []span) error {
	for i, s := range spans {
		if s.ID != i+1 {
			return fmt.Errorf("span %d has id %d", i+1, s.ID)
		}
		if s.EndNS < s.StartNS {
			return fmt.Errorf("span %d (%s.%s) ends before it starts", s.ID, s.Layer, s.Name)
		}
		if s.Parent == 0 {
			continue
		}
		if s.Parent < 0 || s.Parent >= s.ID {
			return fmt.Errorf("span %d (%s.%s) names parent %d, which does not precede it", s.ID, s.Layer, s.Name, s.Parent)
		}
		p := spans[s.Parent-1]
		if s.StartNS < p.StartNS || s.EndNS > p.EndNS {
			return fmt.Errorf("span %d (%s.%s) is not inside its parent %d", s.ID, s.Layer, s.Name, p.ID)
		}
	}
	return nil
}

// selfTimes sums, per layer, each span's duration minus the part of
// its interval that its child spans cover (children may overlap one
// another, e.g. concurrent gateway clients under one burst span).
func selfTimes(spans []span) map[string]int64 {
	children := map[int][][2]int64{}
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], [2]int64{s.StartNS, s.EndNS})
		}
	}
	self := map[string]int64{}
	for _, s := range spans {
		self[s.Layer] += (s.EndNS - s.StartNS) - covered(children[s.ID], s.StartNS, s.EndNS)
	}
	return self
}

// covered is the length of the union of the intervals, clipped to
// [lo, hi].
func covered(iv [][2]int64, lo, hi int64) int64 {
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var total int64
	edge := lo
	for _, c := range iv {
		start, end := max(c[0], edge), min(c[1], hi)
		if end > start {
			total += end - start
			edge = end
		}
	}
	return total
}

// writeChromeTrace writes the spans as Chrome trace_event JSON
// (complete "X" events, microseconds), so the file opens in the same
// viewer as `rnapipe -trace-out`.
func writeChromeTrace(path string, spans []span) error {
	type event struct {
		Name string         `json:"name"`
		Cat  string         `json:"cat"`
		Ph   string         `json:"ph"`
		TS   float64        `json:"ts"`
		Dur  float64        `json:"dur"`
		PID  int            `json:"pid"`
		TID  int            `json:"tid"`
		Args map[string]any `json:"args"`
	}
	events := make([]event, 0, len(spans))
	for _, s := range spans {
		events = append(events, event{
			Name: s.Layer + "." + s.Name, Cat: s.Layer, Ph: "X",
			TS: float64(s.StartNS) / 1e3, Dur: float64(s.EndNS-s.StartNS) / 1e3, PID: 1, TID: s.lane,
			Args: map[string]any{"id": s.ID, "parent": s.Parent, "workload": s.Workload},
		})
	}
	data, err := json.Marshal(map[string]any{"traceEvents": events, "displayTimeUnit": "ms"})
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
