package obs

import (
	"fmt"
	"io"
	"sort"
	"strings"
	"sync"

	"rnascale/internal/vclock"
)

// Span kinds used by the pipeline. The tracer itself treats kinds as
// opaque strings; these constants fix the vocabulary the pipeline
// emits so consumers (snapshots, dashboards) can rely on it.
const (
	KindRun   = "run"
	KindStage = "stage"
	KindPilot = "pilot"
	KindUnit  = "unit"
)

// SpanEvent is a point-in-time annotation within a span — a state
// transition, a milestone, a warning.
type SpanEvent struct {
	At   vclock.Time
	Name string
	Note string
}

// Span is one timed operation in virtual time. Spans form a tree;
// a span with a nil parent is a root. All methods are safe for
// concurrent use (they serialize on the owning tracer's lock).
type Span struct {
	id       int
	tracer   *Tracer
	parent   *Span
	children []*Span

	// Kind classifies the span (see the Kind* constants).
	Kind string
	// Name identifies the operation (stage name, pilot ID, ...).
	Name string
	// Start is when the operation began.
	Start vclock.Time

	end    vclock.Time
	ended  bool
	attrs  map[string]string
	events []SpanEvent
}

// SetAttr attaches (or overwrites) a string attribute.
func (s *Span) SetAttr(key, value string) {
	if s == nil {
		return
	}
	s.tracer.mu.Lock()
	defer s.tracer.mu.Unlock()
	if s.attrs == nil {
		s.attrs = make(map[string]string)
	}
	s.attrs[key] = value
}

// SetAttrf attaches a formatted attribute.
func (s *Span) SetAttrf(key, format string, args ...any) {
	s.SetAttr(key, fmt.Sprintf(format, args...))
}

// Event records a point-in-time annotation.
func (s *Span) Event(at vclock.Time, name, note string) {
	if s == nil {
		return
	}
	s.tracer.mu.Lock()
	defer s.tracer.mu.Unlock()
	s.events = append(s.events, SpanEvent{At: at, Name: name, Note: note})
}

// End closes the span at the given virtual time. Ending an already
// ended span is a no-op (first end wins), so teardown paths may end
// defensively.
func (s *Span) End(at vclock.Time) {
	if s == nil {
		return
	}
	s.tracer.mu.Lock()
	defer s.tracer.mu.Unlock()
	if s.ended {
		return
	}
	s.ended = true
	if at < s.Start {
		at = s.Start
	}
	s.end = at
}

// EndTime reports the span's end. For an unended span it reports the
// latest time observed within it (its own events and children), so
// exports of in-flight traces remain well-formed.
func (s *Span) EndTime() vclock.Time {
	s.tracer.mu.Lock()
	defer s.tracer.mu.Unlock()
	return s.endLocked()
}

func (s *Span) endLocked() vclock.Time {
	if s.ended {
		return s.end
	}
	latest := s.Start
	for _, e := range s.events {
		if e.At > latest {
			latest = e.At
		}
	}
	for _, c := range s.children {
		if t := c.endLocked(); t > latest {
			latest = t
		}
	}
	return latest
}

// Duration reports the span's virtual extent (see EndTime for the
// unended case).
func (s *Span) Duration() vclock.Duration { return s.EndTime().Sub(s.Start) }

// Children returns the span's direct children in creation order.
func (s *Span) Children() []*Span {
	s.tracer.mu.Lock()
	defer s.tracer.mu.Unlock()
	return append([]*Span(nil), s.children...)
}

// Attrs returns the attribute keys and values in sorted-key order.
func (s *Span) Attrs() []Attr {
	s.tracer.mu.Lock()
	defer s.tracer.mu.Unlock()
	return sortedAttrs(s.attrs)
}

// Attr is one key/value attribute pair.
type Attr struct{ Key, Value string }

func sortedAttrs(m map[string]string) []Attr {
	if len(m) == 0 {
		return nil
	}
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	out := make([]Attr, len(keys))
	for i, k := range keys {
		out[i] = Attr{Key: k, Value: m[k]}
	}
	return out
}

// Tracer owns a forest of spans. The zero value is not usable; create
// tracers with NewTracer. Safe for concurrent use.
type Tracer struct {
	mu     sync.Mutex
	spans  []*Span // creation order
	nextID int
}

// NewTracer returns an empty tracer.
func NewTracer() *Tracer { return &Tracer{} }

// StartSpan opens a span under parent (nil for a root) beginning at
// the given virtual time.
func (t *Tracer) StartSpan(parent *Span, kind, name string, at vclock.Time) *Span {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.nextID++
	s := &Span{id: t.nextID, tracer: t, parent: parent, Kind: kind, Name: name, Start: at}
	if parent != nil {
		parent.children = append(parent.children, s)
	}
	t.spans = append(t.spans, s)
	return s
}

// Roots returns the root spans in creation order.
func (t *Tracer) Roots() []*Span {
	t.mu.Lock()
	defer t.mu.Unlock()
	var out []*Span
	for _, s := range t.spans {
		if s.parent == nil {
			out = append(out, s)
		}
	}
	return out
}

// Len reports the total number of spans started.
func (t *Tracer) Len() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.spans)
}

// Find returns the first span (in creation order) with the given kind
// and name, or nil.
func (t *Tracer) Find(kind, name string) *Span {
	t.mu.Lock()
	defer t.mu.Unlock()
	for _, s := range t.spans {
		if s.Kind == kind && s.Name == name {
			return s
		}
	}
	return nil
}

// WriteTree renders the span forest as an indented, human-readable
// tree. Output is deterministic: children in creation order,
// attributes in sorted-key order.
func (t *Tracer) WriteTree(w io.Writer) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	var b strings.Builder
	for _, s := range t.spans {
		if s.parent == nil {
			writeTreeNode(&b, s, 0)
		}
	}
	if b.Len() == 0 {
		b.WriteString("(no spans)\n")
	}
	_, err := io.WriteString(w, b.String())
	return err
}

// writeTreeNode renders one span and its subtree; callers hold the
// tracer lock.
func writeTreeNode(b *strings.Builder, s *Span, depth int) {
	indent := strings.Repeat("  ", depth)
	end := s.endLocked()
	fmt.Fprintf(b, "%s%s %s %v..%v (%v)", indent, s.Kind, s.Name, s.Start, end, end.Sub(s.Start))
	if !s.ended {
		b.WriteString(" [open]")
	}
	for _, a := range sortedAttrs(s.attrs) {
		fmt.Fprintf(b, " %s=%s", a.Key, a.Value)
	}
	b.WriteByte('\n')
	for _, e := range s.events {
		fmt.Fprintf(b, "%s  @%v %s", indent, e.At, e.Name)
		if e.Note != "" {
			fmt.Fprintf(b, " (%s)", e.Note)
		}
		b.WriteByte('\n')
	}
	for _, c := range s.children {
		writeTreeNode(b, c, depth+1)
	}
}
