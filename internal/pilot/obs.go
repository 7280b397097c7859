package pilot

import (
	"strings"
	"sync"

	"rnascale/internal/obs"
	"rnascale/internal/vclock"
)

// MetricTransitions counts every pilot/unit state change, labelled by
// entity kind and target state.
const MetricTransitions = "rnascale_state_transitions_total"

// MetricSGEQueueWait is the histogram of SGE queue-wait (submit →
// start) per job, in virtual seconds, across every pilot's batch
// queue.
const MetricSGEQueueWait = "rnascale_sge_queue_wait_seconds"

// MetricRetries counts unit attempt restarts (each Executing →
// Retrying → Executing cycle).
const MetricRetries = "rnascale_retries_total"

// MetricUnitsRecovered counts units that reached DONE after at least
// one retry — the faults the retry policy actually absorbed.
const MetricUnitsRecovered = "rnascale_units_recovered_total"

// SpanBridge mirrors the state store's event stream into obs spans —
// the run-time monitoring the paper gets from RADICAL-Pilot's MongoDB
// backend, driven from the *existing* event path rather than a
// parallel one. Every pilot becomes a span under the current parent
// (set per stage by the pipeline), every unit a span under its bound
// pilot, and every state transition a span event.
type SpanBridge struct {
	mu     sync.Mutex
	o      *obs.Obs
	parent *obs.Span
	spans  map[string]*obs.Span
	queued map[string]*pendingEntity
}

// pendingEntity buffers a unit's events until its pilot binding is
// known (units register before scheduling decides their pilot).
type pendingEntity struct {
	start  vclock.Time
	events []Event
}

// NewSpanBridge subscribes a bridge to the store. Pass the obs bundle
// whose tracer should receive the spans; a nil bundle (or tracer)
// returns a nil bridge, whose methods are no-ops.
func NewSpanBridge(store *StateStore, o *obs.Obs) *SpanBridge {
	if o == nil || o.Tracer == nil {
		return nil
	}
	b := &SpanBridge{o: o, spans: map[string]*obs.Span{}, queued: map[string]*pendingEntity{}}
	store.Subscribe(b.onEvent)
	return b
}

// SetParent fixes the span under which subsequently registered pilots
// hang — the pipeline points it at the current stage span.
func (b *SpanBridge) SetParent(s *obs.Span) {
	if b == nil {
		return
	}
	b.mu.Lock()
	b.parent = s
	b.mu.Unlock()
}

// onEvent handles one state-store event. It runs under the store's
// lock, so it only touches the bridge and the tracer.
func (b *SpanBridge) onEvent(e Event) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.o.Metrics != nil && e.From != "" {
		b.o.Metrics.Counter(MetricTransitions, "Pilot framework state transitions, by kind and target state.",
			obs.Labels{"kind": string(e.Kind), "to": e.To}).Inc() //rnavet:allow metriccard — e.To is a PilotState/UnitState machine state name, a finite set fixed at compile time
	}
	switch e.Kind {
	case KindPilot:
		if e.From == "" {
			b.spans[e.ID] = b.o.Tracer.StartSpan(b.parent, obs.KindPilot, e.ID, e.At)
			return
		}
		b.record(b.spans[e.ID], e, PilotState(e.To).Final())
	case KindUnit:
		if e.From == "" {
			b.queued[e.ID] = &pendingEntity{start: e.At}
			return
		}
		if span, ok := b.spans[e.ID]; ok {
			b.record(span, e, UnitState(e.To).Final())
			return
		}
		p := b.queued[e.ID]
		if p == nil {
			p = &pendingEntity{start: e.At}
			b.queued[e.ID] = p
		}
		p.events = append(p.events, e)
		// The scheduling decision names the pilot ("bound to <pilot>
		// by <policy>"): that is the moment the unit's place in the
		// hierarchy is known, so materialize its span there.
		if pilotID, ok := boundPilot(e.Note); ok {
			parent := b.spans[pilotID]
			if parent == nil {
				parent = b.parent
			}
			span := b.o.Tracer.StartSpan(parent, obs.KindUnit, e.ID, p.start)
			if pilotID != "" {
				span.SetAttr("pilot", pilotID)
			}
			for _, buffered := range p.events {
				b.record(span, buffered, UnitState(buffered.To).Final())
			}
			b.spans[e.ID] = span
			delete(b.queued, e.ID)
		}
	}
}

// record appends a transition to a span, ending it on terminal
// states.
func (b *SpanBridge) record(span *obs.Span, e Event, final bool) {
	if span == nil {
		return
	}
	span.Event(e.At, e.To, e.Note)
	if final {
		span.SetAttr("final_state", e.To)
		span.End(e.At)
	}
}

// boundPilot extracts the pilot ID from a scheduling note of the form
// "bound to <pilot> by <policy>".
func boundPilot(note string) (string, bool) {
	rest, ok := strings.CutPrefix(note, "bound to ")
	if !ok {
		return "", false
	}
	id, _, _ := strings.Cut(rest, " by ")
	return id, true
}
