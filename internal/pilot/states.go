// Package pilot reimplements the pilot-job abstraction of
// RADICAL-Pilot, the framework the paper layers its RNA-seq pipeline
// on. A *pilot* is a container job that acquires a block of resources
// (here: a StarCluster-style cluster of cloud VMs); *compute units*
// are the application's tasks, late-bound onto pilots by a unit
// scheduler and executed through the pilot's local batch queue (SGE).
//
// The package mirrors RADICAL-Pilot's architecture: pilot and unit
// managers coordinate through a shared state store (the role MongoDB
// plays in the real system), every entity advances through an explicit
// state machine, and state changes are observable through watches.
package pilot

import (
	"fmt"
	"sync"

	"rnascale/internal/vclock"
)

// PilotState is the lifecycle of a pilot.
type PilotState string

// Pilot states, following RADICAL-Pilot's model (condensed).
const (
	PilotNew       PilotState = "NEW"
	PilotLaunching PilotState = "PMGR_LAUNCHING"
	PilotActive    PilotState = "PMGR_ACTIVE"
	// PilotDegraded marks a pilot that lost a node to an interruption
	// and is recovering (replacement VM booting); it returns to ACTIVE
	// once recovered.
	PilotDegraded PilotState = "PMGR_DEGRADED"
	PilotDone     PilotState = "DONE"
	PilotCanceled PilotState = "CANCELED"
	PilotFailed   PilotState = "FAILED"
)

// pilotTransitions lists the legal pilot state machine edges.
var pilotTransitions = map[PilotState][]PilotState{
	PilotNew:       {PilotLaunching, PilotCanceled},
	PilotLaunching: {PilotActive, PilotFailed, PilotCanceled},
	PilotActive:    {PilotDegraded, PilotDone, PilotFailed, PilotCanceled},
	PilotDegraded:  {PilotActive, PilotDone, PilotFailed, PilotCanceled},
}

// Final reports whether the state is terminal.
func (s PilotState) Final() bool {
	return s == PilotDone || s == PilotCanceled || s == PilotFailed
}

// CanTransition reports whether s → next is a legal edge.
func (s PilotState) CanTransition(next PilotState) bool {
	for _, t := range pilotTransitions[s] {
		if t == next {
			return true
		}
	}
	return false
}

// UnitState is the lifecycle of a compute unit.
type UnitState string

// Unit states, following RADICAL-Pilot's model (condensed).
const (
	UnitNew        UnitState = "NEW"
	UnitScheduling UnitState = "UMGR_SCHEDULING"
	UnitScheduled  UnitState = "AGENT_SCHEDULING"
	UnitExecuting  UnitState = "AGENT_EXECUTING"
	// UnitRetrying marks a unit whose attempt failed and whose agent
	// is waiting out the retry backoff before resubmitting it.
	UnitRetrying UnitState = "AGENT_RETRYING"
	UnitDone     UnitState = "DONE"
	UnitCanceled UnitState = "CANCELED"
	UnitFailed   UnitState = "FAILED"
)

// unitTransitions lists the legal unit state machine edges.
var unitTransitions = map[UnitState][]UnitState{
	UnitNew:        {UnitScheduling, UnitCanceled},
	UnitScheduling: {UnitScheduled, UnitFailed, UnitCanceled},
	UnitScheduled:  {UnitExecuting, UnitFailed, UnitCanceled},
	UnitExecuting:  {UnitRetrying, UnitDone, UnitFailed, UnitCanceled},
	UnitRetrying:   {UnitExecuting, UnitFailed, UnitCanceled},
}

// Final reports whether the state is terminal.
func (s UnitState) Final() bool {
	return s == UnitDone || s == UnitCanceled || s == UnitFailed
}

// CanTransition reports whether s → next is a legal edge.
func (s UnitState) CanTransition(next UnitState) bool {
	for _, t := range unitTransitions[s] {
		if t == next {
			return true
		}
	}
	return false
}

// EntityKind distinguishes pilots from units in the state store.
type EntityKind string

// Entity kinds.
const (
	KindPilot EntityKind = "pilot"
	KindUnit  EntityKind = "unit"
)

// Event is one recorded state change.
type Event struct {
	Kind EntityKind
	ID   string
	From string
	To   string
	At   vclock.Time
	Note string
}

// String implements fmt.Stringer.
func (e Event) String() string {
	return fmt.Sprintf("[%v] %s %s: %s -> %s %s", e.At, e.Kind, e.ID, e.From, e.To, e.Note)
}

// StateStore is the shared coordination database — the role the
// MongoDB backend plays for RADICAL-Pilot ("all pilot jobs are
// controlled and monitored via the back-end database system that
// updates run-time information on the fly"). It records every state
// transition, enforces state-machine legality, and fans events out to
// subscribers.
type StateStore struct {
	mu        sync.Mutex
	states    map[string]string // entity ID -> current state
	kinds     map[string]EntityKind
	history   []Event
	observers []func(Event)
}

// NewStateStore returns an empty store.
func NewStateStore() *StateStore {
	return &StateStore{
		states: make(map[string]string),
		kinds:  make(map[string]EntityKind),
	}
}

// Register introduces an entity in its initial state.
func (s *StateStore) Register(kind EntityKind, id string, initial string, at vclock.Time) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, ok := s.states[id]; ok {
		return fmt.Errorf("pilot: entity %q already registered", id)
	}
	s.states[id] = initial
	s.kinds[id] = kind
	s.emit(Event{Kind: kind, ID: id, From: "", To: initial, At: at})
	return nil
}

// Transition moves an entity to a new state, enforcing the state
// machine for its kind.
func (s *StateStore) Transition(id string, to string, at vclock.Time, note string) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	cur, ok := s.states[id]
	if !ok {
		return fmt.Errorf("pilot: unknown entity %q", id)
	}
	legal := false
	switch s.kinds[id] {
	case KindPilot:
		legal = PilotState(cur).CanTransition(PilotState(to))
	case KindUnit:
		legal = UnitState(cur).CanTransition(UnitState(to))
	}
	if !legal {
		return fmt.Errorf("pilot: illegal transition %s: %s -> %s", id, cur, to)
	}
	s.states[id] = to
	s.emit(Event{Kind: s.kinds[id], ID: id, From: cur, To: to, At: at, Note: note})
	return nil
}

// emit records and fans out; callers hold s.mu.
func (s *StateStore) emit(e Event) {
	s.history = append(s.history, e)
	for _, fn := range s.observers {
		fn(e)
	}
}

// State reports an entity's current state.
func (s *StateStore) State(id string) (string, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	st, ok := s.states[id]
	return st, ok
}

// History returns a copy of all recorded events in order.
func (s *StateStore) History() []Event {
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]Event(nil), s.history...)
}

// Subscribe registers a synchronous observer invoked with every
// future event, in order and without loss. The callback runs with the
// store's lock held, so it must not call back into the store.
func (s *StateStore) Subscribe(fn func(Event)) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.observers = append(s.observers, fn)
}
