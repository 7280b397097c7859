package pilot

import (
	"fmt"

	"rnascale/internal/cloud"
	"rnascale/internal/cluster"
	"rnascale/internal/obs"
	"rnascale/internal/sge"
	"rnascale/internal/vclock"
)

// PilotDescription requests a block of cloud resources.
type PilotDescription struct {
	Name string
	// InstanceType is the cloud flavour for every node.
	InstanceType string
	// Nodes is the cluster size to build.
	Nodes int
	// ReuseVMs, when non-empty, adopts already-running VMs instead of
	// booting new ones — the paper's matching scheme S2, which
	// decouples pilot lifetime from VM lifetime. When empty, the pilot
	// boots (and on cancellation terminates) its own VMs — scheme S1.
	ReuseVMs []*cloud.VM
	// RetainVMs decouples a freshly-booting pilot from its VMs'
	// lifetime: completion/cancellation leaves the VMs running for a
	// later pilot to adopt. This is how the first pilot of an S2
	// workflow behaves (it boots VMs, but the scheme owns them).
	RetainVMs bool
	// Backend is the purchasing model freshly-booted nodes use
	// (on-demand or spot); ignored when adopting ReuseVMs, which keep
	// the backend they were booted on.
	Backend cloud.Backend
}

// Pilot is an acquired resource block: a cluster plus lifecycle
// metadata.
type Pilot struct {
	ID      string
	Desc    PilotDescription
	Cluster *cluster.Cluster
	// OwnsVMs reports whether cancellation should terminate the VMs
	// (scheme S1) or leave them running for reuse (scheme S2).
	OwnsVMs bool

	store      *StateStore
	LaunchedAt vclock.Time
	ActiveAt   vclock.Time
}

// State reports the pilot's current state from the store.
func (p *Pilot) State() PilotState {
	s, _ := p.store.State(p.ID)
	return PilotState(s)
}

// Manager launches and completes pilots — the PilotManager of
// RADICAL-Pilot, with the cloud provider as its (only) resource.
type Manager struct {
	provider *cloud.Provider
	store    *StateStore
	copts    cluster.Options
	nextID   int
	obs      *obs.Obs
}

// NewManager returns a pilot manager over the given provider and
// shared state store.
func NewManager(p *cloud.Provider, store *StateStore, copts cluster.Options) *Manager {
	return &Manager{provider: p, store: store, copts: copts}
}

// Store exposes the shared state store.
func (m *Manager) Store() *StateStore { return m.store }

// SetObs attaches an observability bundle: every pilot submitted
// afterwards gets its SGE queue instrumented with the
// MetricSGEQueueWait histogram.
func (m *Manager) SetObs(o *obs.Obs) { m.obs = o }

// instrumentScheduler hooks a freshly built cluster's batch queue
// into the queue-wait histogram.
func (m *Manager) instrumentScheduler(c *cluster.Cluster) {
	if m.obs == nil || m.obs.Metrics == nil || c == nil {
		return
	}
	h := m.obs.Metrics.Histogram(MetricSGEQueueWait,
		"SGE job queue wait (submit to start), virtual seconds.", nil, nil)
	c.Scheduler().SetObserver(func(j *sge.Job) { h.Observe(j.QueueWait().Seconds()) })
}

// SubmitPilot launches a pilot: it boots or adopts VMs, builds the
// cluster and drives the pilot to PMGR_ACTIVE. The virtual clock
// advances past boot and configuration for freshly-booted pilots.
func (m *Manager) SubmitPilot(desc PilotDescription) (*Pilot, error) {
	m.nextID++
	id := fmt.Sprintf("pilot.%04d", m.nextID)
	if desc.Name != "" {
		id = fmt.Sprintf("%s(%s)", id, desc.Name)
	}
	now := m.provider.Clock().Now()
	if err := m.store.Register(KindPilot, id, string(PilotNew), now); err != nil {
		return nil, err
	}
	p := &Pilot{ID: id, Desc: desc, store: m.store, LaunchedAt: now}
	if err := m.store.Transition(id, string(PilotLaunching), now, "acquiring resources"); err != nil {
		return nil, err
	}
	var c *cluster.Cluster
	var err error
	if len(desc.ReuseVMs) > 0 {
		if desc.Nodes != 0 && desc.Nodes != len(desc.ReuseVMs) {
			err = fmt.Errorf("pilot: %d nodes requested but %d VMs offered for reuse", desc.Nodes, len(desc.ReuseVMs))
		} else {
			c, err = cluster.Adopt(m.provider, desc.ReuseVMs, m.copts)
		}
		p.OwnsVMs = false
	} else {
		c, err = cluster.BuildOn(m.provider, desc.InstanceType, desc.Nodes, desc.Backend, m.copts)
		p.OwnsVMs = !desc.RetainVMs
	}
	if err != nil {
		ferr := m.store.Transition(id, string(PilotFailed), m.provider.Clock().Now(), err.Error())
		if ferr != nil {
			return nil, fmt.Errorf("pilot: %v (state store: %v)", err, ferr)
		}
		return nil, fmt.Errorf("pilot: launching %s: %w", id, err)
	}
	p.Cluster = c
	m.instrumentScheduler(c)
	p.ActiveAt = m.provider.Clock().Now()
	if err := m.store.Transition(id, string(PilotActive), p.ActiveAt, "agent up"); err != nil {
		return nil, err
	}
	return p, nil
}

// CompletePilot drives a pilot to DONE (its workload finished). Under
// scheme S1 the pilot's VMs are terminated; under S2 they stay running
// for the next pilot.
func (m *Manager) CompletePilot(p *Pilot) error {
	if p.State().Final() {
		return nil
	}
	now := m.provider.Clock().Now()
	if err := m.store.Transition(p.ID, string(PilotDone), now, "workload complete"); err != nil {
		return err
	}
	if p.OwnsVMs && p.Cluster != nil {
		p.Cluster.Terminate()
	}
	return nil
}
