// Package cluster simulates StarCluster, the tool the paper uses to
// assemble EC2 VMs into an HPC-style cluster: nodes joined to one Sun
// Grid Engine queue. The NFS share the stages exchange data through is
// modelled only as transfer time (see core's stage handovers); no
// bytes are stored.
//
// Building a cluster boots VMs through the cloud provider, waits for
// them, and charges a per-node configuration time (the StarCluster
// bootstrap: image customization, SGE installation, NFS export). The
// paper notes it had to build a customized StarCluster AMI; that cost
// is captured in Options.ConfigPerNode.
package cluster

import (
	"fmt"

	"rnascale/internal/cloud"
	"rnascale/internal/sge"
	"rnascale/internal/vclock"
)

// Options configure cluster construction.
type Options struct {
	// ConfigPerNode is the StarCluster bootstrap time charged per node
	// (overlapped across nodes, so the wall cost of a build is a single
	// ConfigPerNode after the slowest boot).
	ConfigPerNode vclock.Duration
}

// DefaultOptions is calibrated to StarCluster-era bootstraps: about
// 90 s to configure a node once booted.
func DefaultOptions() Options {
	return Options{ConfigPerNode: 90 * vclock.Second}
}

// Cluster is a built cluster.
type Cluster struct {
	provider *cloud.Provider
	opts     Options
	itype    cloud.InstanceType
	backend  cloud.Backend // purchasing model; growth and replacements stay on it
	all      []*cloud.VM
	sched    *sge.Scheduler
	nextNode int
}

// BuildOn boots n VMs of the given type on a purchasing backend, waits
// for them, configures them, and returns a ready cluster whose SGE
// queue has n nodes of Cores slots each. Every node runs jobs, as in
// the paper's sample run where one VM serves PA, PB and PC. The
// cluster remembers its backend, so S2-style growth and fault-recovery
// replacements boot on the same market the original nodes did.
func BuildOn(p *cloud.Provider, typeName string, n int, backend cloud.Backend, opts Options) (*Cluster, error) {
	if n <= 0 {
		return nil, fmt.Errorf("cluster: build with %d nodes", n)
	}
	it, err := p.LookupType(typeName)
	if err != nil {
		return nil, err
	}
	vms, err := p.RunInstancesOn(typeName, n, backend)
	if err != nil {
		return nil, err
	}
	p.WaitRunning(vms)
	p.Clock().Advance(opts.ConfigPerNode)
	c := &Cluster{
		provider: p,
		opts:     opts,
		itype:    it,
		backend:  backend,
		all:      vms,
	}
	sched, err := sge.New(nil)
	if err != nil {
		return nil, err
	}
	c.sched = sched
	for _, vm := range vms {
		if err := c.addSGENode(vm, p.Clock().Now()); err != nil {
			return nil, err
		}
	}
	return c, nil
}

// Adopt builds a cluster around already-running VMs without booting
// new ones — the S2 matching scheme, where a new pilot reuses the
// previous pilot's machines. Configuration time is not charged again.
func Adopt(p *cloud.Provider, vms []*cloud.VM, opts Options) (*Cluster, error) {
	if len(vms) == 0 {
		return nil, fmt.Errorf("cluster: adopt with no VMs")
	}
	now := p.Clock().Now()
	for _, vm := range vms {
		if vm.State(now) != cloud.VMRunning {
			return nil, fmt.Errorf("cluster: adopt non-running VM %s (%v)", vm.ID, vm.State(now))
		}
	}
	c := &Cluster{
		provider: p,
		opts:     opts,
		itype:    vms[0].Type,
		backend:  vms[0].Backend,
		all:      append([]*cloud.VM(nil), vms...),
	}
	sched, err := sge.New(nil)
	if err != nil {
		return nil, err
	}
	c.sched = sched
	for _, vm := range vms {
		if err := c.addSGENode(vm, now); err != nil {
			return nil, err
		}
	}
	return c, nil
}

func (c *Cluster) addSGENode(vm *cloud.VM, at vclock.Time) error {
	c.nextNode++
	return c.sched.AddNode(sge.NodeSpec{
		Name:     fmt.Sprintf("node%03d:%s", c.nextNode, vm.ID),
		Slots:    vm.Type.Cores,
		MemoryGB: vm.Type.MemoryGB,
	}, at)
}

// Grow boots k additional VMs of the cluster's type and joins them to
// the queue (S2 scaling between pipeline stages). The clock advances
// past boot and configuration.
func (c *Cluster) Grow(k int) ([]*cloud.VM, error) {
	if k <= 0 {
		return nil, fmt.Errorf("cluster: grow by %d", k)
	}
	vms, err := c.provider.RunInstancesOn(c.itype.Name, k, c.backend)
	if err != nil {
		return nil, err
	}
	c.provider.WaitRunning(vms)
	c.provider.Clock().Advance(c.opts.ConfigPerNode)
	now := c.provider.Clock().Now()
	for _, vm := range vms {
		if err := c.addSGENode(vm, now); err != nil {
			return nil, err
		}
	}
	c.all = append(c.all, vms...)
	return vms, nil
}

// HasVM reports whether a VM (by ID) is currently part of the
// cluster.
func (c *Cluster) HasVM(id string) bool {
	for _, vm := range c.all {
		if vm.ID == id {
			return true
		}
	}
	return false
}

// RemoveVM withdraws a lost VM from the cluster: its queue node is
// removed (future allocations only — completed jobs stand) and it is
// dropped from the member list. The VM itself is not terminated here;
// an interruption already killed it.
func (c *Cluster) RemoveVM(dead *cloud.VM) error {
	idx := -1
	for i, vm := range c.all {
		if vm == dead {
			idx = i
			break
		}
	}
	if idx < 0 {
		return fmt.Errorf("cluster: VM %s is not a member", dead.ID)
	}
	for _, name := range c.sched.ActiveNodes() {
		if len(name) > len(dead.ID) && name[len(name)-len(dead.ID):] == dead.ID {
			if err := c.sched.RemoveNode(name); err != nil {
				return err
			}
			break
		}
	}
	c.all = append(c.all[:idx], c.all[idx+1:]...)
	return nil
}

// ReplaceVM handles an involuntary node loss: the dead VM leaves the
// cluster, the clock advances to the loss time (recovery cannot start
// before the failure is observable), and one replacement VM boots,
// configures and joins the queue. Its boot and configuration time —
// and its billed hours — are the recovery cost the run's report
// absorbs.
func (c *Cluster) ReplaceVM(dead *cloud.VM) (*cloud.VM, error) {
	if err := c.RemoveVM(dead); err != nil {
		return nil, err
	}
	if dead.TerminatedAt > c.provider.Clock().Now() {
		c.provider.Clock().AdvanceTo(dead.TerminatedAt)
	}
	vms, err := c.Grow(1)
	if err != nil {
		return nil, err
	}
	return vms[0], nil
}

// Terminate shuts down every cluster VM.
func (c *Cluster) Terminate() {
	c.provider.Terminate(c.all...)
}

// InstanceType reports the node flavour.
func (c *Cluster) InstanceType() cloud.InstanceType { return c.itype }

// VMs lists the cluster's VMs in join order.
func (c *Cluster) VMs() []*cloud.VM { return append([]*cloud.VM(nil), c.all...) }

// Scheduler exposes the cluster's SGE queue.
func (c *Cluster) Scheduler() *sge.Scheduler { return c.sched }

// Provider exposes the owning cloud provider.
func (c *Cluster) Provider() *cloud.Provider { return c.provider }
