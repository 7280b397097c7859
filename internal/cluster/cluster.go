// Package cluster simulates StarCluster, the tool the paper uses to
// assemble EC2 VMs into an HPC-style cluster: a head node plus worker
// nodes, an NFS-like shared filesystem, and a Sun Grid Engine queue
// spanning all nodes.
//
// Building a cluster boots VMs through the cloud provider, waits for
// them, and charges a per-node configuration time (the StarCluster
// bootstrap: image customization, SGE installation, NFS export). The
// paper notes it had to build a customized StarCluster AMI; that cost
// is captured in Options.ConfigPerNode.
package cluster

import (
	"fmt"
	"sort"

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
	head     *cloud.VM
	workers  []*cloud.VM // includes every node except none — head is workers[0]'s peer; see nodes()
	all      []*cloud.VM
	sched    *sge.Scheduler
	store    *SharedStore
	nextNode int
}

// Build boots n VMs of the given type, waits for them, configures
// them, and returns a ready cluster whose SGE queue has n nodes of
// Cores slots each. The first VM acts as the head node (it also runs
// jobs, as in the paper's sample run where one VM serves PA, PB and
// PC).
func Build(p *cloud.Provider, typeName string, n int, opts Options) (*Cluster, error) {
	return BuildOn(p, typeName, n, cloud.OnDemand, opts)
}

// BuildOn is Build with an explicit purchasing backend. The cluster
// remembers its backend, so S2-style growth and fault-recovery
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
		head:     vms[0],
		all:      vms,
		store:    NewSharedStore(),
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
		head:     vms[0],
		all:      append([]*cloud.VM(nil), vms...),
		store:    NewSharedStore(),
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
// an interruption already killed it. Removing the head promotes the
// next member.
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
	if c.head == dead && len(c.all) > 0 {
		c.head = c.all[0]
	}
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

// ShrinkTo terminates all but the first keep VMs (the head always
// survives) and withdraws their queue nodes — the sample run's
// "other 35 VMs, which are not necessary for PC, are terminated".
func (c *Cluster) ShrinkTo(keep int) error {
	if keep < 1 {
		return fmt.Errorf("cluster: must keep at least the head node")
	}
	if keep >= len(c.all) {
		return nil
	}
	doomed := c.all[keep:]
	names := c.sched.ActiveNodes()
	// Queue node names embed the VM ID, so match suffixes.
	byVM := map[string]string{}
	for _, name := range names {
		for _, vm := range doomed {
			if len(name) > len(vm.ID) && name[len(name)-len(vm.ID):] == vm.ID {
				byVM[vm.ID] = name
			}
		}
	}
	for _, vm := range doomed {
		if name, ok := byVM[vm.ID]; ok {
			if err := c.sched.RemoveNode(name); err != nil {
				return err
			}
		}
		c.provider.Terminate(vm)
	}
	c.all = c.all[:keep]
	return nil
}

// Terminate shuts down every cluster VM.
func (c *Cluster) Terminate() {
	c.provider.Terminate(c.all...)
}

// Size reports the current node count.
func (c *Cluster) Size() int { return len(c.all) }

// InstanceType reports the node flavour.
func (c *Cluster) InstanceType() cloud.InstanceType { return c.itype }

// Backend reports the purchasing model the cluster's nodes run on.
func (c *Cluster) Backend() cloud.Backend { return c.backend }

// Head returns the head-node VM.
func (c *Cluster) Head() *cloud.VM { return c.head }

// VMs lists the cluster's VMs in join order.
func (c *Cluster) VMs() []*cloud.VM { return append([]*cloud.VM(nil), c.all...) }

// Scheduler exposes the cluster's SGE queue.
func (c *Cluster) Scheduler() *sge.Scheduler { return c.sched }

// Store exposes the shared filesystem.
func (c *Cluster) Store() *SharedStore { return c.store }

// Provider exposes the owning cloud provider.
func (c *Cluster) Provider() *cloud.Provider { return c.provider }

// Clock exposes the simulation clock.
func (c *Cluster) Clock() *vclock.Clock { return c.provider.Clock() }

// SharedStore is the NFS-like shared filesystem every node mounts.
// Contents live in memory; paths are flat strings by convention
// ("data/raw.fastq", "asm/ray/k35.contigs.fa").
//
// A stored file is an immutable blob: Put takes ownership of the slice
// it is handed, nothing ever writes to it again, and copies between
// stores (CopyAll) share the blob instead of duplicating it. Get is
// the one place bytes are copied, so no caller can reach a stored
// blob's memory.
type SharedStore struct {
	files map[string][]byte
}

// NewSharedStore returns an empty store.
func NewSharedStore() *SharedStore {
	return &SharedStore{files: make(map[string][]byte)}
}

// Put writes a file, replacing any previous content. The store takes
// ownership of data: the caller must not modify it afterwards. The
// same slice may be Put under several paths.
func (s *SharedStore) Put(path string, data []byte) error {
	if path == "" {
		return fmt.Errorf("cluster: empty store path")
	}
	s.files[path] = data
	return nil
}

// Get reads a file into a copy the caller owns.
func (s *SharedStore) Get(path string) ([]byte, error) {
	data, ok := s.files[path]
	if !ok {
		return nil, fmt.Errorf("cluster: no such file %q", path)
	}
	return append([]byte(nil), data...), nil
}

// Exists reports whether path is present.
func (s *SharedStore) Exists(path string) bool {
	_, ok := s.files[path]
	return ok
}

// Delete removes a file; deleting a missing file is a no-op.
func (s *SharedStore) Delete(path string) { delete(s.files, path) }

// Size reports the byte size of a file, or 0 if absent.
func (s *SharedStore) Size(path string) int64 {
	return int64(len(s.files[path]))
}

// TotalBytes reports the store's total content size.
func (s *SharedStore) TotalBytes() int64 {
	var n int64
	for _, d := range s.files {
		n += int64(len(d))
	}
	return n
}

// List returns all paths with the given prefix, sorted.
func (s *SharedStore) List(prefix string) []string {
	var out []string
	for p := range s.files {
		if len(p) >= len(prefix) && p[:len(prefix)] == prefix {
			out = append(out, p)
		}
	}
	sort.Strings(out)
	return out
}

// CopyAll carries every file into another store (cross-pilot data
// movement: an S1 transfer or an S2 carry-over), replacing same-named
// files there. The stores share the immutable blobs, so the cost is
// per path, not per byte.
func (s *SharedStore) CopyAll(dst *SharedStore) {
	for path, data := range s.files {
		dst.files[path] = data
	}
}
