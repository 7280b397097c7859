// Package assembler defines the common interface, cost-model inputs
// and registry for the de novo transcript assemblers integrated into
// the pipeline — the role of the paper's Table I. Concrete assemblers
// live in subpackages:
//
//	ray      MPI, distributed DBG (k-mer partitioning + halo exchange)
//	abyss    MPI, distributed DBG (higher serial fraction, faster core)
//	contrail Hadoop MapReduce, iterative DBG path compression
//	velvet   single-node DBG
//	trinity  single-node greedy extension (evaluation baseline)
//
// Every assembler performs a real assembly of the (scaled) reads it is
// given and reports a virtual time-to-completion and per-node memory
// footprint derived from the full-scale dataset statistics, so that
// benchmark shapes land at paper scale.
package assembler

import (
	"fmt"
	"sort"
	"sync"

	"rnascale/internal/seq"
	"rnascale/internal/simdata"
	"rnascale/internal/vclock"
)

// Info describes an assembler, mirroring Table I.
type Info struct {
	Name string
	// GraphType is the assembly paradigm ("DBG", "Greedy").
	GraphType string
	// Distributed names the multi-node implementation ("MPI",
	// "Hadoop MapReduce", or "" for single-node tools).
	Distributed string
	// Version mirrors the tool version the paper integrated.
	Version string
}

// MultiNode reports whether the tool can span nodes.
func (i Info) MultiNode() bool { return i.Distributed != "" }

// Params are the per-run assembly parameters.
type Params struct {
	// K is the k-mer size (the multiple-k-mer strategy runs one
	// assembly per k).
	K int
	// MinCoverage drops k-mers below this count (0 = tool default).
	MinCoverage int
	// MinContigLen drops contigs shorter than this (0 = tool default:
	// 2k).
	MinContigLen int
}

// WithDefaults fills tool-independent defaults: a tool-specific
// minimum coverage and a minimum contig length of 2k.
func (p Params) WithDefaults(defaultMinCov int) Params {
	if p.MinCoverage <= 0 {
		p.MinCoverage = defaultMinCov
	}
	if p.MinContigLen <= 0 {
		p.MinContigLen = 2 * p.K
	}
	return p
}

// Request is one assembly invocation.
type Request struct {
	// Reads is the (scaled) input read set.
	Reads []seq.Read
	// Params are the assembly parameters.
	Params Params
	// Nodes and CoresPerNode describe the allocation.
	Nodes, CoresPerNode int
	// FullScale carries the paper-scale dataset statistics that drive
	// the virtual cost models.
	FullScale simdata.FullScaleStats
	// Memo, when set, shares intermediate results between the requests
	// that carry the same one; an assembler that has nothing to share
	// ignores it. Nil computes everything privately.
	Memo *Memo
}

// Memo computes a value once per key and hands that one value to every
// caller asking for the key, whether it arrives while the value is
// being computed or afterwards. A panic in the computation reaches
// every caller of its key. The zero value is ready to use; a nil *Memo
// computes each call privately.
type Memo struct {
	mu    sync.Mutex
	calls map[any]*memoCall
}

// memoCall is one key's computation: done closes once val or panicked
// is set.
type memoCall struct {
	done     chan struct{}
	val      any
	panicked any
}

// Do returns the value computed for key, calling compute if no caller
// has asked for key before. Keys compare by value.
func (m *Memo) Do(key any, compute func() any) any {
	if m == nil {
		return compute()
	}
	m.mu.Lock()
	c, ok := m.calls[key]
	if !ok {
		if m.calls == nil {
			m.calls = map[any]*memoCall{}
		}
		c = &memoCall{done: make(chan struct{})}
		m.calls[key] = c
	}
	m.mu.Unlock()
	if ok {
		<-c.done
	} else {
		returned := false
		func() {
			defer close(c.done)
			defer func() {
				if returned {
					return
				}
				// recover is nil when compute called runtime.Goexit; the
				// waiters still must not take the missing value.
				if c.panicked = recover(); c.panicked == nil {
					c.panicked = fmt.Sprintf("assembler: memo computation for %v exited", key)
				}
			}()
			c.val = compute()
			returned = true
		}()
	}
	if c.panicked != nil {
		panic(c.panicked)
	}
	return c.val
}

// Validate checks request invariants shared by all assemblers.
func (r *Request) Validate(info Info) error {
	if len(r.Reads) == 0 {
		return fmt.Errorf("%s: no reads", info.Name)
	}
	return r.ValidateShape(info)
}

// ValidateShape checks what Validate checks but the reads: the
// invariants an estimate, which touches no read, relies on.
func (r *Request) ValidateShape(info Info) error {
	if r.Params.K < 15 || r.Params.K > seq.MaxK {
		return fmt.Errorf("%s: k=%d outside [15,%d]", info.Name, r.Params.K, seq.MaxK)
	}
	if r.Nodes <= 0 || r.CoresPerNode <= 0 {
		return fmt.Errorf("%s: allocation %d nodes × %d cores", info.Name, r.Nodes, r.CoresPerNode)
	}
	if !info.MultiNode() && r.Nodes > 1 {
		return fmt.Errorf("%s: single-node tool cannot use %d nodes", info.Name, r.Nodes)
	}
	return nil
}

// Result is a finished assembly.
type Result struct {
	// Contigs is the real assembly output, longest first.
	Contigs []seq.FastaRecord
	// TTC is the virtual time-to-completion at full scale.
	TTC vclock.Duration
	// PeakMemoryGBPerNode is the per-node resident high-water mark at
	// full scale.
	PeakMemoryGBPerNode float64
	// Messages and BytesSent report distributed traffic (MPI tools).
	Messages, BytesSent int64
	// N50 is the contig-length N50.
	N50 int
}

// Assembler is one integrated de novo assembler.
type Assembler interface {
	Info() Info
	Assemble(req Request) (Result, error)
	// Estimate reports what Assemble would for the request but the
	// contigs and their N50 — TTC, memory and traffic — without doing
	// the data work or touching the reads: the a-priori estimates the
	// paper names as the prerequisite for a fully dynamically adaptive
	// workflow ("a means for a rough estimate on TTCs of sub tasks a
	// priori").
	Estimate(req Request) (Result, error)
}

// HostMemoryEstimator is optionally implemented by assemblers that can
// bound, from the request alone, the host bytes one Assemble call holds
// at its peak. The pipeline overlaps assemblies on the host only as far
// as these estimates fit its memory budget; an assembler without one
// runs alone.
type HostMemoryEstimator interface {
	EstimateHostBytes(req Request) int64
}

// FullScaleBases estimates the base count of the full-scale dataset
// from its FASTQ volume (sequence is roughly 45% of a FASTQ file).
func FullScaleBases(fs simdata.FullScaleStats) float64 {
	return float64(fs.SeqDataBytes) * 0.45
}

// DistinctKmers estimates the full-scale distinct-canonical-k-mer
// count: genuine genome k-mers (both strands, isoform redundancy)
// plus error k-mers proportional to volume. This drives the Table IV
// memory matrix.
func DistinctKmers(fs simdata.FullScaleStats) float64 {
	return float64(fs.GenomeSizeBp)*12 + FullScaleBases(fs)*0.025
}

// GraphMemoryGB estimates a DBG assembler's per-node footprint when
// the k-mer table is hash-partitioned over the given node count:
// 64 bytes per distinct k-mer (entry, pointers, load-factor slack)
// plus a fixed runtime base.
func GraphMemoryGB(fs simdata.FullScaleStats, nodes int) float64 {
	if nodes < 1 {
		nodes = 1
	}
	return 2.0 + DistinctKmers(fs)*64/1e9/float64(nodes)
}

// registry is the global assembler registry, keyed by lower-case name.
var (
	regMu    sync.Mutex
	registry = map[string]Assembler{}
)

// Register adds an assembler to the registry; registering a duplicate
// name panics (it is a wiring bug).
func Register(a Assembler) {
	regMu.Lock()
	defer regMu.Unlock()
	name := a.Info().Name
	if _, dup := registry[name]; dup {
		panic(fmt.Sprintf("assembler: duplicate registration of %q", name))
	}
	registry[name] = a
}

// Get resolves an assembler by name.
func Get(name string) (Assembler, error) {
	regMu.Lock()
	defer regMu.Unlock()
	a, ok := registry[name]
	if !ok {
		names := make([]string, 0, len(registry))
		for n := range registry {
			names = append(names, n)
		}
		sort.Strings(names)
		return nil, fmt.Errorf("assembler: unknown %q (have %v)", name, names)
	}
	return a, nil
}

// List returns every registered assembler sorted by name.
func List() []Assembler {
	regMu.Lock()
	defer regMu.Unlock()
	names := make([]string, 0, len(registry))
	for n := range registry {
		names = append(names, n)
	}
	sort.Strings(names)
	out := make([]Assembler, len(names))
	for i, n := range names {
		out[i] = registry[n]
	}
	return out
}
