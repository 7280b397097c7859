// Package mpidbg implements the distributed De Bruijn graph assembly
// algorithm shared by the two MPI assemblers (Ray and ABySS):
//
//  1. every rank streams its shard of reads and counts each canonical
//     k-mer into its owner rank's table (hash partitioning);
//  2. an all-to-all exchange, timed as the routing of those counts,
//     ends the counting, and each owner applies the coverage cutoff;
//  3. survivors are gathered and the graph is simplified and walked
//     into contigs by rank 0 (the serial phase that, together with
//     the exchange, limits MPI assemblers' scale-out in the paper's
//     Fig. 3).
//
// The computation is real — the contigs come from the actual reads —
// while virtual time accrues per rank from the profile's calibrated
// rates and the full-scale communication volume.
package mpidbg

import (
	"fmt"
	"slices"
	"sync"

	"rnascale/internal/assembler"
	"rnascale/internal/dbg"
	"rnascale/internal/mpi"
	"rnascale/internal/seq"
	"rnascale/internal/vclock"
)

// Profile sets one MPI assembler's calibration and quality knobs.
type Profile struct {
	// Prefix names contigs ("ray", "abyss").
	Prefix string
	// BasesPerCoreSecond is the end-to-end single-core throughput.
	BasesPerCoreSecond float64
	// SerialFraction is the share of single-core work that stays
	// serialized on rank 0 (graph simplification, contig IO). High
	// values give the near-flat scale-out the paper observed.
	SerialFraction float64
	// WireBytesPerBase is the all-to-all exchange volume per input
	// base at full scale.
	WireBytesPerBase float64
	// MinCoverageDefault is the tool's stock coverage cutoff; higher
	// values make the assembly more conservative (higher precision,
	// lower recall — Ray's Table V profile).
	MinCoverageDefault int
	// MemoryFactor scales the common graph-memory model.
	MemoryFactor float64
	// Network overrides the MPI link model; nil uses defaults.
	Network *mpi.Config
}

// Estimate predicts the virtual TTC of Run for the same request and
// profile by pure arithmetic — no ranks are spawned and no sequence
// is touched. It mirrors Run's accounting: the parallel counting
// pass, the all-to-all exchange, the survivor gather and the serial
// graph phase.
func Estimate(req assembler.Request, prof Profile) (vclock.Duration, error) {
	// Unlike Run, estimation needs no reads — only the shape of the
	// request.
	if req.Params.K < 15 || req.Params.K > seq.MaxK {
		return 0, fmt.Errorf("mpidbg: estimate k=%d outside [15,%d]", req.Params.K, seq.MaxK)
	}
	if req.Nodes <= 0 || req.CoresPerNode <= 0 {
		return 0, fmt.Errorf("mpidbg: estimate allocation %d×%d", req.Nodes, req.CoresPerNode)
	}
	p := req.Params.WithDefaults(prof.MinCoverageDefault)
	ranks := req.Nodes * req.CoresPerNode
	cfg := mpi.DefaultConfig(ranks)
	if prof.Network != nil {
		cfg = *prof.Network
		cfg.Ranks = ranks
	}
	cfg.RanksPerNode = req.CoresPerNode

	fullBases := assembler.FullScaleBases(req.FullScale)
	winFrac := 1.0
	if rl := req.FullScale.ReadLen; rl > 0 {
		winFrac = float64(rl-p.K+1) / float64(rl)
		if winFrac < 0.02 {
			winFrac = 0.02
		}
	}
	rate := prof.BasesPerCoreSecond
	serial := vclock.Duration(fullBases * prof.SerialFraction / rate)
	parallel := vclock.Duration(fullBases * (1 - prof.SerialFraction) * winFrac / (rate * float64(ranks)))

	// All-to-all: each rank serializes (ranks-1) sends of
	// wireTotal/ranks² bytes; use the inter-node link when the world
	// spans nodes.
	link := cfg.Intra
	if req.Nodes > 1 {
		link = cfg.Inter
	}
	wireTotal := fullBases * prof.WireBytesPerBase * winFrac
	perPair := int64(wireTotal / float64(ranks) / float64(ranks))
	alltoall := vclock.Duration(float64(ranks-1)) * link.Transfer(perPair)
	// Survivor gather: ring allgather of the distinct-k-mer table.
	survivorTotal := int64(assembler.DistinctKmers(req.FullScale) * 18)
	gather := vclock.Duration(float64(ranks-1))*link.Latency + link.Transfer(survivorTotal)

	return serial + parallel + alltoall + gather, nil
}

// HostBytes estimates the host memory Run holds at its peak for a
// request: the owner tables, and the survivors and graph built beside
// them. The peak follows the read bases more closely than the windows:
// sampled live heap peaks at 3.5-4.8 bytes per base on pcrispa (k 51-63:
// 7-12 per window) and 2.3-4.6 on bglumae (k 35-47: 13-29 per window,
// since its short reads leave most k-mers distinct and the tables
// grow), so 5 bytes per base bounds both.
func HostBytes(req assembler.Request) int64 {
	var bases int64
	for _, r := range req.Reads {
		bases += int64(len(r.Seq))
	}
	return 5 * bases
}

// kmerCount is one surviving k-mer of an owner's partition.
type kmerCount struct {
	km seq.Kmer
	n  uint32
}

// stageLen is the most k-mers a rank stages for one owner before it
// takes the owner's lock to add them: about fifty flushes per rank and
// owner on pcrispa, and at most 8 KB staged per (rank, owner) pair.
const stageLen = 512

// owners is the distributed k-mer count: one table per owner rank,
// filled by every rank under the owner's mutex. A k-mer's owner is
// Hash()%ranks.
type owners struct {
	mu   []sync.Mutex
	tabs []*seq.KmerTable
	// stage is each rank's staging capacity per owner: stageLen, or a
	// rank's even share of an owner's windows when that is smaller (a
	// world of hundreds of ranks would otherwise stage megabytes).
	stage int
}

// newOwners sizes one table per owner for 0.2 distinct k-mers per
// window of the whole request, spread evenly over the owners. Measured
// distinct/windows is 0.18 on pcrispa at k=51 (309 K k-mers in 1.72 M
// windows) and less at larger k, so there no table grows; bglumae's
// shorter windows repeat less and grow once or twice.
func newOwners(reads []seq.Read, k, ranks int) *owners {
	windows := 0
	for _, r := range reads {
		windows += max(len(r.Seq)-k+1, 0)
	}
	o := &owners{
		mu: make([]sync.Mutex, ranks), tabs: make([]*seq.KmerTable, ranks),
		stage: min(stageLen, windows/(ranks*ranks)+1),
	}
	for d := range o.tabs {
		o.tabs[d] = seq.NewKmerTable(windows / 5 / ranks)
	}
	return o
}

// count adds every canonical k-mer of this rank's read shard to its
// owner's table, staging up to o.stage per owner between lock
// acquisitions.
func (o *owners) count(c *mpi.Comm, coder seq.KmerCoder, reads []seq.Read) {
	size := c.Size()
	staged := make([][]seq.Kmer, size)
	for d := range staged {
		staged[d] = make([]seq.Kmer, 0, o.stage)
	}
	flush := func(d int) {
		o.mu[d].Lock()
		for _, km := range staged[d] {
			o.tabs[d].Add(km, 1)
		}
		o.mu[d].Unlock()
		staged[d] = staged[d][:0]
	}
	for i := c.Rank(); i < len(reads); i += size {
		coder.ForEachCanonical(reads[i].Seq, func(_ int, canon seq.Kmer) bool {
			d := int(canon.Hash() % uint64(size))
			if staged[d] = append(staged[d], canon); len(staged[d]) == o.stage {
				flush(d)
			}
			return true
		})
	}
	for d := range staged {
		flush(d)
	}
}

// survivors returns the k-mers of owner's table counted at least
// minCov times, sorted by key, in a slice of exactly their number. It
// must not run before every rank's count has returned.
func (o *owners) survivors(owner int, minCov uint32) []kmerCount {
	tab := o.tabs[owner]
	n := 0
	tab.Each(func(_ int, _ seq.Kmer, cnt uint32) {
		if cnt >= minCov {
			n++
		}
	})
	out := make([]kmerCount, 0, n)
	tab.Each(func(_ int, km seq.Kmer, cnt uint32) {
		if cnt >= minCov {
			out = append(out, kmerCount{km, cnt})
		}
	})
	slices.SortFunc(out, func(a, b kmerCount) int { return a.km.Compare(b.km) })
	return out
}

// Run executes the distributed assembly for a request under a profile.
func Run(req assembler.Request, info assembler.Info, prof Profile) (assembler.Result, error) {
	if err := req.Validate(info); err != nil {
		return assembler.Result{}, err
	}
	p := req.Params.WithDefaults(prof.MinCoverageDefault)
	coder, err := seq.NewKmerCoder(p.K)
	if err != nil {
		return assembler.Result{}, err
	}
	ranks := req.Nodes * req.CoresPerNode

	cfg := mpi.DefaultConfig(ranks)
	if prof.Network != nil {
		cfg = *prof.Network
		cfg.Ranks = ranks
	}
	cfg.RanksPerNode = req.CoresPerNode

	fullBases := assembler.FullScaleBases(req.FullScale)
	// The distributed counting pass scans one window per base position
	// that can host a k-mer, so its work scales with the window
	// fraction (readLen-k+1)/readLen — larger k means fewer windows.
	// The serial graph phase depends on the distinct-k-mer table, not
	// on k, so it stays a fixed fraction of the input volume. This
	// k-dependence is what differentiates the per-k job durations in
	// the paper's Fig. 4 (lower panel).
	winFrac := 1.0
	if rl := req.FullScale.ReadLen; rl > 0 {
		winFrac = float64(rl-p.K+1) / float64(rl)
		if winFrac < 0.02 {
			winFrac = 0.02
		}
	}
	serialUnits := fullBases * prof.SerialFraction
	parallelUnits := fullBases * (1 - prof.SerialFraction) * winFrac
	wireTotal := fullBases * prof.WireBytesPerBase * winFrac

	var contigs []seq.FastaRecord
	own := newOwners(req.Reads, p.K, ranks)
	res, err := mpi.Run(cfg, func(c *mpi.Comm) error {
		size := c.Size()
		// Phase 1: count this rank's read shard, each k-mer straight
		// into its owner's table (hash partitioning).
		own.count(c, coder, req.Reads)
		c.ComputeUnits(parallelUnits/float64(size), prof.BasesPerCoreSecond)

		// Phase 2: the exchange. The counts already sit with their
		// owners, so it carries no payload; it is timed and billed as
		// the routing it stands for, and as a collective it also orders
		// every rank's last flush before any owner reads its table.
		bytes := make([]int64, size)
		perPair := int64(wireTotal / float64(size) / float64(size))
		for d := range bytes {
			bytes[d] = perPair
		}
		c.AlltoAll(make([]any, size), bytes)

		// Phase 3: owner-side coverage cutoff.
		survivors := own.survivors(c.Rank(), uint32(p.MinCoverage))

		// Phase 4: gather survivors; rank 0 simplifies and walks.
		survivorBytes := int64(assembler.DistinctKmers(req.FullScale) * 18 / float64(size))
		all := c.AllGather(survivors, survivorBytes)
		if c.Rank() == 0 {
			gathered := 0
			for _, part := range all {
				gathered += len(part.([]kmerCount))
			}
			g, gerr := dbg.NewSized(p.K, gathered)
			if gerr != nil {
				return gerr
			}
			for _, part := range all {
				for _, kc := range part.([]kmerCount) {
					g.AddCount(kc.km, kc.n)
				}
			}
			c.ComputeUnits(serialUnits, prof.BasesPerCoreSecond)
			contigs = g.Contigs(prof.Prefix, p.MinContigLen)
		}
		c.Barrier()
		return nil
	})
	if err != nil {
		return assembler.Result{}, fmt.Errorf("%s: %w", info.Name, err)
	}
	if len(contigs) == 0 {
		return assembler.Result{}, fmt.Errorf("%s: assembly produced no contigs (k=%d, min coverage %d)",
			info.Name, p.K, p.MinCoverage)
	}
	memFactor := prof.MemoryFactor
	if memFactor <= 0 {
		memFactor = 1
	}
	return assembler.Result{
		Contigs:             contigs,
		TTC:                 res.Elapsed,
		PeakMemoryGBPerNode: assembler.GraphMemoryGB(req.FullScale, req.Nodes) * memFactor,
		Messages:            res.Stats.Messages,
		BytesSent:           res.Stats.BytesSent,
		N50:                 dbg.N50(contigs),
	}, nil
}
