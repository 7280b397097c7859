// Package mpidbg implements the distributed De Bruijn graph assembly
// algorithm shared by the two MPI assemblers (Ray and ABySS):
//
//  1. every rank streams its shard of reads and counts canonical
//     k-mers locally, one table per owner rank (hash partitioning);
//  2. an all-to-all exchange hands each table to its owner, which
//     merges counts and applies the coverage cutoff;
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

// kmerCount is one surviving k-mer of an owner's partition.
type kmerCount struct {
	km seq.Kmer
	n  uint32
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
	res, err := mpi.Run(cfg, func(c *mpi.Comm) error {
		size := c.Size()
		// Phase 1: count this rank's read shard, each k-mer straight
		// into the table bound for its owner (hash partitioning).
		// A table starts with room for 0.4 distinct k-mers per window
		// this rank will route to its owner. Measured over a shard,
		// distinct/windows is 0.33-0.39 on pcrispa (k 51-63) and
		// 0.43-0.73 on bglumae (k 35-47, a few windows per read): up
		// to 0.4 a table never grows, and NewKmerTable's rounding to a
		// power of two leaves at most one doubling for the rest.
		windows := 0
		for i := c.Rank(); i < len(req.Reads); i += size {
			windows += max(len(req.Reads[i].Seq)-p.K+1, 0)
		}
		tabs := make([]*seq.KmerTable, size)
		for d := range tabs {
			tabs[d] = seq.NewKmerTable(windows / size * 2 / 5)
		}
		for i := c.Rank(); i < len(req.Reads); i += size {
			coder.ForEachCanonical(req.Reads[i].Seq, func(_ int, canon seq.Kmer) bool {
				tabs[canon.Hash()%uint64(size)].Add(canon, 1)
				return true
			})
		}
		c.ComputeUnits(parallelUnits/float64(size), prof.BasesPerCoreSecond)

		// Phase 2: the tables are the all-to-all payloads.
		payloads := make([]any, size)
		bytes := make([]int64, size)
		perPair := int64(wireTotal / float64(size) / float64(size))
		for d := range payloads {
			payloads[d] = tabs[d]
			bytes[d] = perPair
		}
		incoming := c.AlltoAll(payloads, bytes)

		// Phase 3: owner-side merge + coverage cutoff.
		// The union of the incoming tables is at least the largest of
		// them and at most their sum; a k-mer worth keeping reaches
		// its owner from several ranks, and measured at 8 ranks the
		// union is 0.38-0.55 of the sum. Room for 0.6 of it spares the
		// power of two the sum would round up to, and growth covers a
		// world too small to repeat anything.
		total, largest := 0, 0
		for _, in := range incoming {
			n := in.(*seq.KmerTable).Len()
			total, largest = total+n, max(largest, n)
		}
		owned := seq.NewKmerTable(max(largest, total*3/5))
		for _, in := range incoming {
			in.(*seq.KmerTable).Each(func(_ int, km seq.Kmer, cnt uint32) { owned.Add(km, cnt) })
		}
		var survivors []kmerCount
		owned.Each(func(_ int, km seq.Kmer, cnt uint32) {
			if cnt >= uint32(p.MinCoverage) {
				survivors = append(survivors, kmerCount{km, cnt})
			}
		})

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
