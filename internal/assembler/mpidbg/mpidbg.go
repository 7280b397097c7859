// Package mpidbg implements the distributed De Bruijn graph assembly
// algorithm shared by the two MPI assemblers (Ray and ABySS):
//
//  1. every rank streams its shard of reads and counts each canonical
//     k-mer into its owner rank's table (hash partitioning); the host
//     does this outside the MPI body and keeps each owner's k-mers at
//     or above a floor, the coverage spectrum, which requests sharing
//     a Memo count once per read set, k and rank count;
//  2. an all-to-all exchange, timed as the routing of those counts,
//     ends the counting;
//  3. an all-gather, timed as the owners' parts of the spectrum
//     travelling to every rank, precedes rank 0's serial phase: rank 0
//     merges the parts the host holds, each already sorted by key,
//     into one ascending stream, applies the coverage cutoff and adds
//     the k-mers in that order, so the graph keeps its traversal order
//     as they land and never sorts it; then it simplifies the graph
//     and walks it into contigs (the serial phase that, together with
//     the exchange, limits MPI assemblers' scale-out in the paper's
//     Fig. 3).
//
// The computation is real — the contigs come from the actual reads —
// while virtual time accrues per rank from the profile's calibrated
// rates and the full-scale communication volume. All of that timing
// lives in one MPI program whose collectives carry no payload, so
// Estimate runs the same program without the host work and reports
// Run's TTC, memory and traffic exactly.
package mpidbg

import (
	"fmt"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"

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
	// Inter is the link between two nodes of the cluster; ranks on
	// one node use the MPI default intra-node link.
	Inter vclock.CommCost
}

// Estimate reports what Run reports for the same request, info and
// profile but the contigs and their N50: it runs Run's MPI program
// without the host work, so no read is touched, no graph is built, and
// the TTC, memory and traffic are Run's by construction.
func Estimate(req assembler.Request, info assembler.Info, prof Profile) (assembler.Result, error) {
	if err := req.ValidateShape(info); err != nil {
		return assembler.Result{}, err
	}
	return execute(req, info, prof, nil)
}

// HostBytes estimates the host memory Run holds at its peak for a
// request: the owner tables, and the survivors and graph built beside
// them. The peak follows the read bases more closely than the windows:
// sampled live heap peaks at 3.5-4.8 bytes per base on pcrispa (k 51-63:
// 7-12 per window) and 2.3-4.6 on bglumae (k 35-47: 13-29 per window,
// since its short reads leave most k-mers distinct and the tables
// grow), so 5 bytes per base bounds both. A request that takes a
// spectrum another computed for its Memo holds less, its graph and
// the shared lists (≈1.5 MB per k on pcrispa, not the ≈10 MB tables),
// so it stays under the same bound.
func HostBytes(req assembler.Request) int64 {
	var bases int64
	for _, r := range req.Reads {
		bases += int64(len(r.Seq))
	}
	return 5 * bases
}

// kmerCount is one counted k-mer of an owner's partition.
type kmerCount struct {
	km seq.Kmer
	n  uint32
}

// stageLen is the most k-mers a counting worker stages for one owner
// before it takes the owner's lock to add them: at most 8 KB staged per
// (worker, owner) pair.
const stageLen = 512

// owners is the distributed k-mer count: one table per owner rank,
// filled by every counting worker under the owner's mutex. A k-mer's
// owner is Hash()%ranks.
type owners struct {
	mu   []sync.Mutex
	tabs []*seq.KmerTable
	// stage is each worker's staging capacity per owner: stageLen, or a
	// worker's even share of an owner's windows when that is smaller (a
	// world of hundreds of ranks would otherwise stage megabytes).
	stage int
}

// newOwners sizes one table per owner for 0.2 distinct k-mers per
// window of the whole read set, spread evenly over the owners, for
// workers goroutines to count into. Measured distinct/windows is 0.18
// on pcrispa at k=51 (309 K k-mers in 1.72 M windows) and less at
// larger k, so there no table grows; bglumae's shorter windows repeat
// less and grow once or twice. The tables live only while spectrum
// counts: what outlives them is the owners' lists of k-mers at or
// above the floor.
func newOwners(reads []seq.Read, k, ranks, workers int) *owners {
	windows := 0
	for _, r := range reads {
		windows += max(len(r.Seq)-k+1, 0)
	}
	o := &owners{
		mu: make([]sync.Mutex, ranks), tabs: make([]*seq.KmerTable, ranks),
		stage: min(stageLen, windows/(workers*ranks)+1),
	}
	for d := range o.tabs {
		o.tabs[d] = seq.NewKmerTable(windows / 5 / ranks)
	}
	return o
}

// count adds every canonical k-mer of reads to its owner's table,
// staging up to o.stage per owner between lock acquisitions. Any number
// of counts may run at once over disjoint parts of a read set.
func (o *owners) count(coder seq.KmerCoder, reads []seq.Read) {
	ranks := len(o.tabs)
	staged := make([][]seq.Kmer, ranks)
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
	for _, r := range reads {
		coder.ForEachCanonical(r.Seq, func(_ int, canon seq.Kmer) bool {
			d := int(canon.Hash() % uint64(ranks))
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
// must not run before every count has returned.
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

// merge calls fn for every k-mer of parts in ascending order. Each part
// is sorted by key and no k-mer is in two, as the owners' parts of a
// spectrum are. It keeps the parts' remainders in a min-heap by their
// first k-mer, and reads the parts without changing them.
func merge(parts [][]kmerCount, fn func(kmerCount)) {
	h := make([][]kmerCount, 0, len(parts))
	for _, p := range parts {
		if len(p) > 0 {
			h = append(h, p)
		}
	}
	down := func(i int) {
		for {
			least := i
			for _, c := range [2]int{2*i + 1, 2*i + 2} {
				if c < len(h) && h[c][0].km.Less(h[least][0].km) {
					least = c
				}
			}
			if least == i {
				return
			}
			h[i], h[least] = h[least], h[i]
			i = least
		}
	}
	for i := len(h)/2 - 1; i >= 0; i-- {
		down(i)
	}
	for len(h) > 0 {
		fn(h[0][0])
		if h[0] = h[0][1:]; len(h[0]) == 0 {
			h[0] = h[len(h)-1]
			h = h[:len(h)-1]
		}
		down(0)
	}
}

// spectra counts spectrum calls, so tests can see how many a memo saved.
var spectra atomic.Int64

// spectrum is the k-mer coverage spectrum of reads as ranks owners
// hold it: element d lists the canonical k-mers whose owner is d
// (Hash()%ranks) and that occur at least floor times, with their
// counts, sorted by key. It counts on at most GOMAXPROCS goroutines,
// each over a contiguous part of the reads; the lists do not depend on
// how many.
func spectrum(reads []seq.Read, coder seq.KmerCoder, ranks, floor int) [][]kmerCount {
	spectra.Add(1)
	workers := max(min(ranks, runtime.GOMAXPROCS(0), len(reads)), 1)
	own := newOwners(reads, coder.K, ranks, workers)
	out := make([][]kmerCount, ranks)
	// Each worker counts its part of the reads, waits for every other
	// worker's last flush, then lists its share of the owners.
	var counted, listed sync.WaitGroup
	counted.Add(workers)
	listed.Add(workers)
	for w := range workers {
		go func() {
			defer listed.Done()
			own.count(coder, reads[w*len(reads)/workers:(w+1)*len(reads)/workers])
			counted.Done()
			counted.Wait()
			for d := w; d < ranks; d += workers {
				out[d] = own.survivors(d, uint32(floor))
			}
		}()
	}
	listed.Wait()
	return out
}

// sharedFloor is the floor of the spectrum a memo shares: every
// coverage cutoff at or above it is an exact filter of that spectrum,
// and it drops the singletons, most of a read set's distinct k-mers.
const sharedFloor = 2

// spectrumKey identifies a shared spectrum: the read set, by its first
// read and length, and the k and owner count it is counted at.
type spectrumKey struct {
	first       *seq.Read
	n, k, ranks int
}

// requestSpectrum returns the spectrum of req's reads with every k-mer
// counted at least minCov times, and possibly more: the one req.Memo
// shares at sharedFloor when there is a memo and minCov is at or above
// that floor, else one of its own at minCov.
func requestSpectrum(req assembler.Request, coder seq.KmerCoder, ranks, minCov int) [][]kmerCount {
	if req.Memo == nil || minCov < sharedFloor {
		return spectrum(req.Reads, coder, ranks, minCov)
	}
	key := spectrumKey{&req.Reads[0], len(req.Reads), coder.K, ranks}
	return req.Memo.Do(key, func() any {
		return spectrum(req.Reads, coder, ranks, sharedFloor)
	}).([][]kmerCount)
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
	spec := requestSpectrum(req, coder, req.Nodes*req.CoresPerNode, p.MinCoverage)
	minCov := uint32(p.MinCoverage)
	var contigs []seq.FastaRecord
	// Rank 0 merges every owner's part of the spectrum in key order,
	// adds the k-mers at the coverage cutoff, simplifies and walks.
	res, err := execute(req, info, prof, func() error {
		gathered := 0
		for _, part := range spec {
			for _, kc := range part {
				if kc.n >= minCov {
					gathered++
				}
			}
		}
		g, err := dbg.NewSized(p.K, gathered)
		if err != nil {
			return err
		}
		merge(spec, func(kc kmerCount) {
			if kc.n >= minCov {
				g.AddCount(kc.km, kc.n)
			}
		})
		contigs = g.Contigs(prof.Prefix, p.MinContigLen)
		return nil
	})
	if err != nil {
		return assembler.Result{}, err
	}
	if len(contigs) == 0 {
		return assembler.Result{}, fmt.Errorf("%s: assembly produced no contigs (k=%d, min coverage %d)",
			info.Name, p.K, p.MinCoverage)
	}
	res.Contigs, res.N50 = contigs, dbg.N50(contigs)
	return res, nil
}

// execute runs the MPI program Run and Estimate share, which holds all
// of the assembly's timing, and reports its TTC, memory and traffic.
// graph, when set, is rank 0's host work on the gathered spectrum; it
// runs before rank 0 is billed the serial phase, and its error ends
// the program.
func execute(req assembler.Request, info assembler.Info, prof Profile, graph func() error) (assembler.Result, error) {
	ranks := req.Nodes * req.CoresPerNode
	cfg := mpi.DefaultConfig(ranks)
	cfg.RanksPerNode, cfg.Inter = req.CoresPerNode, prof.Inter

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
		winFrac = float64(rl-req.Params.K+1) / float64(rl)
		if winFrac < 0.02 {
			winFrac = 0.02
		}
	}
	serialUnits := fullBases * prof.SerialFraction
	parallelUnits := fullBases * (1 - prof.SerialFraction) * winFrac
	wireTotal := fullBases * prof.WireBytesPerBase * winFrac

	res, err := mpi.Run(cfg, func(c *mpi.Comm) error {
		size := c.Size()
		// Phase 1: the counting pass over this rank's read shard. The
		// spectrum holds its result, every k-mer counted on its owner
		// (hash partitioning); the rank is billed its share.
		c.ComputeUnits(parallelUnits/float64(size), prof.BasesPerCoreSecond)

		// Phase 2: the exchange. The counts already sit with their
		// owners, so it carries no payload; it is timed and billed as
		// the routing it stands for.
		bytes := make([]int64, size)
		perPair := int64(wireTotal / float64(size) / float64(size))
		for d := range bytes {
			bytes[d] = perPair
		}
		c.AlltoAll(make([]any, size), bytes)

		// Phase 3: gather every owner's part of the spectrum. The host
		// already holds the parts, so this too carries no payload and
		// is billed at the survivors' full-scale bytes; rank 0 then
		// builds and walks the graph in its serial phase.
		c.AllGather(nil, int64(assembler.DistinctKmers(req.FullScale)*18/float64(size)))
		if c.Rank() == 0 {
			if graph != nil {
				if err := graph(); err != nil {
					return err
				}
			}
			c.ComputeUnits(serialUnits, prof.BasesPerCoreSecond)
		}
		c.Barrier()
		return nil
	})
	if err != nil {
		return assembler.Result{}, fmt.Errorf("%s: %w", info.Name, err)
	}
	return assembler.Result{
		TTC:                 res.Elapsed,
		PeakMemoryGBPerNode: assembler.GraphMemoryGB(req.FullScale, req.Nodes) * prof.MemoryFactor,
		Messages:            res.Stats.Messages,
		BytesSent:           res.Stats.BytesSent,
	}, nil
}
