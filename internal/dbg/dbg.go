// Package dbg implements the De Bruijn graph core shared by every
// assembler in this reproduction (Table I: Ray, ABySS and Contrail are
// all DBG assemblers, as are Rnnotator's single-node options).
//
// The graph stores canonical k-mers with coverage counts; edges are
// implicit — a (k-1)-overlap neighbour exists iff its canonical form
// is present — which is the memory-lean representation that makes the
// per-node footprint of distributed assemblers proportional to their
// k-mer partition. Simplification follows the standard recipe: tip
// clipping, simple bubble popping, then maximal non-branching path
// (unitig) extraction.
package dbg

import (
	"cmp"
	"fmt"
	"slices"

	"rnascale/internal/obs/perf"
	"rnascale/internal/seq"
)

// Graph is a canonical-k-mer De Bruijn graph.
type Graph struct {
	coder seq.KmerCoder
	nodes *seq.KmerTable // canonical k-mer -> coverage
	// order lists the slots of nodes in canonical k-mer order, the
	// order every traversal visits them in. The first traversal builds
	// it and the rest reuse it: deleting a k-mer leaves it valid
	// (traversals skip slots whose key is gone), adding a new one may
	// move every key to another slot and drops it.
	order []int32
}

// New returns an empty graph for k-mer size k.
func New(k int) (*Graph, error) { return NewSized(k, 0) }

// NewSized is New with room for n distinct k-mers, for callers that
// know how many they are about to add.
func NewSized(k, n int) (*Graph, error) {
	coder, err := seq.NewKmerCoder(k)
	if err != nil {
		return nil, err
	}
	return &Graph{coder: coder, nodes: seq.NewKmerTable(n)}, nil
}

// K reports the k-mer size.
func (g *Graph) K() int { return g.coder.K }

// Len reports the number of distinct canonical k-mers.
func (g *Graph) Len() int { return g.nodes.Len() }

// Coder exposes the graph's k-mer codec.
func (g *Graph) Coder() seq.KmerCoder { return g.coder }

// AddRead counts every k-mer of the read (N-containing windows are
// skipped by the codec).
func (g *Graph) AddRead(read []byte) {
	g.coder.ForEachCanonical(read, func(_ int, canon seq.Kmer) bool {
		g.AddCount(canon, 1)
		return true
	})
}

// AddCount merges an externally-counted canonical k-mer (used by the
// distributed assemblers, whose ranks count partitions separately).
func (g *Graph) AddCount(canonical seq.Kmer, count uint32) {
	if g.nodes.Add(canonical, count) {
		g.order = nil
	}
}

// Coverage reports a canonical k-mer's count (0 if absent).
func (g *Graph) Coverage(canonical seq.Kmer) uint32 {
	slot := g.nodes.Find(canonical)
	if slot < 0 {
		return 0
	}
	return g.coverageAt(slot)
}

func (g *Graph) coverageAt(slot int) uint32 {
	_, c, _ := g.nodes.At(slot)
	return c
}

// Build constructs a graph from reads and drops k-mers below
// minCount (sequencing-error removal).
func Build(reads []seq.Read, k, minCount int) (*Graph, error) {
	defer perf.Region("dbg.build").End()
	g, err := New(k)
	if err != nil {
		return nil, err
	}
	for i := range reads {
		g.AddRead(reads[i].Seq)
	}
	g.DropBelow(uint32(minCount))
	return g, nil
}

// DropBelow removes k-mers with coverage below min.
func (g *Graph) DropBelow(min uint32) {
	g.nodes.Each(func(_ int, km seq.Kmer, c uint32) {
		if c < min {
			g.nodes.Delete(km)
		}
	})
}

// sorted returns the traversal order, building it if no traversal has
// since the last new k-mer.
func (g *Graph) sorted() []int32 {
	if g.order == nil {
		g.order = make([]int32, 0, g.nodes.Len())
		g.nodes.Each(func(slot int, _ seq.Kmer, _ uint32) { g.order = append(g.order, int32(slot)) })
		slices.SortFunc(g.order, func(a, b int32) int {
			ka, _, _ := g.nodes.At(int(a))
			kb, _, _ := g.nodes.At(int(b))
			return ka.Compare(kb)
		})
	}
	return g.order
}

// slotOf returns the slot of the canonical form of km, or -1 if the
// graph does not hold it.
func (g *Graph) slotOf(km seq.Kmer) int {
	canon, _ := g.coder.Canonical(km)
	return g.nodes.Find(canon)
}

// successors returns the forward extensions of the oriented k-mer fwd
// that exist in the graph, as oriented k-mers, and how many there are.
func (g *Graph) successors(fwd seq.Kmer) (out [4]seq.Kmer, n int) {
	for _, b := range [4]byte{'A', 'C', 'G', 'T'} {
		next, _ := g.coder.Next(fwd, b)
		if g.slotOf(next) >= 0 {
			out[n] = next
			n++
		}
	}
	return out, n
}

// predecessors returns the backward extensions of the oriented k-mer.
func (g *Graph) predecessors(fwd seq.Kmer) (out [4]seq.Kmer, n int) {
	for _, b := range [4]byte{'A', 'C', 'G', 'T'} {
		prev, _ := g.coder.Prev(fwd, b)
		if g.slotOf(prev) >= 0 {
			out[n] = prev
			n++
		}
	}
	return out, n
}

// Unitig is one maximal non-branching path.
type Unitig struct {
	Seq          []byte
	MeanCoverage float64
	Kmers        int
}

// Unitigs extracts every maximal non-branching path at least minLen
// bases long, in deterministic order.
func (g *Graph) Unitigs(minLen int) []Unitig {
	defer perf.Region("dbg.unitigs").End()
	w := walker{g: g, visited: make([]bool, g.nodes.Slots())}
	var out []Unitig
	for _, slot := range g.sorted() {
		start, _, ok := g.nodes.At(int(slot))
		if !ok || w.visited[slot] {
			continue
		}
		u := w.walk(start, int(slot))
		if len(u.Seq) >= minLen {
			out = append(out, u)
		}
	}
	return out
}

// walker is the state of one Unitigs pass: the canonical k-mers
// already on a path, by slot, and the bases the current walk has
// collected on either side of its start.
type walker struct {
	g           *Graph
	visited     []bool
	left, right []byte
}

// walk extends from start (canonical) in both directions while the
// path is non-branching, marking visited canonical k-mers.
func (w *walker) walk(start seq.Kmer, slot int) Unitig {
	g := w.g
	w.visited[slot] = true
	covSum := float64(g.coverageAt(slot))
	// extend walks from start while the only neighbour ahead is
	// unvisited and has the walk's end as its only neighbour behind,
	// and collects the base each k-mer it takes adds to the path.
	extend := func(ahead, behind func(seq.Kmer) ([4]seq.Kmer, int), base int, bases []byte) []byte {
		for cur := start; ; {
			nb, n := ahead(cur)
			if n != 1 {
				return bases
			}
			next := g.slotOf(nb[0])
			if w.visited[next] {
				return bases
			}
			if _, back := behind(nb[0]); back != 1 {
				return bases
			}
			w.visited[next] = true
			covSum += float64(g.coverageAt(next))
			cur = nb[0]
			bases = append(bases, seq.BaseByte(g.coder.BaseAt(cur, base)))
		}
	}
	// Right of the start orientation each k-mer adds its 3' base, left
	// of it its 5' base (collected nearest first).
	w.right = extend(g.successors, g.predecessors, g.coder.K-1, w.right[:0])
	w.left = extend(g.predecessors, g.successors, 0, w.left[:0])
	sq := make([]byte, 0, len(w.left)+g.coder.K+len(w.right))
	sq = append(sq, w.left...)
	slices.Reverse(sq)
	sq = append(append(sq, g.coder.Decode(start)...), w.right...)
	kmers := len(sq) - g.coder.K + 1
	return Unitig{Seq: sq, MeanCoverage: covSum / float64(kmers), Kmers: kmers}
}

// ClipTips removes dead-end chains of at most maxKmers k-mers that
// terminate at a branch — the classic error-tip clean-up. It returns
// the number of k-mers removed and iterates to a fixed point (bounded
// by rounds).
func (g *Graph) ClipTips(maxKmers, rounds int) int {
	defer perf.Region("dbg.cliptips").End()
	removedTotal := 0
	for r := 0; r < rounds; r++ {
		removed := g.clipOnce(maxKmers)
		removedTotal += removed
		if removed == 0 {
			break
		}
	}
	return removedTotal
}

func (g *Graph) clipOnce(maxKmers int) int {
	var doomed, chain []seq.Kmer
	for _, slot := range g.sorted() {
		km, _, ok := g.nodes.At(int(slot))
		if !ok {
			continue
		}
		// A tip starts at a k-mer with no predecessors (in some
		// orientation) and runs through a short unary chain.
		for _, fwd := range [2]seq.Kmer{km, g.coder.ReverseComplement(km)} {
			if _, n := g.predecessors(fwd); n != 0 {
				continue
			}
			chain = append(chain[:0], fwd)
			cur := fwd
			isTip := false
			for len(chain) <= maxKmers {
				succ, n := g.successors(cur)
				if n != 1 {
					// A branch ends the tip; an isolated short chain
					// (no successor) is dropped too.
					isTip = true
					break
				}
				next := succ[0]
				if _, n := g.predecessors(next); n > 1 {
					// The chain merges into a through-path: tip ends here.
					isTip = true
					break
				}
				chain = append(chain, next)
				cur = next
			}
			if isTip && len(chain) <= maxKmers {
				for _, c := range chain {
					canon, _ := g.coder.Canonical(c)
					doomed = append(doomed, canon)
				}
			}
			break // only consider each node once per round
		}
	}
	removed := 0
	for _, km := range doomed {
		if g.nodes.Delete(km) {
			removed++
		}
	}
	return removed
}

// PopBubbles removes the lower-coverage arm of simple two-arm bubbles
// (divergence at one branch node, reconvergence within maxArm k-mers).
// It returns the number of k-mers removed.
func (g *Graph) PopBubbles(maxArm int) int {
	defer perf.Region("dbg.popbubbles").End()
	removed := 0
	for _, slot := range g.sorted() {
		km, _, ok := g.nodes.At(int(slot))
		if !ok {
			continue
		}
		for _, fwd := range [2]seq.Kmer{km, g.coder.ReverseComplement(km)} {
			succ, n := g.successors(fwd)
			if n != 2 {
				continue
			}
			pathA, endA, okA := g.unaryPath(succ[0], maxArm)
			pathB, endB, okB := g.unaryPath(succ[1], maxArm)
			if !okA || !okB {
				continue
			}
			ca, _ := g.coder.Canonical(endA)
			cb, _ := g.coder.Canonical(endB)
			if ca != cb {
				continue
			}
			// Same reconvergence point: drop the lower-coverage arm.
			drop := pathA
			if g.pathCoverage(pathB) < g.pathCoverage(pathA) {
				drop = pathB
			}
			for _, p := range drop {
				canon, _ := g.coder.Canonical(p)
				if g.nodes.Delete(canon) {
					removed++
				}
			}
		}
	}
	return removed
}

// unaryPath follows a strictly unary chain from fwd for at most max
// k-mers, returning the interior path and the node where it ends
// (first node with degree ≠ 1 in either direction).
func (g *Graph) unaryPath(fwd seq.Kmer, max int) (path []seq.Kmer, end seq.Kmer, ok bool) {
	cur := fwd
	for steps := 0; steps < max; steps++ {
		succ, ns := g.successors(cur)
		_, np := g.predecessors(cur)
		if ns != 1 || np > 1 {
			return path, cur, true
		}
		path = append(path, cur)
		cur = succ[0]
	}
	return nil, cur, false
}

// pathCoverage sums coverage along a path.
func (g *Graph) pathCoverage(path []seq.Kmer) float64 {
	var s float64
	for _, p := range path {
		canon, _ := g.coder.Canonical(p)
		s += float64(g.Coverage(canon))
	}
	return s
}

// Contigs runs the standard simplification pipeline and renders
// unitigs as FASTA records, longest first.
func (g *Graph) Contigs(prefix string, minLen int) []seq.FastaRecord {
	g.ClipTips(g.coder.K, 3)
	g.PopBubbles(2*g.coder.K + 10)
	return RecordsFromUnitigs(prefix, g.Unitigs(minLen))
}

// RecordsFromUnitigs renders unitigs as FASTA records, longest first,
// with the standard "<prefix>_contigNNNNN len=L cov=C" IDs.
func RecordsFromUnitigs(prefix string, unitigs []Unitig) []seq.FastaRecord {
	slices.SortStableFunc(unitigs, func(a, b Unitig) int { return cmp.Compare(len(b.Seq), len(a.Seq)) })
	out := make([]seq.FastaRecord, len(unitigs))
	for i, u := range unitigs {
		out[i] = seq.FastaRecord{
			ID:  fmt.Sprintf("%s_contig%05d len=%d cov=%.1f", prefix, i, len(u.Seq), u.MeanCoverage),
			Seq: u.Seq,
		}
	}
	return out
}

// N50 reports the standard assembly contiguity statistic over contig
// lengths: the length L such that contigs of length ≥ L cover half
// the total assembly.
func N50(contigs []seq.FastaRecord) int {
	if len(contigs) == 0 {
		return 0
	}
	lens := make([]int, len(contigs))
	total := 0
	for i, c := range contigs {
		lens[i] = len(c.Seq)
		total += len(c.Seq)
	}
	slices.SortFunc(lens, func(a, b int) int { return cmp.Compare(b, a) })
	acc := 0
	for _, l := range lens {
		acc += l
		if acc*2 >= total {
			return l
		}
	}
	return lens[len(lens)-1]
}
