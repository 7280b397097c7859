// Package dbg implements the De Bruijn graph core shared by every
// assembler in this reproduction (Table I: Ray, ABySS and Contrail are
// all DBG assemblers, as are Rnnotator's single-node options).
//
// The graph stores canonical k-mers with coverage counts. An edge is a
// (k-1)-overlap between two k-mers present; the graph keeps them as one
// byte of edge bits per k-mer (ABySS's representation), derived from
// the k-mer set the first time a traversal runs, so the footprint stays
// proportional to the k-mer partition. Simplification follows the
// standard recipe: tip clipping, simple bubble popping, then maximal
// non-branching path (unitig) extraction.
package dbg

import (
	"cmp"
	"fmt"
	"math/bits"
	"slices"

	"rnascale/internal/seq"
)

// Graph is a canonical-k-mer De Bruijn graph.
type Graph struct {
	coder seq.KmerCoder
	nodes seq.KmerTable // canonical k-mer -> coverage
	// order lists the slots of nodes in canonical k-mer order, the
	// order PopBubbles and Unitigs visit them in. Deleting a k-mer
	// leaves it valid (traversals skip slots whose key is gone). While
	// the k-mers arrive in ascending order into a table that has
	// neither grown nor lost one (mpidbg's rank 0 adds its merged
	// spectrum so), AddCount keeps it from the slots they land in and
	// no traversal sorts. Any other new k-mer ends that run and drops
	// order, and the first traversal after sorts the table's k-mers
	// into it, as every traversal of a graph filled unsorted does.
	order []int32
	// run counts the k-mers of that ascending run, or is -1 once it
	// has ended; tail is the slot of its last k-mer.
	run, tail int32
	// adj holds one byte of edge bits per slot of nodes, for the
	// canonical k-mer in the slot: bit b says that appending base b
	// (seq's 2-bit code) gives a k-mer the graph holds, bit 4+b that
	// prepending it does. Read on the other strand the same k-mer has
	// the byte bit-reversed: appending b to the reverse complement is
	// prepending 3-b to the k-mer. The first traversal builds it, remove
	// keeps it exact and, like order, a new k-mer drops it.
	adj []byte
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
	return &Graph{coder: coder, nodes: *seq.NewKmerTable(n)}, nil
}

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
	slots := g.nodes.Slots()
	slot, inserted := g.nodes.Add(canonical, count)
	if !inserted {
		return
	}
	g.adj = nil
	if g.run < 0 || g.nodes.Slots() != slots || g.run > 0 && !g.key(int(g.tail)).Less(canonical) {
		g.order, g.run = nil, -1
		return
	}
	g.run++
	g.tail = int32(slot)
	switch {
	case g.run == runStart:
		// The table holds exactly the run's k-mers: one pass finds
		// their slots, and order gets room for every k-mer the table
		// takes before it grows (it keeps a quarter of its slots empty).
		g.order = make([]int32, 0, g.nodes.Slots()-g.nodes.Slots()/4)
		g.nodes.Each(func(slot int, _ seq.Kmer, _ uint32) { g.order = append(g.order, int32(slot)) })
		slices.SortFunc(g.order, func(a, b int32) int { return g.key(int(a)).Compare(g.key(int(b))) })
	case g.run > runStart:
		g.order = append(g.order, int32(slot))
	}
}

// runStart is how long an ascending run grows before order records it.
// An order costs an allocation, and k-mers that arrive in read or hash
// order break a run within a few k-mers, so until then it is counted,
// not recorded.
const runStart = 16

// key returns the k-mer held in a slot.
func (g *Graph) key(slot int) seq.Kmer {
	km, _, _ := g.nodes.At(slot)
	return km
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
	g.nodes.Each(func(slot int, _ seq.Kmer, c uint32) {
		if c < min {
			g.remove(slot)
		}
	})
}

// sorted returns the traversal order, sorting the k-mers into it if
// neither an ascending run nor a traversal since the last new k-mer has
// left one.
func (g *Graph) sorted() []int32 {
	if g.order == nil {
		g.run = -1
		// Sorting the k-mers beside their slots keeps the comparisons
		// off the table.
		type entry struct {
			km   seq.Kmer
			slot int32
		}
		entries := make([]entry, 0, g.nodes.Len())
		g.nodes.Each(func(slot int, km seq.Kmer, _ uint32) { entries = append(entries, entry{km, int32(slot)}) })
		slices.SortFunc(entries, func(a, b entry) int { return a.km.Compare(b.km) })
		g.order = make([]int32, len(entries))
		for i, e := range entries {
			g.order[i] = e.slot
		}
	}
	return g.order
}

// bases maps seq's 2-bit codes to the bytes KmerCoder.Next and Prev take.
const bases = "ACGT"

// edges builds the adjacency bytes if no traversal has since the last
// new k-mer: the one sweep that asks the table about each edge once.
// Of the eight possible neighbours of a k-mer it asks about those whose
// canonical form is not below the k-mer's, and sets the edge's bit on
// both ends; the sweep over each smaller neighbour sets the rest.
func (g *Graph) edges() {
	if g.adj != nil {
		return
	}
	g.adj = make([]byte, g.nodes.Slots())
	g.nodes.Each(func(slot int, km seq.Kmer, _ uint32) {
		// A neighbour's reverse complement is one shift of km's: the
		// complement of the base km gains, at the other end.
		rc := g.coder.ReverseComplement(km)
		first, last := int(g.coder.BaseAt(km, 0)), int(g.coder.BaseAt(km, g.coder.K-1))
		for b := 0; b < 4; b++ {
			next, _ := g.coder.Next(km, bases[b])
			nextRC, _ := g.coder.Prev(rc, bases[3-b])
			g.link(slot, km, 1<<b, next, nextRC, 4+first)
			prev, _ := g.coder.Prev(km, bases[b])
			prevRC, _ := g.coder.Next(rc, bases[3-b])
			g.link(slot, km, 16<<b, prev, prevRC, last)
		}
	})
}

// link sets the edge between the canonical k-mer km in slot and its
// neighbour nb (reverse complement nbRC) if the graph holds nb and nb's
// canonical form is not below km: bit on km's side, and on nb's the bit
// numbered back as the oriented nb reads it, as clearEdge clears it.
func (g *Graph) link(slot int, km seq.Kmer, bit byte, nb, nbRC seq.Kmer, back int) {
	canon := nb
	if nbRC.Less(nb) {
		canon = nbRC
	}
	if canon.Less(km) {
		return
	}
	other := g.nodes.Find(canon)
	if other < 0 {
		return
	}
	g.adj[slot] |= bit
	if !nbRC.Less(nb) {
		g.adj[other] |= 1 << back
	}
	if !nb.Less(nbRC) {
		g.adj[other] |= 1 << (7 - back)
	}
}

// remove deletes the k-mer held in slot, if one still is, and clears
// the edge bits its neighbours hold for it. Every deletion goes through
// here, which is what keeps adj exact once built. It ends an ascending
// run: the tombstone it leaves may make the next insertion re-lay the
// table without growing it.
func (g *Graph) remove(slot int) bool {
	km, _, ok := g.nodes.At(slot)
	if !ok {
		return false
	}
	g.run = -1
	if g.adj != nil {
		// To the k-mer one base on, km is the neighbour reached by
		// prepending km's first base; to the one one base back, by
		// appending km's last.
		first, last := int(g.coder.BaseAt(km, 0)), int(g.coder.BaseAt(km, g.coder.K-1))
		for b := 0; b < 4; b++ {
			if g.adj[slot]&(1<<b) != 0 {
				next, _ := g.coder.Next(km, bases[b])
				g.clearEdge(next, 4+first)
			}
			if g.adj[slot]&(16<<b) != 0 {
				prev, _ := g.coder.Prev(km, bases[b])
				g.clearEdge(prev, last)
			}
		}
		g.adj[slot] = 0
	}
	g.nodes.DeleteAt(slot)
	return true
}

// clearEdge clears one edge bit of a k-mer the graph holds, the bit
// numbered as the oriented k-mer km reads it. A k-mer that is its own
// reverse complement reads the edge on both strands and loses both
// bits.
func (g *Graph) clearEdge(km seq.Kmer, bit int) {
	rc := g.coder.ReverseComplement(km)
	if !rc.Less(km) {
		g.adj[g.nodes.Find(km)] &^= 1 << bit
	}
	if !km.Less(rc) {
		g.adj[g.nodes.Find(rc)] &^= 1 << (7 - bit)
	}
}

// node is a k-mer of the graph as a walk reads it: the oriented k-mer,
// the slot of its canonical form, and whether it is that form.
type node struct {
	km    seq.Kmer
	slot  int
	canon bool
}

// flip returns the same k-mer read on the other strand.
func (g *Graph) flip(n node) node {
	return node{g.coder.ReverseComplement(n.km), n.slot, !n.canon}
}

// around returns the edge bits of n in its own orientation: bit b of
// succ (pred) is set when appending (prepending) base b stays in the
// graph.
func (g *Graph) around(n node) (succ, pred byte) {
	a := g.adj[n.slot]
	if !n.canon {
		a = bits.Reverse8(a)
	}
	return a & 0xF, a >> 4
}

// many reports whether a nibble of edge bits holds more than one edge.
func many(edges byte) bool { return edges&(edges-1) != 0 }

// only returns the base of the single edge in a nibble of edge bits;
// ok is false when there is none or more than one.
func only(edges byte) (base int, ok bool) {
	return bits.TrailingZeros8(edges), edges != 0 && !many(edges)
}

// step returns the successor of n by base b, which the edge bits say
// the graph holds: the one Find a walk pays per k-mer it moves onto.
func (g *Graph) step(n node, b int) node {
	km, _ := g.coder.Next(n.km, bases[b])
	canon, isCanon := g.coder.Canonical(km)
	return node{km, g.nodes.Find(canon), isCanon}
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
	g.edges()
	w := walker{g: g, visited: make([]bool, g.nodes.Slots())}
	var out []Unitig
	for _, slot := range g.sorted() {
		start, _, ok := g.nodes.At(int(slot))
		if !ok || w.visited[slot] {
			continue
		}
		u := w.walk(node{start, int(slot), true})
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
	covSum      float64
	left, right []byte
}

// walk extends from start (canonical) in both directions while the
// path is non-branching, marking visited canonical k-mers.
func (w *walker) walk(start node) Unitig {
	g := w.g
	w.visited[start.slot] = true
	w.covSum = float64(g.coverageAt(start.slot))
	// Walking left of start is walking right of its reverse complement,
	// where each base taken is the complement of the 5' base the path
	// gains (collected nearest first).
	w.right = w.extend(start, bases, w.right[:0])
	w.left = w.extend(g.flip(start), "TGCA", w.left[:0])
	sq := make([]byte, 0, len(w.left)+g.coder.K+len(w.right))
	sq = append(sq, w.left...)
	slices.Reverse(sq)
	sq = append(append(sq, g.coder.Decode(start.km)...), w.right...)
	kmers := len(sq) - g.coder.K + 1
	return Unitig{Seq: sq, MeanCoverage: w.covSum / float64(kmers), Kmers: kmers}
}

// extend walks forward from cur while the only k-mer ahead is unvisited
// and has the walk's end as its only k-mer behind, and collects the
// letter of each base it takes.
func (w *walker) extend(cur node, letters string, out []byte) []byte {
	g := w.g
	for {
		succ, _ := g.around(cur)
		b, ok := only(succ)
		if !ok {
			return out
		}
		next := g.step(cur, b)
		if w.visited[next.slot] {
			return out
		}
		if _, pred := g.around(next); many(pred) {
			return out
		}
		w.visited[next.slot] = true
		w.covSum += float64(g.coverageAt(next.slot))
		cur = next
		out = append(out, letters[b])
	}
}

// ClipTips removes dead-end chains of at most maxKmers k-mers that
// terminate at a branch — the classic error-tip clean-up. It returns
// the number of k-mers removed and iterates to a fixed point (bounded
// by rounds).
func (g *Graph) ClipTips(maxKmers, rounds int) int {
	g.edges()
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

// clipOnce is one round. It collects the doomed k-mers and deletes
// them after the scan, so a round sees one graph whatever order it
// scans in — slot order, where the dead ends are a byte test away.
func (g *Graph) clipOnce(maxKmers int) int {
	var doomed, chain []int32
	g.nodes.Each(func(slot int, km seq.Kmer, _ uint32) {
		// A tip starts at a k-mer with no predecessors (in some
		// orientation) and runs through a short unary chain.
		cur := node{km, slot, true}
		if a := g.adj[slot]; a>>4 != 0 {
			if a&0xF != 0 {
				return
			}
			cur = g.flip(cur)
		}
		chain = append(chain[:0], int32(slot))
		isTip := false
		for len(chain) <= maxKmers {
			succ, _ := g.around(cur)
			b, ok := only(succ)
			if !ok {
				// A branch ends the tip; an isolated short chain
				// (no successor) is dropped too.
				isTip = true
				break
			}
			next := g.step(cur, b)
			if _, pred := g.around(next); many(pred) {
				// The chain merges into a through-path: tip ends here.
				isTip = true
				break
			}
			chain = append(chain, int32(next.slot))
			cur = next
		}
		if isTip && len(chain) <= maxKmers {
			doomed = append(doomed, chain...)
		}
	})
	removed := 0
	for _, slot := range doomed {
		if g.remove(int(slot)) {
			removed++
		}
	}
	return removed
}

// PopBubbles removes the lower-coverage arm of simple two-arm bubbles
// (divergence at one branch node, reconvergence within maxArm k-mers).
// It returns the number of k-mers removed.
func (g *Graph) PopBubbles(maxArm int) int {
	g.edges()
	removed := 0
	var arms [2][]int32
	for _, slot := range g.sorted() {
		km, _, ok := g.nodes.At(int(slot))
		if !ok {
			continue
		}
		fwd := node{km, int(slot), true}
		for _, n := range [2]node{fwd, g.flip(fwd)} {
			succ, _ := g.around(n)
			if bits.OnesCount8(succ) != 2 {
				continue
			}
			// The arm by the lower base first, as it breaks coverage ties.
			var ends [2]node
			ended := true
			for i := range arms {
				b := bits.TrailingZeros8(succ)
				succ &= succ - 1
				var armEnded bool
				arms[i], ends[i], armEnded = g.unaryPath(g.step(n, b), maxArm, arms[i][:0])
				ended = ended && armEnded
			}
			if !ended || ends[0].slot != ends[1].slot {
				continue
			}
			// Same reconvergence point: drop the lower-coverage arm.
			drop := arms[0]
			if g.pathCoverage(arms[1]) < g.pathCoverage(arms[0]) {
				drop = arms[1]
			}
			for _, p := range drop {
				if g.remove(int(p)) {
					removed++
				}
			}
		}
	}
	return removed
}

// unaryPath follows a strictly unary chain from n for at most max
// k-mers, appending the interior path's slots to path and returning
// the node where it ends (first node with degree ≠ 1 in either
// direction).
func (g *Graph) unaryPath(n node, max int, path []int32) ([]int32, node, bool) {
	for steps := 0; steps < max; steps++ {
		succ, pred := g.around(n)
		b, ok := only(succ)
		if !ok || many(pred) {
			return path, n, true
		}
		path = append(path, int32(n.slot))
		n = g.step(n, b)
	}
	return path, n, false
}

// pathCoverage sums coverage along a path of slots.
func (g *Graph) pathCoverage(path []int32) float64 {
	var s float64
	for _, p := range path {
		s += float64(g.coverageAt(int(p)))
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
