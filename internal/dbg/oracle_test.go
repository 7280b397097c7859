package dbg

import (
	"bytes"
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"rnascale/internal/seq"
)

// The reference traversals are the bodies ClipTips, PopBubbles and
// Unitigs had before the graph kept edge bits: every neighbour question
// is four Finds, asked again each time. They read and delete through
// g.nodes alone and never look at g.adj, so a graph they run on must
// not be handed to the edge-bit traversals afterwards.

func refSlotOf(g *Graph, km seq.Kmer) int {
	canon, _ := g.coder.Canonical(km)
	return g.nodes.Find(canon)
}

func refSuccessors(g *Graph, fwd seq.Kmer) (out [4]seq.Kmer, n int) {
	for _, b := range [4]byte{'A', 'C', 'G', 'T'} {
		next, _ := g.coder.Next(fwd, b)
		if refSlotOf(g, next) >= 0 {
			out[n] = next
			n++
		}
	}
	return out, n
}

func refPredecessors(g *Graph, fwd seq.Kmer) (out [4]seq.Kmer, n int) {
	for _, b := range [4]byte{'A', 'C', 'G', 'T'} {
		prev, _ := g.coder.Prev(fwd, b)
		if refSlotOf(g, prev) >= 0 {
			out[n] = prev
			n++
		}
	}
	return out, n
}

func referenceUnitigs(g *Graph, minLen int) []Unitig {
	visited := make([]bool, g.nodes.Slots())
	var out []Unitig
	for _, slot := range g.sorted() {
		start, _, ok := g.nodes.At(int(slot))
		if !ok || visited[slot] {
			continue
		}
		visited[slot] = true
		covSum := float64(g.coverageAt(int(slot)))
		extend := func(ahead, behind func(*Graph, seq.Kmer) ([4]seq.Kmer, int), base int) []byte {
			var bases []byte
			for cur := start; ; {
				nb, n := ahead(g, cur)
				if n != 1 {
					return bases
				}
				next := refSlotOf(g, nb[0])
				if visited[next] {
					return bases
				}
				if _, back := behind(g, nb[0]); back != 1 {
					return bases
				}
				visited[next] = true
				covSum += float64(g.coverageAt(next))
				cur = nb[0]
				bases = append(bases, seq.BaseByte(g.coder.BaseAt(cur, base)))
			}
		}
		right := extend(refSuccessors, refPredecessors, g.coder.K-1)
		left := extend(refPredecessors, refSuccessors, 0)
		slices.Reverse(left)
		sq := append(append(left, g.coder.Decode(start)...), right...)
		kmers := len(sq) - g.coder.K + 1
		if len(sq) >= minLen {
			out = append(out, Unitig{Seq: sq, MeanCoverage: covSum / float64(kmers), Kmers: kmers})
		}
	}
	return out
}

func referenceClipTips(g *Graph, maxKmers, rounds int) int {
	removedTotal := 0
	for r := 0; r < rounds; r++ {
		var doomed, chain []seq.Kmer
		for _, slot := range g.sorted() {
			km, _, ok := g.nodes.At(int(slot))
			if !ok {
				continue
			}
			for _, fwd := range [2]seq.Kmer{km, g.coder.ReverseComplement(km)} {
				if _, n := refPredecessors(g, fwd); n != 0 {
					continue
				}
				chain = append(chain[:0], fwd)
				cur := fwd
				isTip := false
				for len(chain) <= maxKmers {
					succ, n := refSuccessors(g, cur)
					if n != 1 {
						isTip = true
						break
					}
					next := succ[0]
					if _, n := refPredecessors(g, next); n > 1 {
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
				break
			}
		}
		removed := 0
		for _, km := range doomed {
			if deleteKey(g, km) {
				removed++
			}
		}
		removedTotal += removed
		if removed == 0 {
			break
		}
	}
	return removedTotal
}

func referencePopBubbles(g *Graph, maxArm int) int {
	unaryPath := func(fwd seq.Kmer) (path []seq.Kmer, end seq.Kmer, ok bool) {
		cur := fwd
		for steps := 0; steps < maxArm; steps++ {
			succ, ns := refSuccessors(g, cur)
			_, np := refPredecessors(g, cur)
			if ns != 1 || np > 1 {
				return path, cur, true
			}
			path = append(path, cur)
			cur = succ[0]
		}
		return nil, cur, false
	}
	pathCoverage := func(path []seq.Kmer) (s float64) {
		for _, p := range path {
			canon, _ := g.coder.Canonical(p)
			s += float64(g.Coverage(canon))
		}
		return s
	}
	removed := 0
	for _, slot := range g.sorted() {
		km, _, ok := g.nodes.At(int(slot))
		if !ok {
			continue
		}
		for _, fwd := range [2]seq.Kmer{km, g.coder.ReverseComplement(km)} {
			succ, n := refSuccessors(g, fwd)
			if n != 2 {
				continue
			}
			pathA, endA, okA := unaryPath(succ[0])
			pathB, endB, okB := unaryPath(succ[1])
			if !okA || !okB {
				continue
			}
			ca, _ := g.coder.Canonical(endA)
			cb, _ := g.coder.Canonical(endB)
			if ca != cb {
				continue
			}
			drop := pathA
			if pathCoverage(pathB) < pathCoverage(pathA) {
				drop = pathB
			}
			for _, p := range drop {
				canon, _ := g.coder.Canonical(p)
				if deleteKey(g, canon) {
					removed++
				}
			}
		}
	}
	return removed
}

// deleteKey removes km from the graph's table and reports whether it
// was there.
func deleteKey(g *Graph, km seq.Kmer) bool {
	slot := g.nodes.Find(km)
	if slot >= 0 {
		g.nodes.DeleteAt(slot)
	}
	return slot >= 0
}

func referenceDropBelow(g *Graph, min uint32) {
	g.nodes.Each(func(_ int, km seq.Kmer, c uint32) {
		if c < min {
			deleteKey(g, km)
		}
	})
}

// twins returns two graphs holding the same k-mer counts, one for the
// edge-bit traversals and one for the references.
func twins(t *testing.T, k int, reads [][]byte) (g, ref *Graph) {
	t.Helper()
	var pair [2]*Graph
	for i := range pair {
		ng, err := New(k)
		if err != nil {
			t.Fatal(err)
		}
		for _, r := range reads {
			ng.AddRead(r)
		}
		pair[i] = ng
	}
	return pair[0], pair[1]
}

// referenceEdges is the sweep edges was before it asked about each
// edge once: all eight possible neighbours of every k-mer, each one
// canonicalised and looked up on its own.
func referenceEdges(g *Graph) []byte {
	adj := make([]byte, g.nodes.Slots())
	has := func(km seq.Kmer) bool { return refSlotOf(g, km) >= 0 }
	g.nodes.Each(func(slot int, km seq.Kmer, _ uint32) {
		var a byte
		for b := 0; b < 4; b++ {
			if next, _ := g.coder.Next(km, bases[b]); has(next) {
				a |= 1 << b
			}
			if prev, _ := g.coder.Prev(km, bases[b]); has(prev) {
				a |= 16 << b
			}
		}
		adj[slot] = a
	})
	return adj
}

// referenceSorted is the sort every traversal order came from before
// ascending runs: the k-mers present, sorted beside their slots.
func referenceSorted(g *Graph) []int32 {
	type entry struct {
		km   seq.Kmer
		slot int32
	}
	var entries []entry
	g.nodes.Each(func(slot int, km seq.Kmer, _ uint32) { entries = append(entries, entry{km, int32(slot)}) })
	slices.SortFunc(entries, func(a, b entry) int { return a.km.Compare(b.km) })
	order := make([]int32, len(entries))
	for i, e := range entries {
		order[i] = e.slot
	}
	return order
}

// checkEdges asserts adj, as given, equals the eight-probe reference
// over the k-mers g holds.
func checkEdges(t *testing.T, g *Graph, adj []byte, what string) {
	t.Helper()
	want := referenceEdges(g)
	if bytes.Equal(adj, want) {
		return
	}
	for s := range want {
		if adj[s] != want[s] {
			km, _, ok := g.nodes.At(s)
			t.Fatalf("%s: slot %d (%s, live %v) has edge byte %08b, the eight-probe reference %08b",
				what, s, string(g.coder.Decode(km)), ok, adj[s], want[s])
		}
	}
}

// checkOrder asserts the traversal order, less the slots whose k-mer is
// gone, equals the reference sort.
func checkOrder(t *testing.T, g *Graph, what string) {
	t.Helper()
	var live []int32
	for _, slot := range g.sorted() {
		if _, _, ok := g.nodes.At(int(slot)); ok {
			live = append(live, slot)
		}
	}
	if want := referenceSorted(g); !slices.Equal(live, want) {
		t.Fatalf("%s: traversal order %v, the reference sort %v", what, live, want)
	}
}

// checkAdjExact asserts the adjacency bytes deletions have been
// maintaining, and a from-scratch rebuild over the surviving k-mers,
// both equal the eight-probe reference.
func checkAdjExact(t *testing.T, g *Graph, after string) {
	t.Helper()
	if g.adj == nil {
		return
	}
	checkEdges(t, g, g.adj, "maintained after "+after)
	g.adj = nil
	g.edges()
	checkEdges(t, g, g.adj, "rebuilt after "+after)
}

// checkSameNodes asserts both graphs hold the same k-mers and counts.
func checkSameNodes(t *testing.T, g, ref *Graph, after string) {
	t.Helper()
	if g.Len() != ref.Len() {
		t.Fatalf("after %s: %d k-mers, reference has %d", after, g.Len(), ref.Len())
	}
	ref.nodes.Each(func(_ int, km seq.Kmer, c uint32) {
		if got := g.Coverage(km); got != c {
			t.Fatalf("after %s: %s has coverage %d, reference %d", after, string(ref.coder.Decode(km)), got, c)
		}
	})
}

func checkSameUnitigs(t *testing.T, g, ref *Graph, minLen int, after string) {
	t.Helper()
	got, want := g.Unitigs(minLen), referenceUnitigs(ref, minLen)
	if len(got) != len(want) {
		t.Fatalf("after %s: %d unitigs, reference %d", after, len(got), len(want))
	}
	for i := range want {
		if !bytes.Equal(got[i].Seq, want[i].Seq) || got[i].MeanCoverage != want[i].MeanCoverage || got[i].Kmers != want[i].Kmers {
			t.Fatalf("after %s: unitig %d is %s cov %v, reference %s cov %v",
				after, i, got[i].Seq, got[i].MeanCoverage, want[i].Seq, want[i].MeanCoverage)
		}
	}
}

// simplifyBoth drives the same interleaving of traversals and
// deletions through the edge-bit graph and the reference graph,
// comparing every return value, the surviving k-mers, the unitigs and
// the maintained adjacency bytes after each step.
func simplifyBoth(t *testing.T, g, ref *Graph, tip, arm int, min uint32) {
	t.Helper()
	checkSameUnitigs(t, g, ref, 0, "build")
	checkAdjExact(t, g, "build")
	steps := []struct {
		name     string
		run, ref func() int
	}{
		{"DropBelow", func() int { g.DropBelow(min); return 0 }, func() int { referenceDropBelow(ref, min); return 0 }},
		{"ClipTips", func() int { return g.ClipTips(tip, 3) }, func() int { return referenceClipTips(ref, tip, 3) }},
		{"PopBubbles", func() int { return g.PopBubbles(arm) }, func() int { return referencePopBubbles(ref, arm) }},
		{"ClipTips again", func() int { return g.ClipTips(tip+1, 1) }, func() int { return referenceClipTips(ref, tip+1, 1) }},
		{"DropBelow again", func() int { g.DropBelow(min + 1); return 0 }, func() int { referenceDropBelow(ref, min+1); return 0 }},
		{"PopBubbles again", func() int { return g.PopBubbles(arm) }, func() int { return referencePopBubbles(ref, arm) }},
	}
	for _, s := range steps {
		if got, want := s.run(), s.ref(); got != want {
			t.Fatalf("%s removed %d k-mers, reference %d", s.name, got, want)
		}
		checkSameNodes(t, g, ref, s.name)
		checkAdjExact(t, g, s.name)
		checkSameUnitigs(t, g, ref, 0, s.name)
	}
}

// Seeded random read sets over genomes with repeats, mutated copies
// (bubbles), truncated erroneous reads (tips) and both strands, at odd
// and even k (even k admits palindromic k-mers).
func TestEdgeBitTraversalsMatchReference(t *testing.T) {
	for _, k := range []int{4, 5, 8, 15, 16, 31} {
		for seed := int64(0); seed < 12; seed++ {
			t.Run(fmt.Sprintf("k%d/seed%d", k, seed), func(t *testing.T) {
				rng := rand.New(rand.NewSource(1000*int64(k) + seed))
				// A small alphabet-poor genome at small k makes repeats,
				// self-loops and palindromes common.
				genome := []byte(randomSeqStr(rng, 60+rng.Intn(240)))
				if seed%3 == 0 {
					genome = append(genome, genome[len(genome)/3:len(genome)/2]...)
				}
				var reads [][]byte
				readLen := 2*k + 6
				for c := 0; c < 3; c++ {
					for s := rng.Intn(3); s+readLen <= len(genome); s += 1 + rng.Intn(4) {
						r := append([]byte(nil), genome[s:s+readLen]...)
						switch rng.Intn(8) {
						case 0: // substitution: a bubble, or a tip near a read end
							r[rng.Intn(len(r))] = "ACGT"[rng.Intn(4)]
						case 1:
							r = seq.ReverseComplement(r)
						case 2:
							r[rng.Intn(len(r))] = 'N'
						}
						reads = append(reads, r)
					}
				}
				g, ref := twins(t, k, reads)
				simplifyBoth(t, g, ref, k, 2*k+10, 2)
			})
		}
	}
}

// spine is one linear path at k=7 (TestClipTipsLengthBoundary checks
// it); tipOf branches off its middle with n k-mers that lead nowhere.
const spine = "ACAGCTACATGGCTGCGGGGCTCGCCTGAAGTGAAACCGC"

func tipOf(k, n int) []byte {
	mid := len(spine) / 2
	tail := []byte("TTTGTGTGGTTGTTTGGGTGTTTTGGTGTGGGTTGTG")
	return append([]byte(spine[mid-k+1:mid]), tail[:n]...)
}

// Hand-built graphs for the shapes random reads rarely produce.
func TestEdgeBitTraversalsOnHandBuiltGraphs(t *testing.T) {
	cases := []struct {
		name  string
		k     int
		reads []string
		tip   int
	}{
		{"palindromic k-mers", 4, []string{"ACGTACGTAATTGGCCAT", "TTAATTAAGCGCAT"}, 4},
		{"homopolymer self-loop", 5, []string{"CGAAAAAAAAAAGC", "GGTTTTTTTTCA"}, 5},
		{"hairpin", 5, []string{"GATTCCGGAATCAA", "CATGGACGTCCATG"}, 5},
		{"tandem repeat cycle", 5, []string{"ACGCTACGCTACGCTACGCTAC"}, 5},
		{"isolated short chain", 7, []string{spine, "GGGGGGGCC"}, 7},
		{"tip of exactly maxKmers", 7, []string{spine, spine, string(tipOf(7, 7))}, 7},
		{"tip of maxKmers+1", 7, []string{spine, spine, string(tipOf(7, 8))}, 7},
		{"tips on both strands", 7, []string{spine, spine, string(tipOf(7, 5)), string(seq.ReverseComplement(tipOf(7, 6)))}, 7},
		{"bubble", 7, []string{spine, spine, spine[:18] + "T" + spine[19:]}, 2},
		{"folded path", 7, []string{"ACGGTCATTGCAGGCTTAACCGATGCATCGGAATTCGTA"}, 7},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			reads := make([][]byte, len(c.reads))
			for i, r := range c.reads {
				reads[i] = []byte(r)
			}
			g, ref := twins(t, c.k, reads)
			simplifyBoth(t, g, ref, c.tip, 2*c.k+10, 2)
			// And with nothing dropped by coverage first.
			g, ref = twins(t, c.k, reads)
			simplifyBoth(t, g, ref, c.tip, 2*c.k+10, 0)
		})
	}
}

// The tip-length boundary itself, not just agreement with the
// reference: a dead end of maxKmers k-mers goes, one of maxKmers+1
// stays.
func TestClipTipsLengthBoundary(t *testing.T) {
	const k = 7
	for _, n := range []int{k, k + 1} {
		g, _ := New(k)
		g.AddRead([]byte(spine))
		if removed := g.ClipTips(k, 3); removed != 0 {
			t.Fatalf("the bare spine lost %d k-mers", removed)
		}
		g.AddRead(tipOf(k, n))
		before := g.Len()
		removed := g.ClipTips(k, 3)
		if want := map[int]int{k: k, k + 1: 0}[n]; removed != want || g.Len() != before-want {
			t.Errorf("tip of %d k-mers at maxKmers=%d: removed %d, want %d", n, k, removed, want)
		}
		checkAdjExact(t, g, "ClipTips")
	}
}

// A new k-mer drops the adjacency bytes with the traversal order; a
// count added to a k-mer already present keeps both.
func TestEdgeBitsDroppedOnInsert(t *testing.T) {
	g, _ := New(5)
	g.AddRead([]byte("ACGGTCATTGCAGG"))
	before := len(g.Unitigs(0))
	if g.adj == nil || g.order == nil {
		t.Fatal("a traversal left no adjacency bytes or order behind")
	}
	km := kmerOf(g.coder, "ACGGT")
	canon, _ := g.coder.Canonical(km)
	g.AddCount(canon, 3)
	if g.adj == nil || g.order == nil {
		t.Error("a count for a k-mer already present dropped the adjacency bytes")
	}
	g.AddRead([]byte("TTTTTTT"))
	if g.adj != nil || g.order != nil {
		t.Error("a new k-mer kept the adjacency bytes")
	}
	if got := len(g.Unitigs(0)); got != before+1 {
		t.Errorf("%d unitigs before the new k-mer, %d after; want one more", before, got)
	}
	checkAdjExact(t, g, "rebuild")
}

// randomReads shreds a random genome over alphabet into reads on both
// strands, some with a substituted base (tips and bubbles) or an N.
func randomReads(rng *rand.Rand, alphabet string, k int) [][]byte {
	genome := make([]byte, 40+rng.Intn(160))
	for i := range genome {
		genome[i] = alphabet[rng.Intn(len(alphabet))]
	}
	var reads [][]byte
	readLen := 2*k + 6
	for s := 0; s+readLen <= len(genome); s += 1 + rng.Intn(3) {
		r := append([]byte(nil), genome[s:s+readLen]...)
		switch rng.Intn(6) {
		case 0:
			r[rng.Intn(len(r))] = "ACGT"[rng.Intn(4)]
		case 1:
			r = seq.ReverseComplement(r)
		case 2:
			r[rng.Intn(len(r))] = 'N'
		}
		reads = append(reads, r)
	}
	return reads
}

// spectrumOf counts the reads' canonical k-mers and returns them with
// their counts in ascending order.
func spectrumOf(t *testing.T, k int, reads [][]byte) (kmers []seq.Kmer, counts []uint32) {
	t.Helper()
	g, err := New(k)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range reads {
		g.AddRead(r)
	}
	for _, slot := range referenceSorted(g) {
		km, c, _ := g.nodes.At(int(slot))
		kmers, counts = append(kmers, km), append(counts, c)
	}
	return kmers, counts
}

// fills are the three ways a graph gets its k-mers: read by read (the
// sort), ascending into a table sized for them (the order kept as they
// land), and ascending into a table that grows on the way (the sort
// again).
var fills = []struct {
	name string
	fill func(t *testing.T, k int, reads [][]byte) *Graph
}{
	{"read by read", func(t *testing.T, k int, reads [][]byte) *Graph {
		g, _ := New(k)
		for _, r := range reads {
			g.AddRead(r)
		}
		return g
	}},
	{"ascending, sized", func(t *testing.T, k int, reads [][]byte) *Graph {
		kmers, counts := spectrumOf(t, k, reads)
		g, _ := NewSized(k, len(kmers))
		for i, km := range kmers {
			g.AddCount(km, counts[i])
		}
		return g
	}},
	{"ascending, growing", func(t *testing.T, k int, reads [][]byte) *Graph {
		kmers, counts := spectrumOf(t, k, reads)
		g, _ := New(k)
		for i, km := range kmers {
			g.AddCount(km, counts[i])
		}
		return g
	}},
}

// Seeded random graphs over one-, two- and four-letter alphabets, at
// odd and even k: even k admits palindromic k-mers and k-mers that
// neighbour their own reverse complement, and a small alphabet makes
// them and self-loops common. However the graph was filled, its edge
// bytes equal the eight-probe reference's and its traversal order the
// reference sort's, after the build and after each round of deletions,
// and the unitigs do not depend on the fill.
func TestEdgesMatchEightProbeReference(t *testing.T) {
	for _, k := range []int{1, 2, 3, 4, 5, 6, 9, 16, 31} {
		for _, alphabet := range []string{"A", "AT", "AC", "ACGT"} {
			for seed := int64(0); seed < 4; seed++ {
				t.Run(fmt.Sprintf("k%d/%s/seed%d", k, alphabet, seed), func(t *testing.T) {
					rng := rand.New(rand.NewSource(100*int64(k) + 10*int64(len(alphabet)) + seed))
					reads := randomReads(rng, alphabet, k)
					var want []Unitig
					for i, f := range fills {
						g := f.fill(t, k, reads)
						checkOrder(t, g, f.name+", build")
						g.edges()
						checkEdges(t, g, g.adj, f.name+", build")
						g.ClipTips(k, 3)
						checkEdges(t, g, g.adj, f.name+", ClipTips")
						checkOrder(t, g, f.name+", ClipTips")
						g.PopBubbles(2*k + 10)
						checkEdges(t, g, g.adj, f.name+", PopBubbles")
						checkOrder(t, g, f.name+", PopBubbles")
						got := g.Unitigs(0)
						if i == 0 {
							want = got
						} else if !slices.EqualFunc(got, want, func(a, b Unitig) bool {
							return bytes.Equal(a.Seq, b.Seq) && a.MeanCoverage == b.MeanCoverage && a.Kmers == b.Kmers
						}) {
							t.Fatalf("%s: unitigs differ from %s's", f.name, fills[0].name)
						}
					}
				})
			}
		}
	}
}

// A graph filled in ascending order into a table that does not grow
// keeps its traversal order as the k-mers land: the first traversal
// finds it built, in the one allocation made for it, and sorts
// nothing. A k-mer out of order, a growth of the table or an insertion
// after a deletion ends the run and drops the order, and the next
// traversal sorts; a run too short to record, or a fill in no order,
// allocates none.
func TestTraversalOrderFromAscendingRun(t *testing.T) {
	const k = 21
	rng := rand.New(rand.NewSource(7))
	kmers, counts := spectrumOf(t, k, [][]byte{[]byte(randomSeqStr(rng, 600))})
	n := len(kmers)
	add := func(g *Graph, idx ...int) {
		for _, i := range idx {
			g.AddCount(kmers[i], counts[i])
		}
	}
	upTo := func(lo, hi int) []int {
		var idx []int
		for i := lo; i < hi; i++ {
			idx = append(idx, i)
		}
		return idx
	}
	sized := func() *Graph { g, _ := NewSized(k, n); return g }

	t.Run("ascending into a sized table", func(t *testing.T) {
		g := sized()
		add(g, upTo(0, runStart)...)
		if g.order == nil {
			t.Fatalf("a run of %d k-mers recorded no order", runStart)
		}
		first := &g.order[0]
		add(g, upTo(runStart, n)...)
		if &g.order[0] != first {
			t.Error("the order was reallocated while the run grew")
		}
		if got := g.sorted(); &got[0] != first {
			t.Error("the first traversal sorted a graph filled in ascending order")
		}
		checkOrder(t, g, "ascending fill")
		// A traversal leaves the run open: more k-mers above the last
		// still join the order.
		g2 := sized()
		add(g2, upTo(0, n/2)...)
		g2.Unitigs(0)
		add(g2, upTo(n/2, n)...)
		if g2.order == nil || &g2.order[0] != &g2.sorted()[0] {
			t.Error("k-mers added in order after a traversal dropped the order")
		}
		checkOrder(t, g2, "ascending fill around a traversal")
	})
	t.Run("a k-mer out of order", func(t *testing.T) {
		g := sized()
		add(g, upTo(0, n/2)...)
		add(g, upTo(n/2+1, n)...)
		add(g, n/2)
		if g.order != nil {
			t.Fatal("a k-mer below the last kept the order")
		}
		checkOrder(t, g, "out-of-order insert")
	})
	t.Run("a table growth", func(t *testing.T) {
		g, _ := New(k)
		slots := g.nodes.Slots()
		i := 0
		for ; g.nodes.Slots() == slots; i++ {
			add(g, i)
		}
		if g.order != nil {
			t.Fatalf("the table grew at k-mer %d and kept the order", i)
		}
		add(g, upTo(i, n)...)
		if g.order != nil {
			t.Fatal("k-mers added in order after a growth rebuilt the order")
		}
		checkOrder(t, g, "growth")
	})
	t.Run("an insertion after a deletion", func(t *testing.T) {
		g := sized()
		add(g, upTo(0, n/2)...)
		g.remove(g.nodes.Find(kmers[3]))
		if g.order == nil {
			t.Fatal("a deletion dropped the order")
		}
		checkOrder(t, g, "deletion")
		add(g, upTo(n/2, n)...)
		if g.order != nil {
			t.Fatal("an insertion after a deletion kept the order")
		}
		checkOrder(t, g, "insertion after a deletion")
	})
	t.Run("a short run", func(t *testing.T) {
		g := sized()
		add(g, upTo(0, runStart-1)...)
		if g.order != nil {
			t.Fatalf("a run of %d k-mers allocated an order", runStart-1)
		}
		checkOrder(t, g, "short run")
	})
	t.Run("no order", func(t *testing.T) {
		g := sized()
		for _, i := range rng.Perm(n) {
			add(g, i)
			if g.order != nil {
				t.Fatalf("k-mers in shuffled order allocated an order, at k-mer %d", i)
			}
		}
		checkOrder(t, g, "shuffled fill")
	})
}
