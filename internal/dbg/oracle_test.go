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

// checkAdjExact asserts the adjacency bytes deletions have been
// maintaining equal a from-scratch rebuild over the surviving k-mers.
func checkAdjExact(t *testing.T, g *Graph, after string) {
	t.Helper()
	if g.adj == nil {
		return
	}
	kept := append([]byte(nil), g.adj...)
	g.adj = nil
	g.edges()
	if !bytes.Equal(kept, g.adj) {
		for s := range kept {
			if kept[s] != g.adj[s] {
				km, _, ok := g.nodes.At(s)
				t.Fatalf("after %s: slot %d (%s, live %v) has edge byte %08b, a rebuild gives %08b",
					after, s, g.coder.String(km), ok, kept[s], g.adj[s])
			}
		}
	}
}

// checkSameNodes asserts both graphs hold the same k-mers and counts.
func checkSameNodes(t *testing.T, g, ref *Graph, after string) {
	t.Helper()
	if g.Len() != ref.Len() {
		t.Fatalf("after %s: %d k-mers, reference has %d", after, g.Len(), ref.Len())
	}
	ref.nodes.Each(func(_ int, km seq.Kmer, c uint32) {
		if got := g.Coverage(km); got != c {
			t.Fatalf("after %s: %s has coverage %d, reference %d", after, ref.coder.String(km), got, c)
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
	km, _ := g.coder.Encode([]byte("ACGGT"))
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
