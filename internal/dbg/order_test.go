package dbg

import (
	"bytes"
	"math/rand"
	"testing"

	"rnascale/internal/seq"
	"rnascale/internal/simdata"
)

// The contigs depend on the k-mer multiset alone: not on the order
// the k-mers arrive in, on whether a count arrives whole or in parts,
// on how often the node table grows on the way, or on a traversal
// having frozen its order before the last k-mer arrived.
func TestContigsIndependentOfInsertionOrder(t *testing.T) {
	ds, err := simdata.Generate(simdata.Tiny())
	if err != nil {
		t.Fatal(err)
	}
	const k = 21
	coder := seq.MustKmerCoder(k)
	counts := map[seq.Kmer]uint32{}
	for _, r := range ds.Reads.Reads {
		coder.ForEachCanonical(r.Seq, func(_ int, canon seq.Kmer) bool {
			counts[canon]++
			return true
		})
	}
	type add struct {
		km seq.Kmer
		n  uint32
	}
	var whole, units []add
	for km, n := range counts {
		if n < 2 {
			continue
		}
		whole = append(whole, add{km, n})
		for i := uint32(0); i < n; i++ {
			units = append(units, add{km, 1})
		}
	}
	contigs := func(adds []add, seed int64, g *Graph, traverseAt int) []byte {
		adds = append([]add(nil), adds...)
		rand.New(rand.NewSource(seed)).Shuffle(len(adds), func(i, j int) { adds[i], adds[j] = adds[j], adds[i] })
		for i, a := range adds {
			if i == traverseAt {
				g.Unitigs(0)
			}
			g.AddCount(a.km, a.n)
		}
		var buf bytes.Buffer
		if err := seq.WriteFasta(&buf, g.Contigs("c", 2*k), 0); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	grown := func() *Graph { g, _ := New(k); return g }
	want := contigs(whole, 1, grown(), -1)
	if len(want) == 0 {
		t.Fatal("no contigs to compare")
	}
	sized, _ := NewSized(k, len(whole))
	for name, got := range map[string][]byte{
		"another order":                 contigs(whole, 2, grown(), -1),
		"unit increments":               contigs(units, 3, grown(), -1),
		"pre-sized, no growth":          contigs(whole, 4, sized, -1),
		"traversal before the last add": contigs(whole, 5, grown(), len(whole)/2),
	} {
		if !bytes.Equal(got, want) {
			t.Errorf("%s: contigs differ from the reference order's", name)
		}
	}
}
