package dbg

import (
	"testing"

	"rnascale/internal/seq"
)

// FuzzEdges checks the one-probe-per-edge sweep against the eight-probe
// reference on arbitrary read bytes at any k: after the build, and on
// the bytes tip clipping and bubble popping keep while they delete.
func FuzzEdges(f *testing.F) {
	f.Add([]byte("ACGTACGTAATTGGCCAT"), uint8(4))
	f.Add([]byte("CGAAAAAAAAAAGC"), uint8(5))
	f.Add([]byte("ATATATATATAT"), uint8(2))
	f.Add([]byte("GATTCCGGAATCAANNACGT"), uint8(1))
	f.Add([]byte("ACGGTCATTGCAGGCTTAACCGATGCATCGGAATTCGTA"), uint8(7))
	f.Fuzz(func(t *testing.T, read []byte, kRaw uint8) {
		k := 1 + int(kRaw)%seq.MaxK
		g, err := New(k)
		if err != nil {
			t.Fatal(err)
		}
		// The read on both strands, so every k-mer has company.
		g.AddRead(read)
		g.AddRead(seq.ReverseComplement(read))
		g.edges()
		checkEdges(t, g, g.adj, "build")
		g.ClipTips(2, 1)
		checkEdges(t, g, g.adj, "ClipTips")
		g.PopBubbles(2*k + 10)
		checkEdges(t, g, g.adj, "PopBubbles")
	})
}
