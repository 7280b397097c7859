package dbg

import (
	"math/rand"
	"testing"
	"testing/quick"

	"rnascale/internal/seq"
)

// Property: unitig extraction partitions the graph — every graph
// k-mer appears in exactly one unitig (when no minimum length filters
// apply), and no unitig contains a k-mer absent from the graph.
func TestUnitigPartitionProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	f := func(lenRaw, stepRaw uint8) bool {
		n := 120 + int(lenRaw)
		step := int(stepRaw)%3 + 1
		genome := randomSeqStr(rng, n)
		g, err := Build(shred(genome, 40, step), 15, 1)
		if err != nil {
			return false
		}
		coder := g.Coder()
		want := g.Len()
		seen := map[seq.Kmer]int{}
		for _, u := range g.Unitigs(0) {
			coder.ForEachCanonical(u.Seq, func(_ int, canon seq.Kmer) bool {
				seen[canon]++
				return true
			})
		}
		if len(seen) != want {
			return false
		}
		for km, cnt := range seen {
			if cnt != 1 {
				// Palindromic k-mers can legitimately appear twice in a
				// walk crossing them; tolerate only self-RC cases.
				rc := coder.ReverseComplement(km)
				if rc != km {
					return false
				}
			}
			if g.Coverage(km) == 0 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

// Property: simplification only removes k-mers, never adds.
func TestSimplificationShrinksProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	f := func(lenRaw uint8) bool {
		genome := randomSeqStr(rng, 150+int(lenRaw))
		reads := shred(genome, 40, 1)
		// Random corrupt read to create tips/bubbles.
		if len(reads) > 0 {
			bad := append([]byte{}, reads[0].Seq...)
			bad[len(bad)/2] = "ACGT"[rng.Intn(4)]
			reads = append(reads, seq.Read{ID: "bad", Seq: bad})
		}
		g, err := Build(reads, 15, 1)
		if err != nil {
			return false
		}
		before := g.Len()
		g.ClipTips(15, 3)
		afterTips := g.Len()
		g.PopBubbles(40)
		afterBubbles := g.Len()
		return afterTips <= before && afterBubbles <= afterTips
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}
