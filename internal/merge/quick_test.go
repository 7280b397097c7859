package merge

import (
	"math/rand"
	"testing"
	"testing/quick"

	"rnascale/internal/seq"
)

// Property: merging is idempotent — running Merge on its own output
// changes nothing.
func TestMergeIdempotentProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	f := func(nRaw, lenRaw uint8) bool {
		n := int(nRaw)%12 + 1
		var set []seq.FastaRecord
		for i := 0; i < n; i++ {
			set = append(set, rec(randSeq(rng, 45+int(lenRaw)%150)))
		}
		once, _ := Merge([][]seq.FastaRecord{set}, DefaultOptions())
		twice, _ := Merge([][]seq.FastaRecord{once}, DefaultOptions())
		if len(once) != len(twice) {
			return false
		}
		for i := range once {
			if string(once[i].Seq) != string(twice[i].Seq) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// Property: merging never invents sequence — every output k-mer
// occurs in some input contig (strand-insensitively).
func TestMergeConservativeProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	const k = 15
	coder := seq.MustKmerCoder(k)
	f := func(nRaw uint8) bool {
		n := int(nRaw)%10 + 1
		var set []seq.FastaRecord
		inKmers := map[seq.Kmer]bool{}
		for i := 0; i < n; i++ {
			s := randSeq(rng, 60+rng.Intn(120))
			set = append(set, rec(s))
			coder.ForEachCanonical([]byte(s), func(_ int, c seq.Kmer) bool {
				inKmers[c] = true
				return true
			})
		}
		out, _ := Merge([][]seq.FastaRecord{set}, DefaultOptions())
		for _, c := range out {
			bad := false
			coder.ForEachCanonical(c.Seq, func(_ int, canon seq.Kmer) bool {
				if !inKmers[canon] {
					bad = true
					return false
				}
				return true
			})
			if bad {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// Property: output bases never exceed input bases (containment and
// overlap both shrink or preserve the pool; joins dedup the overlap).
func TestMergeVolumeProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	f := func(nRaw uint8) bool {
		n := int(nRaw)%10 + 1
		var set []seq.FastaRecord
		for i := 0; i < n; i++ {
			set = append(set, rec(randSeq(rng, 50+rng.Intn(200))))
		}
		out, st := Merge([][]seq.FastaRecord{set}, DefaultOptions())
		_ = out
		return st.OutputBases <= st.InputBases
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Error(err)
	}
}
