package seq

import (
	"bytes"
	"math/rand"
	"testing"
	"testing/quick"
)

// quickReads builds a deterministic generator of random read sets for
// testing/quick properties.
func quickReads(rng *rand.Rand, n int) []Read {
	reads := make([]Read, n)
	for i := range reads {
		l := 1 + rng.Intn(80)
		q := make([]byte, l)
		for j := range q {
			q[j] = PhredToByte(rng.Intn(42))
		}
		reads[i] = Read{ID: "r" + string(rune('A'+i%26)), Seq: randomSeq(rng, l), Qual: q}
	}
	return reads
}

// Property: FASTQ serialization round-trips arbitrary ACGT reads.
func TestFastqRoundtripProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	f := func(nRaw uint8) bool {
		reads := quickReads(rng, int(nRaw%20)+1)
		var buf bytes.Buffer
		if err := WriteFastq(&buf, reads); err != nil {
			return false
		}
		back, err := ParseFastq(&buf)
		if err != nil || len(back) != len(reads) {
			return false
		}
		for i := range reads {
			if back[i].ID != reads[i].ID || !bytes.Equal(back[i].Seq, reads[i].Seq) ||
				!bytes.Equal(back[i].Qual, reads[i].Qual) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

// Property: for every supported k, Encode∘Decode is the identity and
// canonicalization is strand-invariant.
func TestKmerCodecProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(47))
	f := func(kRaw uint8) bool {
		k := int(kRaw)%MaxK + 1
		c := MustKmerCoder(k)
		s := randomSeq(rng, k)
		km, ok := c.encode(s)
		if !ok || !bytes.Equal(c.Decode(km), s) {
			return false
		}
		rcKm, ok := c.encode(ReverseComplement(s))
		if !ok {
			return false
		}
		c1, _ := c.Canonical(km)
		c2, _ := c.Canonical(rcKm)
		return c1 == c2
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// Property: sliding with Next matches re-encoding the shifted window.
func TestKmerNextConsistencyProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(53))
	f := func(kRaw uint8) bool {
		k := int(kRaw)%62 + 2
		c := MustKmerCoder(k)
		s := randomSeq(rng, k+1)
		km, _ := c.encode(s[:k])
		next, ok := c.Next(km, s[k])
		if !ok {
			return false
		}
		want, _ := c.encode(s[1:])
		return next == want
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}
