package seq

import (
	"math/rand"
	"slices"
	"testing"
)

// The bodies below are what kmer.go shipped before the O(1) strand
// arithmetic: a base-by-base reverse complement, and a forward-window
// iterator whose callers canonicalized every window themselves. They
// stay here as the oracles the replacements are checked against.

func referenceReverseComplement(c KmerCoder, km Kmer) Kmer {
	var rc Kmer
	for i := c.K - 1; i >= 0; i-- {
		code := c.BaseAt(km, i)
		rc = c.shiftAppend(rc, 3-code) // complement of 2-bit code is 3-code
	}
	return rc
}

func referenceForEach(c KmerCoder, s []byte, fn func(pos int, km Kmer) bool) {
	if len(s) < c.K {
		return
	}
	var km Kmer
	valid := 0 // number of consecutive unambiguous bases ending at i
	for i := 0; i < len(s); i++ {
		code, ok := Code(s[i])
		if !ok {
			valid = 0
			km = Kmer{}
			continue
		}
		km = c.shiftAppend(km, code)
		valid++
		if valid >= c.K {
			if !fn(i-c.K+1, km) {
				return
			}
		}
	}
}

// window is one callback of a canonical scan.
type window struct {
	pos   int
	canon Kmer
}

// referenceScan is ForEachCanonical as its call sites used to spell
// it, stopping after the limit-th window (0 = never).
func referenceScan(c KmerCoder, s []byte, limit int) []window {
	var out []window
	referenceForEach(c, s, func(pos int, km Kmer) bool {
		canon := km
		if rc := referenceReverseComplement(c, km); rc.Less(km) {
			canon = rc
		}
		out = append(out, window{pos, canon})
		return len(out) != limit
	})
	return out
}

func scan(c KmerCoder, s []byte, limit int) []window {
	var out []window
	c.ForEachCanonical(s, func(pos int, canon Kmer) bool {
		out = append(out, window{pos, canon})
		return len(out) != limit
	})
	return out
}

// Every K, so both word layouts and the boundary sizes 31, 32 and 33
// are covered, over the extreme bit patterns and seeded random k-mers.
func TestReverseComplementMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(61))
	for k := 1; k <= MaxK; k++ {
		c := MustKmerCoder(k)
		cases := [][]byte{make([]byte, k), make([]byte, k), make([]byte, k), make([]byte, k)}
		for i := 0; i < k; i++ {
			cases[0][i], cases[1][i] = 'A', 'T'
			cases[2][i], cases[3][i] = "AT"[i%2], "GCCG"[i%4]
		}
		for i := 0; i < 200; i++ {
			cases = append(cases, randomSeq(rng, k))
		}
		for _, s := range cases {
			km, _ := c.Encode(s)
			got, want := c.ReverseComplement(km), referenceReverseComplement(c, km)
			if got != want {
				t.Fatalf("k=%d %s: reverse complement %s, the base loop gives %s", k, s, c.String(got), c.String(want))
			}
			if c.ReverseComplement(got) != km {
				t.Fatalf("k=%d %s: reverse complement is not an involution", k, s)
			}
		}
	}
}

// noisyRead is a seeded read with ambiguous bases, lower case and —
// because the ambiguous bases land anywhere — runs shorter than K.
func noisyRead(rng *rand.Rand, n int) []byte {
	s := randomSeq(rng, n)
	for i := range s {
		switch r := rng.Intn(40); {
		case r == 0:
			s[i] = 'N'
		case r == 1:
			s[i] = "RY-*\x00"[rng.Intn(5)]
		case r < 8:
			s[i] |= 0x20 // lower case
		}
	}
	return s
}

func TestForEachCanonicalMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(67))
	for _, k := range []int{1, 2, 5, 21, 31, 32, 33, 47, 63} {
		c := MustKmerCoder(k)
		for i := 0; i < 200; i++ {
			s := noisyRead(rng, rng.Intn(4*k+8))
			want := referenceScan(c, s, 0)
			if got := scan(c, s, 0); !slices.Equal(got, want) {
				t.Fatalf("k=%d %q: %d windows %v, the reference gives %d %v", k, s, len(got), got, len(want), want)
			}
			if len(want) == 0 {
				continue
			}
			limit := 1 + rng.Intn(len(want))
			if got := scan(c, s, limit); !slices.Equal(got, want[:limit]) {
				t.Fatalf("k=%d %q: stopping after %d windows visited %d", k, s, limit, len(got))
			}
		}
	}
}

func FuzzForEachCanonical(f *testing.F) {
	f.Add([]byte("ACGTNACGTacgtTTGCAAC"), uint8(3), uint8(0))
	f.Add([]byte("ACGTACGTACGTACGTACGTACGTACGTACGTACGTACGT"), uint8(33), uint8(2))
	f.Add([]byte("NNNN"), uint8(1), uint8(1))
	f.Add([]byte{}, uint8(63), uint8(0))
	f.Fuzz(func(t *testing.T, s []byte, kRaw, limit uint8) {
		c := MustKmerCoder(int(kRaw)%MaxK + 1)
		got, want := scan(c, s, int(limit)), referenceScan(c, s, int(limit))
		if !slices.Equal(got, want) {
			t.Fatalf("k=%d limit=%d %q: windows %v, the reference gives %v", c.K, limit, s, got, want)
		}
	})
}
