package seq

import (
	"bytes"
	"math/rand"
	"testing"
)

func benchReads(n, l int) []Read {
	rng := rand.New(rand.NewSource(1))
	reads := make([]Read, n)
	for i := range reads {
		q := make([]byte, l)
		for j := range q {
			q[j] = PhredToByte(30 + rng.Intn(10))
		}
		reads[i] = Read{ID: "r", Seq: randomSeq(rng, l), Qual: q}
	}
	return reads
}

func BenchmarkKmerForEachCanonical(b *testing.B) {
	c := MustKmerCoder(31)
	reads := benchReads(100, 100)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var n int
		for j := range reads {
			c.ForEachCanonical(reads[j].Seq, func(_ int, _ Kmer) bool {
				n++
				return true
			})
		}
	}
}

func BenchmarkKmerCanonical(b *testing.B) {
	c := MustKmerCoder(47)
	rng := rand.New(rand.NewSource(2))
	km, _ := c.encode(randomSeq(rng, 47))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		km, _ = c.Canonical(km)
	}
	_ = km
}

func BenchmarkFastqWriteParse(b *testing.B) {
	reads := benchReads(200, 100)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var buf bytes.Buffer
		if err := WriteFastq(&buf, reads); err != nil {
			b.Fatal(err)
		}
		if _, err := ParseFastq(&buf); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkComputeStats(b *testing.B) {
	rs := ReadSet{Reads: benchReads(500, 100)}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ComputeStats(rs)
	}
}
