// Package seq provides the DNA sequence primitives shared by every
// bioinformatics component of rnascale: base encoding, reverse
// complement, quality scores, reads, and FASTA/FASTQ serialization.
//
// Sequences are stored as upper-case ASCII bytes over the alphabet
// {A, C, G, T, N}. The k-mer codec (see kmer.go) packs A/C/G/T into
// two bits per base and supports k up to 63, covering every k-mer size
// used in the paper (35–63).
package seq

import (
	"fmt"
)

// Base codes used by the 2-bit packing. N is not packable; k-mers
// containing N are skipped by k-mer iteration, mirroring the behaviour
// of the assemblers in the paper (Contrail fails outright on N reads,
// which internal/assembler/contrail reproduces).
const (
	BaseA = 0
	BaseC = 1
	BaseG = 2
	BaseT = 3
)

// codeOf maps an ASCII base to its 2-bit code; 0xFF marks a
// non-ACGT byte.
var codeOf [256]byte

// baseOf maps a 2-bit code back to its ASCII base.
var baseOf = [4]byte{'A', 'C', 'G', 'T'}

// complement maps each ASCII base to its complement, identity for
// everything that is not a base (N stays N).
var complement [256]byte

func init() {
	for i := range codeOf {
		codeOf[i] = 0xFF
		complement[i] = byte(i)
	}
	codeOf['A'], codeOf['a'] = BaseA, BaseA
	codeOf['C'], codeOf['c'] = BaseC, BaseC
	codeOf['G'], codeOf['g'] = BaseG, BaseG
	codeOf['T'], codeOf['t'] = BaseT, BaseT
	pairs := []struct{ a, b byte }{{'A', 'T'}, {'C', 'G'}, {'a', 't'}, {'c', 'g'}}
	for _, p := range pairs {
		complement[p.a], complement[p.b] = p.b, p.a
	}
}

// Code returns the 2-bit code of an ASCII base and whether the byte is
// one of A, C, G, T (case-insensitive).
func Code(b byte) (byte, bool) {
	c := codeOf[b]
	return c, c != 0xFF
}

// BaseByte returns the ASCII base for a 2-bit code. It panics on codes
// outside [0,3]; codes only originate from this package.
func BaseByte(code byte) byte { return baseOf[code] }

// IsACGT reports whether every byte of s is an unambiguous base.
func IsACGT(s []byte) bool {
	for _, b := range s {
		if codeOf[b] == 0xFF {
			return false
		}
	}
	return true
}

// CountN reports the number of ambiguous (non-ACGT) bytes in s.
func CountN(s []byte) int {
	n := 0
	for _, b := range s {
		if codeOf[b] == 0xFF {
			n++
		}
	}
	return n
}

// Complement returns the complement of an ASCII base; any other byte
// maps to itself.
func Complement(b byte) byte { return complement[b] }

// ReverseComplement returns the reverse complement of s in a new
// slice. Ambiguous bases map to themselves, so N stays N.
func ReverseComplement(s []byte) []byte {
	out := make([]byte, len(s))
	for i, b := range s {
		out[len(s)-1-i] = complement[b]
	}
	return out
}

// ReverseComplementInPlace reverse-complements s without allocating.
func ReverseComplementInPlace(s []byte) {
	i, j := 0, len(s)-1
	for i < j {
		s[i], s[j] = complement[s[j]], complement[s[i]]
		i++
		j--
	}
	if i == j {
		s[i] = complement[s[i]]
	}
}

// GCContent reports the fraction of G and C bases among unambiguous
// bases of s, or 0 for an empty/all-N sequence.
func GCContent(s []byte) float64 {
	gc, acgt := 0, 0
	for _, b := range s {
		switch codeOf[b] {
		case BaseC, BaseG:
			gc++
			acgt++
		case BaseA, BaseT:
			acgt++
		}
	}
	if acgt == 0 {
		return 0
	}
	return float64(gc) / float64(acgt)
}

// Read is a single sequencing read: an identifier, its bases, and
// per-base Phred+33 qualities. Qual may be nil for FASTA-derived
// sequences.
type Read struct {
	ID   string
	Seq  []byte
	Qual []byte
}

// Validate checks the structural invariants of a read.
func (r *Read) Validate() error {
	if r.ID == "" {
		return fmt.Errorf("seq: read with empty ID")
	}
	if len(r.Seq) == 0 {
		return fmt.Errorf("seq: read %s has empty sequence", r.ID)
	}
	if r.Qual != nil && len(r.Qual) != len(r.Seq) {
		return fmt.Errorf("seq: read %s has %d bases but %d qualities", r.ID, len(r.Seq), len(r.Qual))
	}
	return nil
}

// MeanQuality reports the mean Phred score of the read, or 0 when it
// carries no qualities.
func (r *Read) MeanQuality() float64 {
	if len(r.Qual) == 0 {
		return 0
	}
	sum := 0
	for _, q := range r.Qual {
		sum += int(q) - PhredOffset
	}
	return float64(sum) / float64(len(r.Qual))
}

// PhredOffset is the ASCII offset of Phred+33 quality encoding.
const PhredOffset = 33

// PhredToByte converts a Phred score (0–93) to its ASCII byte.
func PhredToByte(score int) byte {
	if score < 0 {
		score = 0
	}
	if score > 93 {
		score = 93
	}
	return byte(score + PhredOffset)
}

// ByteToPhred converts an ASCII quality byte to its Phred score.
func ByteToPhred(b byte) int { return int(b) - PhredOffset }

// ReadSet is a collection of reads plus pairing metadata. For
// paired-end data, reads 2i and 2i+1 form a fragment, mirroring
// interleaved FASTQ.
type ReadSet struct {
	Reads  []Read
	Paired bool
}

// Fragments reports the number of sequenced fragments (pairs count
// once).
func (rs *ReadSet) Fragments() int {
	if rs.Paired {
		return len(rs.Reads) / 2
	}
	return len(rs.Reads)
}

// TotalBases reports the summed length of all reads.
func (rs *ReadSet) TotalBases() int64 {
	var n int64
	for i := range rs.Reads {
		n += int64(len(rs.Reads[i].Seq))
	}
	return n
}

// ByteSize estimates the FASTQ-serialized size of the read set. It is
// used by the data-transfer and memory cost models.
func (rs *ReadSet) ByteSize() int64 {
	var n int64
	for i := range rs.Reads {
		r := &rs.Reads[i]
		// "@id\nSEQ\n+\nQUAL\n"
		n += int64(1+len(r.ID)+1) + int64(len(r.Seq)+1) + 2 + int64(len(r.Seq)+1)
	}
	return n
}

// Validate checks every read and the pairing invariant.
func (rs *ReadSet) Validate() error {
	if rs.Paired && len(rs.Reads)%2 != 0 {
		return fmt.Errorf("seq: paired read set with odd read count %d", len(rs.Reads))
	}
	for i := range rs.Reads {
		if err := rs.Reads[i].Validate(); err != nil {
			return fmt.Errorf("read %d: %w", i, err)
		}
	}
	return nil
}
