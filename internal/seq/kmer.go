package seq

import (
	"cmp"
	"fmt"
	"math/bits"
)

// MaxK is the largest supported k-mer size. Two uint64 words hold 2
// bits per base, so 64 bases would fit, but we cap at 63 so that the
// paper's largest k (63) is covered while keeping a spare bit pattern
// for sentinel use.
const MaxK = 63

// Kmer is a 2-bit packed k-mer of up to MaxK bases. The base at
// position 0 (5' end) occupies the most significant bits, so that
// integer comparison of equal-length k-mers matches lexicographic
// comparison of their strings.
//
// Kmer is a value type and is usable as a map key.
type Kmer struct {
	Hi, Lo uint64
}

// KmerCoder packs and unpacks k-mers of one fixed size k.
type KmerCoder struct {
	K int
}

// NewKmerCoder returns a coder for size k, or an error for k outside
// [1, MaxK].
func NewKmerCoder(k int) (KmerCoder, error) {
	if k < 1 || k > MaxK {
		return KmerCoder{}, fmt.Errorf("seq: k-mer size %d outside [1,%d]", k, MaxK)
	}
	return KmerCoder{K: k}, nil
}

// MustKmerCoder is NewKmerCoder for statically known sizes.
func MustKmerCoder(k int) KmerCoder {
	c, err := NewKmerCoder(k)
	if err != nil {
		panic(err)
	}
	return c
}

// encode packs the first K bases of s. It returns ok=false when s is
// shorter than K or contains an ambiguous base within the window.
func (c KmerCoder) encode(s []byte) (Kmer, bool) {
	if len(s) < c.K {
		return Kmer{}, false
	}
	var km Kmer
	for i := 0; i < c.K; i++ {
		code, ok := Code(s[i])
		if !ok {
			return Kmer{}, false
		}
		km = c.shiftAppend(km, code)
	}
	return km, true
}

// shiftAppend shifts the k-mer left by one base and appends code at
// the 3' end, dropping the 5' base if the k-mer is full. The caller
// maintains the "full" invariant; within encode the partial k-mer
// never exceeds K bases.
func (c KmerCoder) shiftAppend(km Kmer, code byte) Kmer {
	km.Hi = km.Hi<<2 | km.Lo>>62
	km.Lo = km.Lo<<2 | uint64(code)
	return c.mask(km)
}

// mask clears bits above 2K.
func (c KmerCoder) mask(km Kmer) Kmer {
	bits := 2 * c.K
	if bits <= 64 {
		km.Hi = 0
		if bits < 64 {
			km.Lo &= 1<<uint(bits) - 1
		}
		return km
	}
	hiBits := bits - 64
	km.Hi &= 1<<uint(hiBits) - 1
	return km
}

// Next slides the k-mer window one base: it drops the 5' base and
// appends b. It returns ok=false when b is ambiguous.
func (c KmerCoder) Next(km Kmer, b byte) (Kmer, bool) {
	code, ok := Code(b)
	if !ok {
		return Kmer{}, false
	}
	return c.shiftAppend(km, code), true
}

// Prev slides the k-mer window one base left: it drops the 3' base
// and prepends b at the 5' end. It returns ok=false when b is
// ambiguous.
func (c KmerCoder) Prev(km Kmer, b byte) (Kmer, bool) {
	code, ok := Code(b)
	if !ok {
		return Kmer{}, false
	}
	return c.shiftPrepend(km, code), true
}

// shiftPrepend shifts the k-mer right by one base, dropping the 3'
// base, and puts code at the 5' end.
func (c KmerCoder) shiftPrepend(km Kmer, code byte) Kmer {
	km.Lo = km.Lo>>2 | km.Hi<<62
	km.Hi >>= 2
	shift := 2 * (c.K - 1)
	if shift >= 64 {
		km.Hi |= uint64(code) << uint(shift-64)
	} else {
		km.Lo |= uint64(code) << uint(shift)
	}
	return km
}

// BaseAt returns the 2-bit code of base i (0 = 5' end) of the k-mer.
func (c KmerCoder) BaseAt(km Kmer, i int) byte {
	if i < 0 || i >= c.K {
		panic(fmt.Sprintf("seq: base index %d out of k=%d", i, c.K))
	}
	shift := 2 * (c.K - 1 - i)
	if shift >= 64 {
		return byte(km.Hi >> uint(shift-64) & 3)
	}
	return byte(km.Lo >> uint(shift) & 3)
}

// Decode unpacks the k-mer into ASCII bases.
func (c KmerCoder) Decode(km Kmer) []byte {
	return c.AppendBases(make([]byte, 0, c.K), km)
}

// AppendBases appends the k-mer's ASCII bases, 5' end first, to dst
// and returns the extended slice. It shifts each packed word down a
// base at a time rather than locating every base on its own.
func (c KmerCoder) AppendBases(dst []byte, km Kmer) []byte {
	n := c.K
	if n > 32 {
		dst = appendWord(dst, km.Hi, n-32)
		n = 32
	}
	return appendWord(dst, km.Lo, n)
}

// appendWord appends the n bases packed in the low 2n bits of w, most
// significant first.
func appendWord(dst []byte, w uint64, n int) []byte {
	for s := 2 * (n - 1); s >= 0; s -= 2 {
		dst = append(dst, baseOf[w>>uint(s)&3])
	}
	return dst
}

// ReverseComplement returns the reverse complement of the k-mer: the
// 3' base of the input, complemented, becomes the 5' base of the
// result.
//
// The complement of a 2-bit code is its bitwise NOT, so the whole
// k-mer is complemented at once; reversing all 128 bits then puts the
// bases in reverse order at the top of the register with the two bits
// of each base swapped, which revPairs undoes, and one shift by the
// 128-2K unused bits brings them back down.
func (c KmerCoder) ReverseComplement(km Kmer) Kmer {
	hi, lo := revPairs(^km.Lo), revPairs(^km.Hi)
	s := uint(128 - 2*c.K) // 2..126: MaxK keeps one base spare
	if s >= 64 {
		return Kmer{Lo: hi >> (s - 64)}
	}
	return Kmer{Hi: hi >> s, Lo: lo>>s | hi<<(64-s)}
}

// revPairs reverses the order of the 32 2-bit groups of x, keeping the
// bit order inside each group.
func revPairs(x uint64) uint64 {
	x = bits.Reverse64(x)
	return (x&0x5555555555555555)<<1 | (x>>1)&0x5555555555555555
}

// Less reports whether a sorts before b as a 128-bit integer, which
// for equal-length k-mers equals lexicographic order of the decoded
// strings.
func (km Kmer) Less(other Kmer) bool {
	if km.Hi != other.Hi {
		return km.Hi < other.Hi
	}
	return km.Lo < other.Lo
}

// Compare is the three-way form of Less.
func (km Kmer) Compare(other Kmer) int {
	if c := cmp.Compare(km.Hi, other.Hi); c != 0 {
		return c
	}
	return cmp.Compare(km.Lo, other.Lo)
}

// Canonical returns the smaller of the k-mer and its reverse
// complement, plus whether the input was already canonical. De Bruijn
// assemblers store canonical k-mers so both strands collapse.
func (c KmerCoder) Canonical(km Kmer) (Kmer, bool) {
	rc := c.ReverseComplement(km)
	if rc.Less(km) {
		return rc, false
	}
	return km, true
}

// Hash mixes the k-mer into a 64-bit hash (splitmix64-style finalizer
// over both words). Used to partition k-mers across MPI ranks and
// MapReduce reducers.
func (km Kmer) Hash() uint64 {
	x := km.Lo ^ (km.Hi * 0x9E3779B97F4A7C15)
	x ^= x >> 30
	x *= 0xBF58476D1CE4E5B9
	x ^= x >> 27
	x *= 0x94D049BB133111EB
	x ^= x >> 31
	return x
}

// ForEachCanonical iterates every k-mer window of s, skipping windows
// that contain ambiguous bases, and calls fn with the window's start
// index and its canonical k-mer. Iteration stops early if fn returns
// false. The window and its reverse complement are carried together —
// each base is appended to one and its complement prepended to the
// other — so a window costs two shifts and a compare whatever K is.
func (c KmerCoder) ForEachCanonical(s []byte, fn func(pos int, canon Kmer) bool) {
	if len(s) < c.K {
		return
	}
	var km, rc Kmer
	valid := 0 // number of consecutive unambiguous bases ending at i
	for i := 0; i < len(s); i++ {
		code, ok := Code(s[i])
		if !ok {
			valid = 0
			km, rc = Kmer{}, Kmer{}
			continue
		}
		km = c.shiftAppend(km, code)
		rc = c.shiftPrepend(rc, 3-code)
		valid++
		if valid >= c.K {
			canon := km
			if rc.Less(km) {
				canon = rc
			}
			if !fn(i-c.K+1, canon) {
				return
			}
		}
	}
}

// CountDistinct returns the number of distinct canonical k-mers across
// the reads, counted into one KmerTable sized for a key per window, so
// the count never re-lays it. It is the counting scan the seq kernels
// time; Table IV's memory model is assembler.DistinctKmers, a closed
// form.
func (c KmerCoder) CountDistinct(reads []Read) int {
	windows := 0
	for i := range reads {
		windows += max(len(reads[i].Seq)-c.K+1, 0)
	}
	t := NewKmerTable(windows)
	for i := range reads {
		c.ForEachCanonical(reads[i].Seq, func(_ int, canon Kmer) bool {
			t.Add(canon, 1)
			return true
		})
	}
	return t.Len()
}
