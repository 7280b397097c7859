package seq

import (
	"bytes"
	"math/rand"
	"testing"
	"testing/quick"
)

func randomSeq(rng *rand.Rand, n int) []byte {
	s := make([]byte, n)
	for i := range s {
		s[i] = baseOf[rng.Intn(4)]
	}
	return s
}

func TestCode(t *testing.T) {
	for b, want := range map[byte]byte{'A': 0, 'C': 1, 'G': 2, 'T': 3, 'a': 0, 't': 3} {
		got, ok := Code(b)
		if !ok || got != want {
			t.Errorf("Code(%c) = %d,%v want %d,true", b, got, ok, want)
		}
	}
	for _, b := range []byte{'N', 'n', 'X', '-', 0} {
		if _, ok := Code(b); ok {
			t.Errorf("Code(%q) unexpectedly ok", b)
		}
	}
}

func TestReverseComplement(t *testing.T) {
	cases := []struct{ in, want string }{
		{"ACGT", "ACGT"},
		{"AAAA", "TTTT"},
		{"ACGTN", "NACGT"},
		{"G", "C"},
		{"", ""},
		{"ATG", "CAT"},
	}
	for _, c := range cases {
		if got := string(ReverseComplement([]byte(c.in))); got != c.want {
			t.Errorf("RC(%q) = %q, want %q", c.in, got, c.want)
		}
	}
}

// Property: reverse complement is an involution on ACGT strings.
func TestReverseComplementInvolution(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	f := func(n uint8) bool {
		s := randomSeq(rng, int(n))
		back := ReverseComplement(ReverseComplement(s))
		return bytes.Equal(s, back)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestGCContent(t *testing.T) {
	for s, want := range map[string]float64{"GGCC": 1, "AATT": 0, "ACGT": 0.5, "NNNN": 0, "GN": 1} {
		// N is excluded from the denominator.
		if gc := ComputeStats(ReadSet{Reads: []Read{{ID: "r", Seq: []byte(s)}}}).GCContent; gc != want {
			t.Errorf("%s gc=%v, want %v", s, gc, want)
		}
	}
}

func TestReadValidate(t *testing.T) {
	good := Read{ID: "r1", Seq: []byte("ACGT"), Qual: []byte("IIII")}
	if err := good.Validate(); err != nil {
		t.Errorf("good read: %v", err)
	}
	for name, r := range map[string]Read{
		"empty-id":  {Seq: []byte("A")},
		"empty-seq": {ID: "x"},
		"qual-len":  {ID: "x", Seq: []byte("ACGT"), Qual: []byte("II")},
	} {
		if err := r.Validate(); err == nil {
			t.Errorf("%s: expected error", name)
		}
	}
}

func TestReadSetAccounting(t *testing.T) {
	rs := ReadSet{
		Reads: []Read{
			{ID: "a/1", Seq: []byte("ACGTACGT")},
			{ID: "a/2", Seq: []byte("ACGTAC")},
		},
		Paired: true,
	}
	if rs.Fragments() != 1 {
		t.Errorf("fragments = %d", rs.Fragments())
	}
	if rs.TotalBases() != 14 {
		t.Errorf("bases = %d", rs.TotalBases())
	}
	if rs.ByteSize() <= rs.TotalBases() {
		t.Errorf("ByteSize %d should exceed raw bases %d", rs.ByteSize(), rs.TotalBases())
	}
	if err := rs.Validate(); err != nil {
		t.Errorf("validate: %v", err)
	}
	rs.Reads = rs.Reads[:1]
	if err := rs.Validate(); err == nil {
		t.Error("odd paired set should fail validation")
	}
}

func TestPhred(t *testing.T) {
	if PhredToByte(40) != 'I' {
		t.Errorf("phred 40 = %c", PhredToByte(40))
	}
	if ByteToPhred('I') != 40 {
		t.Errorf("byte I = %d", ByteToPhred('I'))
	}
	if PhredToByte(-5) != '!' || PhredToByte(1000) != byte(93+PhredOffset) {
		t.Error("phred clamping failed")
	}
	r := Read{ID: "r", Seq: []byte("AC"), Qual: []byte{PhredToByte(10), PhredToByte(30)}}
	if mq := ComputeStats(ReadSet{Reads: []Read{r}}).MeanQuality; mq != 20 {
		t.Errorf("mean quality = %v", mq)
	}
}

func TestMeanQualityNoQual(t *testing.T) {
	r := Read{ID: "r", Seq: []byte("AC")}
	if ComputeStats(ReadSet{Reads: []Read{r}}).MeanQuality != 0 {
		t.Error("nil qual should mean 0")
	}
}

func TestCountN(t *testing.T) {
	if n := CountN([]byte("ACGNNT")); n != 2 {
		t.Errorf("CountN = %d", n)
	}
}

func TestNFree(t *testing.T) {
	reads := []Read{{ID: "a", Seq: []byte("ACGT")}, {ID: "b", Seq: []byte("ACNT")}, {ID: "c", Seq: []byte("GG")}, {ID: "d", Seq: []byte("N")}}
	ids := ""
	for _, r := range NFree(reads) {
		ids += r.ID
	}
	if ids != "ac" {
		t.Errorf("NFree kept %q, want a and c", ids)
	}
}
