package seq

import (
	"bytes"
	"math/rand"
	"strings"
	"testing"
)

func TestFastaRoundtrip(t *testing.T) {
	recs := []FastaRecord{
		{ID: "tx1 len=10", Seq: []byte("ACGTACGTAC")},
		{ID: "tx2", Seq: []byte("GGGGCCCCAAAATTTT")},
	}
	for _, width := range []int{0, 4, 7, 100} {
		var buf bytes.Buffer
		if err := WriteFasta(&buf, recs, width); err != nil {
			t.Fatalf("width %d: write: %v", width, err)
		}
		back, err := ParseFasta(&buf)
		if err != nil {
			t.Fatalf("width %d: parse: %v", width, err)
		}
		if len(back) != len(recs) {
			t.Fatalf("width %d: %d records", width, len(back))
		}
		for i := range recs {
			if back[i].ID != recs[i].ID || !bytes.Equal(back[i].Seq, recs[i].Seq) {
				t.Errorf("width %d rec %d: %+v != %+v", width, i, back[i], recs[i])
			}
		}
	}
}

func TestFastaParseErrors(t *testing.T) {
	for name, in := range map[string]string{
		"seq-before-header": "ACGT\n",
		"empty-id":          ">\nACGT\n",
		"no-seq":            ">x\n",
	} {
		if _, err := ParseFasta(strings.NewReader(in)); err == nil {
			t.Errorf("%s: expected error", name)
		}
	}
}

func TestFastaBlankLinesAndCR(t *testing.T) {
	in := ">a\r\nAC\r\n\r\nGT\r\n"
	recs, err := ParseFasta(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 1 || string(recs[0].Seq) != "ACGT" {
		t.Fatalf("recs = %+v", recs)
	}
}

func TestFastqRoundtrip(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	reads := make([]Read, 20)
	for i := range reads {
		n := 30 + rng.Intn(40)
		q := make([]byte, n)
		for j := range q {
			q[j] = PhredToByte(rng.Intn(41))
		}
		reads[i] = Read{ID: "r" + string(rune('a'+i)), Seq: randomSeq(rng, n), Qual: q}
	}
	var buf bytes.Buffer
	if err := WriteFastq(&buf, reads); err != nil {
		t.Fatal(err)
	}
	back, err := ParseFastq(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(back) != len(reads) {
		t.Fatalf("%d reads back", len(back))
	}
	for i := range reads {
		if back[i].ID != reads[i].ID || !bytes.Equal(back[i].Seq, reads[i].Seq) || !bytes.Equal(back[i].Qual, reads[i].Qual) {
			t.Errorf("read %d mismatch", i)
		}
	}
}

func TestFastqNilQualGetsDefault(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteFastq(&buf, []Read{{ID: "x", Seq: []byte("ACGT")}}); err != nil {
		t.Fatal(err)
	}
	back, err := ParseFastq(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(back[0].Qual) != 4 || ByteToPhred(back[0].Qual[0]) != 40 {
		t.Errorf("default quality wrong: %q", back[0].Qual)
	}
}

func TestFastqParseErrors(t *testing.T) {
	for name, in := range map[string]string{
		"no-at":     "r1\nACGT\n+\nIIII\n",
		"truncated": "@r1\nACGT\n",
		"no-plus":   "@r1\nACGT\nIIII\nIIII\n",
		"qual-len":  "@r1\nACGT\n+\nII\n",
		"empty-id":  "@\nACGT\n+\nIIII\n",
	} {
		if _, err := ParseFastq(strings.NewReader(in)); err == nil {
			t.Errorf("%s: expected error", name)
		}
	}
}

func TestFastqIDStopsAtWhitespace(t *testing.T) {
	in := "@r1 extra metadata\nACGT\n+\nIIII\n"
	reads, err := ParseFastq(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if reads[0].ID != "r1" {
		t.Errorf("ID = %q", reads[0].ID)
	}
}

func TestSFARoundtrip(t *testing.T) {
	reads := []Read{
		{ID: "r1", Seq: []byte("ACGTACGT")},
		{ID: "r2", Seq: []byte("TTTT")},
	}
	var buf bytes.Buffer
	if err := WriteSFA(&buf, reads); err != nil {
		t.Fatal(err)
	}
	back, err := ParseSFA(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(back) != 2 || back[0].ID != "r1" || string(back[1].Seq) != "TTTT" {
		t.Fatalf("back = %+v", back)
	}
}

func TestSFAParseErrors(t *testing.T) {
	for name, in := range map[string]string{
		"no-gt":    "r1\tACGT\n",
		"no-tab":   ">r1 ACGT\n",
		"empty-id": ">\tACGT\n",
	} {
		if _, err := ParseSFA(strings.NewReader(in)); err == nil {
			t.Errorf("%s: expected error", name)
		}
	}
}

func TestSplitAndInterleavePairs(t *testing.T) {
	rs := ReadSet{Paired: true, Reads: []Read{
		{ID: "f0/1", Seq: []byte("AC")}, {ID: "f0/2", Seq: []byte("GT")},
		{ID: "f1/1", Seq: []byte("CC")}, {ID: "f1/2", Seq: []byte("GG")},
	}}
	r1, r2, err := SplitPairs(rs)
	if err != nil || len(r1) != 2 || len(r2) != 2 {
		t.Fatalf("split: %v %d %d", err, len(r1), len(r2))
	}
	if r1[1].ID != "f1/1" || r2[1].ID != "f1/2" {
		t.Errorf("mates misordered: %s %s", r1[1].ID, r2[1].ID)
	}
	back, err := InterleavePairs(r1, r2)
	if err != nil {
		t.Fatal(err)
	}
	for i := range rs.Reads {
		if back.Reads[i].ID != rs.Reads[i].ID {
			t.Fatal("interleave lost order")
		}
	}
	// Errors.
	if _, _, err := SplitPairs(ReadSet{}); err == nil {
		t.Error("unpaired split accepted")
	}
	if _, _, err := SplitPairs(ReadSet{Paired: true, Reads: rs.Reads[:3]}); err == nil {
		t.Error("odd split accepted")
	}
	if _, err := InterleavePairs(r1, r2[:1]); err == nil {
		t.Error("ragged interleave accepted")
	}
	if _, err := InterleavePairs(r1, []Read{{ID: "zz/2"}, {ID: "f1/2"}}); err == nil {
		t.Error("mismatched mates accepted")
	}
}

func TestFragmentID(t *testing.T) {
	if fragmentID("a/1") != "a" || fragmentID("a/2") != "a" || fragmentID("plain") != "plain" {
		t.Error("fragmentID")
	}
}

// TestWriterSizesExact: the *Size functions predict the writers' byte
// counts exactly (core presizes its staging buffers with them, so an
// underestimate would silently double an allocation).
func TestWriterSizesExact(t *testing.T) {
	reads := []Read{
		{ID: "r1", Seq: []byte("ACGTACGT"), Qual: []byte("IIIIIIII")},
		{ID: "read/2", Seq: []byte("TTTTN")}, // no qualities: WriteFastq synthesizes them
		{ID: "r3", Seq: []byte("A"), Qual: []byte("#")},
	}
	recs := []FastaRecord{
		{ID: "c1", Seq: bytes.Repeat([]byte("ACGT"), 40)}, // exactly two 80-base lines
		{ID: "contig2", Seq: bytes.Repeat([]byte("G"), 81)},
		{ID: "empty"},
		{ID: "c4", Seq: []byte("ACG")},
	}
	var buf bytes.Buffer
	if err := WriteFastq(&buf, reads); err != nil || buf.Len() != FastqSize(reads) {
		t.Errorf("FastqSize = %d, WriteFastq wrote %d (%v)", FastqSize(reads), buf.Len(), err)
	}
	buf.Reset()
	if err := WriteSFA(&buf, reads); err != nil || buf.Len() != SFASize(reads) {
		t.Errorf("SFASize = %d, WriteSFA wrote %d (%v)", SFASize(reads), buf.Len(), err)
	}
	for _, width := range []int{0, 1, 3, 80} {
		buf.Reset()
		if err := WriteFasta(&buf, recs, width); err != nil || buf.Len() != FastaSize(recs, width) {
			t.Errorf("width %d: FastaSize = %d, WriteFasta wrote %d (%v)", width, FastaSize(recs, width), buf.Len(), err)
		}
	}
}
