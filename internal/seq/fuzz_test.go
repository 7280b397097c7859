package seq

import (
	"bytes"
	"testing"
)

// The fuzz targets check two properties on every format parser:
//
//  1. no input, however malformed, panics the parser — it returns
//     records or an error;
//  2. parse → write → parse is the identity on whatever the first
//     parse accepted (FASTA is re-written with width 0: re-wrapping
//     could place '>' at a line start and change the meaning).
//
// Seed corpora live in testdata/fuzz/<Target>/.

func FuzzParseFasta(f *testing.F) {
	f.Add([]byte(">r1\nACGT\n"))
	f.Add([]byte(">r1 desc words\nACGT\nTTGG\n\n>r2\nA\n"))
	f.Add([]byte(">x\r\nAC\r\n"))
	f.Add([]byte("ACGT\n"))  // sequence before header
	f.Add([]byte(">\nACGT")) // empty ID
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		recs, err := ParseFasta(bytes.NewReader(data))
		if err != nil {
			return
		}
		var buf bytes.Buffer
		if err := WriteFasta(&buf, recs, 0); err != nil {
			t.Fatalf("write of parsed records: %v", err)
		}
		again, err := ParseFasta(&buf)
		if err != nil {
			t.Fatalf("reparse of written records: %v", err)
		}
		if len(again) != len(recs) {
			t.Fatalf("round trip: %d records became %d", len(recs), len(again))
		}
		for i := range recs {
			if recs[i].ID != again[i].ID || !bytes.Equal(recs[i].Seq, again[i].Seq) {
				t.Fatalf("record %d changed: %+v -> %+v", i, recs[i], again[i])
			}
		}
	})
}

func FuzzParseFastq(f *testing.F) {
	f.Add([]byte("@r1\nACGT\n+\nIIII\n"))
	f.Add([]byte("@r1/1 extra\nAC\n+r1\n!~\n@r1/2\nGT\n+\nII\n"))
	f.Add([]byte("@r\nACG\n+\nII\n")) // quality length mismatch
	f.Add([]byte("@r\nACGT\n"))       // truncated record
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		reads, err := ParseFastq(bytes.NewReader(data))
		if err != nil {
			return
		}
		var buf bytes.Buffer
		if err := WriteFastq(&buf, reads); err != nil {
			t.Fatalf("write of parsed reads: %v", err)
		}
		again, err := ParseFastq(&buf)
		if err != nil {
			t.Fatalf("reparse of written reads: %v", err)
		}
		if len(again) != len(reads) {
			t.Fatalf("round trip: %d reads became %d", len(reads), len(again))
		}
		for i := range reads {
			if reads[i].ID != again[i].ID ||
				!bytes.Equal(reads[i].Seq, again[i].Seq) ||
				!bytes.Equal(reads[i].Qual, again[i].Qual) {
				t.Fatalf("read %d changed: %+v -> %+v", i, reads[i], again[i])
			}
		}
	})
}
