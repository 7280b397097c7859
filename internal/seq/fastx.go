package seq

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"strings"
)

// This file implements FASTA and FASTQ serialization: the pipeline's
// journal payloads carry a stage's reads and contigs in these formats.

// FastaRecord is a named sequence.
type FastaRecord struct {
	ID  string
	Seq []byte
}

// fastxWriter is what WriteFasta and WriteFastq write into: a writer
// whose errors are sticky, so each record's last write reports a
// failure of any write before it.
type fastxWriter interface {
	io.Writer
	io.ByteWriter
	io.StringWriter
}

// buffered returns w itself when it is a *bytes.Buffer (which never
// fails) or a *bufio.Writer (whose errors are sticky), and otherwise a
// new bufio.Writer over w, returned a second time for the caller to
// flush. A caller's own bufio.Writer is left unflushed.
func buffered(w io.Writer) (fastxWriter, *bufio.Writer) {
	switch w := w.(type) {
	case *bytes.Buffer:
		return w, nil
	case *bufio.Writer:
		return w, nil
	}
	bw := bufio.NewWriter(w)
	return bw, bw
}

// flush flushes the bufio.Writer buffered made, if any.
func flush(own *bufio.Writer) error {
	if own == nil {
		return nil
	}
	return own.Flush()
}

// WriteFasta serializes records with the given line width (0 means a
// single line per sequence). It writes into a *bytes.Buffer or a
// *bufio.Writer directly, leaving the latter for the caller to flush.
func WriteFasta(w io.Writer, recs []FastaRecord, width int) error {
	bw, own := buffered(w)
	for i := range recs {
		bw.WriteByte('>')
		bw.WriteString(recs[i].ID)
		err := bw.WriteByte('\n')
		s := recs[i].Seq
		if width <= 0 {
			bw.Write(s)
			err = bw.WriteByte('\n')
		} else {
			for len(s) > 0 {
				n := min(width, len(s))
				bw.Write(s[:n])
				err = bw.WriteByte('\n')
				s = s[n:]
			}
		}
		if err != nil {
			return err
		}
	}
	return flush(own)
}

// FastaSize is the exact byte count WriteFasta emits, so a caller
// rendering into memory can allocate the buffer once.
func FastaSize(recs []FastaRecord, width int) int {
	n := 0
	for i := range recs {
		lines := 1
		if width > 0 {
			lines = (len(recs[i].Seq) + width - 1) / width
		}
		n += len(recs[i].ID) + 2 + len(recs[i].Seq) + lines
	}
	return n
}

// ParseFasta reads all records from r. Sequence lines are
// concatenated; blank lines are ignored.
func ParseFasta(r io.Reader) ([]FastaRecord, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<24)
	var recs []FastaRecord
	var cur *FastaRecord
	line := 0
	for sc.Scan() {
		line++
		text := bytes.TrimRight(sc.Bytes(), "\r\n")
		if len(text) == 0 {
			continue
		}
		if text[0] == '>' {
			id := strings.TrimSpace(string(text[1:]))
			if id == "" {
				return nil, fmt.Errorf("seq: fasta line %d: empty record ID", line)
			}
			recs = append(recs, FastaRecord{ID: id})
			cur = &recs[len(recs)-1]
			continue
		}
		if cur == nil {
			return nil, fmt.Errorf("seq: fasta line %d: sequence before header", line)
		}
		cur.Seq = append(cur.Seq, text...)
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("seq: fasta scan: %w", err)
	}
	for i := range recs {
		if len(recs[i].Seq) == 0 {
			return nil, fmt.Errorf("seq: fasta record %q has no sequence", recs[i].ID)
		}
	}
	return recs, nil
}

// highQual is the quality line of reads without qualities, in chunks.
var highQual = bytes.Repeat([]byte{PhredToByte(40)}, 256)

// WriteFastq serializes reads in 4-line FASTQ. Reads without
// qualities get a uniform high quality, so FASTA-derived reads remain
// serializable. As WriteFasta, it writes into a *bytes.Buffer or a
// *bufio.Writer directly.
func WriteFastq(w io.Writer, reads []Read) error {
	bw, own := buffered(w)
	for i := range reads {
		r := &reads[i]
		bw.WriteByte('@')
		bw.WriteString(r.ID)
		bw.WriteByte('\n')
		bw.Write(r.Seq)
		bw.WriteString("\n+\n")
		if r.Qual != nil {
			bw.Write(r.Qual)
		} else {
			for n := len(r.Seq); n > 0; n -= len(highQual) {
				bw.Write(highQual[:min(n, len(highQual))])
			}
		}
		if err := bw.WriteByte('\n'); err != nil {
			return err
		}
	}
	return flush(own)
}

// FastqSize is the exact byte count WriteFastq emits.
func FastqSize(reads []Read) int {
	n := 0
	for i := range reads {
		n += len(reads[i].ID) + 2*len(reads[i].Seq) + 6
		if reads[i].Qual != nil {
			n += len(reads[i].Qual) - len(reads[i].Seq)
		}
	}
	return n
}

// ParseFastq reads 4-line FASTQ records.
func ParseFastq(r io.Reader) ([]Read, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<24)
	var reads []Read
	line := 0
	next := func() ([]byte, bool) {
		for sc.Scan() {
			line++
			t := bytes.TrimRight(sc.Bytes(), "\r\n")
			return t, true
		}
		return nil, false
	}
	for {
		hdr, ok := next()
		if !ok {
			break
		}
		if len(hdr) == 0 {
			continue
		}
		if hdr[0] != '@' {
			return nil, fmt.Errorf("seq: fastq line %d: expected @header, got %q", line, hdr)
		}
		id := strings.Fields(string(hdr[1:]))
		if len(id) == 0 {
			return nil, fmt.Errorf("seq: fastq line %d: empty read ID", line)
		}
		sq, ok := next()
		if !ok {
			return nil, fmt.Errorf("seq: fastq: truncated record at line %d", line)
		}
		plus, ok := next()
		if !ok || len(plus) == 0 || plus[0] != '+' {
			return nil, fmt.Errorf("seq: fastq line %d: expected + separator", line)
		}
		qual, ok := next()
		if !ok {
			return nil, fmt.Errorf("seq: fastq: truncated qualities at line %d", line)
		}
		if len(qual) != len(sq) {
			return nil, fmt.Errorf("seq: fastq read %s: %d bases, %d qualities", id[0], len(sq), len(qual))
		}
		reads = append(reads, Read{
			ID:   id[0],
			Seq:  append([]byte(nil), sq...),
			Qual: append([]byte(nil), qual...),
		})
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("seq: fastq scan: %w", err)
	}
	return reads, nil
}

// SplitPairs separates an interleaved paired read set into its mate-1
// and mate-2 halves — the _1.fastq/_2.fastq layout sequencing
// facilities deliver.
func SplitPairs(rs ReadSet) (r1, r2 []Read, err error) {
	if !rs.Paired {
		return nil, nil, fmt.Errorf("seq: SplitPairs on unpaired set")
	}
	if len(rs.Reads)%2 != 0 {
		return nil, nil, fmt.Errorf("seq: paired set with %d reads", len(rs.Reads))
	}
	for i := 0; i < len(rs.Reads); i += 2 {
		r1 = append(r1, rs.Reads[i])
		r2 = append(r2, rs.Reads[i+1])
	}
	return r1, r2, nil
}
