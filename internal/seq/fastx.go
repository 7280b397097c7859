package seq

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"strings"

	"rnascale/internal/obs/perf"
)

// This file implements FASTA and FASTQ serialization. The pipeline's
// simulated shared filesystem stores datasets in these formats, and
// the Contrail assembler additionally consumes the SFA format (see
// WriteSFA), reproducing the paper's "1 min for file format conversion
// to SFA from Fastq" step.

// FastaRecord is a named sequence.
type FastaRecord struct {
	ID  string
	Seq []byte
}

// WriteFasta serializes records with the given line width (0 means a
// single line per sequence).
func WriteFasta(w io.Writer, recs []FastaRecord, width int) error {
	bw := bufio.NewWriter(w)
	for i := range recs {
		if _, err := fmt.Fprintf(bw, ">%s\n", recs[i].ID); err != nil {
			return err
		}
		s := recs[i].Seq
		if width <= 0 {
			if _, err := bw.Write(s); err != nil {
				return err
			}
			if err := bw.WriteByte('\n'); err != nil {
				return err
			}
			continue
		}
		for len(s) > 0 {
			n := width
			if n > len(s) {
				n = len(s)
			}
			if _, err := bw.Write(s[:n]); err != nil {
				return err
			}
			if err := bw.WriteByte('\n'); err != nil {
				return err
			}
			s = s[n:]
		}
	}
	return bw.Flush()
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
	defer perf.Region("seq.parse_fasta").End()
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

// WriteFastq serializes reads in 4-line FASTQ. Reads without
// qualities get a uniform high quality, so FASTA-derived reads remain
// serializable.
func WriteFastq(w io.Writer, reads []Read) error {
	bw := bufio.NewWriter(w)
	for i := range reads {
		r := &reads[i]
		qual := r.Qual
		if qual == nil {
			qual = bytes.Repeat([]byte{PhredToByte(40)}, len(r.Seq))
		}
		if _, err := fmt.Fprintf(bw, "@%s\n%s\n+\n%s\n", r.ID, r.Seq, qual); err != nil {
			return err
		}
	}
	return bw.Flush()
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
	defer perf.Region("seq.parse_fastq").End()
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

// InterleavePairs merges mate files back into the interleaved layout
// the pipeline uses, validating that fragment IDs correspond.
func InterleavePairs(r1, r2 []Read) (ReadSet, error) {
	if len(r1) != len(r2) {
		return ReadSet{}, fmt.Errorf("seq: %d mate-1 reads vs %d mate-2", len(r1), len(r2))
	}
	rs := ReadSet{Paired: true, Reads: make([]Read, 0, 2*len(r1))}
	for i := range r1 {
		if fragmentID(r1[i].ID) != fragmentID(r2[i].ID) {
			return ReadSet{}, fmt.Errorf("seq: mate mismatch at %d: %q vs %q", i, r1[i].ID, r2[i].ID)
		}
		rs.Reads = append(rs.Reads, r1[i], r2[i])
	}
	return rs, nil
}

// fragmentID strips a trailing /1 or /2 mate suffix.
func fragmentID(id string) string {
	if len(id) > 2 && id[len(id)-2] == '/' && (id[len(id)-1] == '1' || id[len(id)-1] == '2') {
		return id[:len(id)-2]
	}
	return id
}

// WriteSFA writes the simple ">id\tSEQ" one-line-per-read format the
// Contrail assembler consumes. Converting to SFA is a real step in
// the paper's sample run.
func WriteSFA(w io.Writer, reads []Read) error {
	bw := bufio.NewWriter(w)
	for i := range reads {
		if _, err := fmt.Fprintf(bw, ">%s\t%s\n", reads[i].ID, reads[i].Seq); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// SFASize is the exact byte count WriteSFA emits.
func SFASize(reads []Read) int {
	n := 0
	for i := range reads {
		n += len(reads[i].ID) + len(reads[i].Seq) + 3
	}
	return n
}

// ParseSFA reads the Contrail SFA format.
func ParseSFA(r io.Reader) ([]Read, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<24)
	var reads []Read
	line := 0
	for sc.Scan() {
		line++
		t := bytes.TrimRight(sc.Bytes(), "\r\n")
		if len(t) == 0 {
			continue
		}
		if t[0] != '>' {
			return nil, fmt.Errorf("seq: sfa line %d: expected >, got %q", line, t)
		}
		tab := bytes.IndexByte(t, '\t')
		if tab < 0 {
			return nil, fmt.Errorf("seq: sfa line %d: missing tab", line)
		}
		id := string(t[1:tab])
		if id == "" {
			return nil, fmt.Errorf("seq: sfa line %d: empty ID", line)
		}
		reads = append(reads, Read{ID: id, Seq: append([]byte(nil), t[tab+1:]...)})
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("seq: sfa scan: %w", err)
	}
	return reads, nil
}
