package core

import (
	"bytes"
	"encoding/json"
	"fmt"
	"strings"

	"rnascale/internal/diffexpr"
	"rnascale/internal/merge"
	"rnascale/internal/preprocess"
	"rnascale/internal/quant"
	"rnascale/internal/seq"
)

// Journal payloads, one per stage. A PA or PB payload is a one-line
// JSON meta followed by the stage's outputs as text: a shard's reads
// as FASTQ exactly as seq.WriteFastq renders them, an assembly's
// contigs as single-line FASTA. A resume slices them back out of the
// journal bytes instead of decoding JSON. The decoders are the
// exact inverses of the encoders: a header line's text after '@' or
// '>' is the whole ID, and sequences and qualities alias the payload.
// PC's payload is JSON.

// paPayload is a PA unit's outputs.
type paPayload struct {
	Shard  int              `json:"shard"`
	Reads  []seq.Read       `json:"-"` // the FASTQ after the meta line
	Paired bool             `json:"paired"`
	Stats  preprocess.Stats `json:"stats"`
}

// paMeta is a PA payload's first line. WriteFastq renders a read
// without qualities at a uniform Phred 40; NoQual lists those reads so
// they decode back without them.
type paMeta struct {
	*paPayload
	NoQual []int `json:"noQual,omitempty"`
}

// pbPayload is a PB unit's outputs.
type pbPayload struct {
	Contigs             []seq.FastaRecord `json:"-"` // the FASTA after the meta line
	TTCSeconds          float64           `json:"ttcSeconds"`
	PeakMemoryGBPerNode float64           `json:"peakMemoryGBPerNode"`
	Messages            int64             `json:"messages,omitempty"`
	BytesSent           int64             `json:"bytesSent,omitempty"`
	N50                 int               `json:"n50,omitempty"`
}

type pcPayload struct {
	PerAssembler map[string][]seq.FastaRecord `json:"perAssembler"`
	Transcripts  []seq.FastaRecord            `json:"transcripts"`
	MergeStats   merge.Stats                  `json:"mergeStats"`
	Quant        *quant.Result                `json:"quant"`
	QuantB       *quant.Result                `json:"quantB,omitempty"`
	DiffExpr     []diffexpr.Row               `json:"diffExpr,omitempty"`
}

// encodePA renders a PA unit's outputs as its journal payload.
func encodePA(p paPayload) ([]byte, error) {
	meta := paMeta{paPayload: &p}
	for i := range p.Reads {
		r := &p.Reads[i]
		if err := oneLine(r.ID, r.Seq, r.Qual); err != nil {
			return nil, fmt.Errorf("core: PA payload: read %d: %w", i, err)
		}
		if r.Qual == nil {
			meta.NoQual = append(meta.NoQual, i)
		}
	}
	head, err := json.Marshal(meta)
	if err != nil {
		return nil, err
	}
	buf := bytes.NewBuffer(make([]byte, 0, len(head)+1+seq.FastqSize(p.Reads)))
	buf.Write(head)
	buf.WriteByte('\n')
	if err := seq.WriteFastq(buf, p.Reads); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// decodePA is encodePA's inverse.
func decodePA(b []byte) (paPayload, error) {
	var p paPayload
	line, fq, ok := bytes.Cut(b, []byte{'\n'})
	if !ok {
		return p, fmt.Errorf("core: PA payload has no meta line")
	}
	meta := paMeta{paPayload: &p}
	if err := json.Unmarshal(line, &meta); err != nil {
		return p, fmt.Errorf("core: PA payload meta: %w", err)
	}
	if n := bytes.Count(fq, []byte{'\n'}) / 4; n > 0 {
		p.Reads = make([]seq.Read, 0, n)
	}
	var rec [4][]byte
	for len(fq) > 0 {
		if fq, ok = cutLines(fq, rec[:]); !ok || len(rec[0]) == 0 || rec[0][0] != '@' || string(rec[2]) != "+" {
			return paPayload{}, fmt.Errorf("core: PA payload: read %d is not a FASTQ record", len(p.Reads))
		}
		if len(rec[3]) != len(rec[1]) {
			return paPayload{}, fmt.Errorf("core: PA payload: read %d has %d qualities for %d bases", len(p.Reads), len(rec[3]), len(rec[1]))
		}
		p.Reads = append(p.Reads, seq.Read{ID: string(rec[0][1:]), Seq: rec[1], Qual: rec[3]})
	}
	for _, i := range meta.NoQual {
		if i < 0 || i >= len(p.Reads) {
			return paPayload{}, fmt.Errorf("core: PA payload: no read %d to strip of qualities", i)
		}
		p.Reads[i].Qual = nil
	}
	return p, nil
}

// encodePB renders a PB unit's outputs as its journal payload.
func encodePB(p pbPayload) ([]byte, error) {
	for i := range p.Contigs {
		if err := oneLine(p.Contigs[i].ID, p.Contigs[i].Seq); err != nil {
			return nil, fmt.Errorf("core: PB payload: contig %d: %w", i, err)
		}
	}
	head, err := json.Marshal(p)
	if err != nil {
		return nil, err
	}
	buf := bytes.NewBuffer(make([]byte, 0, len(head)+1+seq.FastaSize(p.Contigs, 0)))
	buf.Write(head)
	buf.WriteByte('\n')
	if err := seq.WriteFasta(buf, p.Contigs, 0); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// decodePB is encodePB's inverse.
func decodePB(b []byte) (pbPayload, error) {
	var p pbPayload
	line, fa, ok := bytes.Cut(b, []byte{'\n'})
	if !ok {
		return p, fmt.Errorf("core: PB payload has no meta line")
	}
	if err := json.Unmarshal(line, &p); err != nil {
		return p, fmt.Errorf("core: PB payload meta: %w", err)
	}
	if n := bytes.Count(fa, []byte{'\n'}) / 2; n > 0 {
		p.Contigs = make([]seq.FastaRecord, 0, n)
	}
	var rec [2][]byte
	for len(fa) > 0 {
		if fa, ok = cutLines(fa, rec[:]); !ok || len(rec[0]) == 0 || rec[0][0] != '>' {
			return pbPayload{}, fmt.Errorf("core: PB payload: contig %d is not a FASTA record", len(p.Contigs))
		}
		p.Contigs = append(p.Contigs, seq.FastaRecord{ID: string(rec[0][1:]), Seq: rec[1]})
	}
	return p, nil
}

// oneLine refuses what a line-per-field payload could not give back:
// an ID or sequence data containing a newline.
func oneLine(id string, data ...[]byte) error {
	if strings.IndexByte(id, '\n') >= 0 {
		return fmt.Errorf("ID %q contains a newline", id)
	}
	for _, d := range data {
		if bytes.IndexByte(d, '\n') >= 0 {
			return fmt.Errorf("%s: sequence data contains a newline", id)
		}
	}
	return nil
}

// cutLines cuts len(lines) newline-terminated lines off the front of
// b, each capped at its own end so appending to it cannot write into
// the bytes after it, and returns the rest. ok is false when b runs
// out first.
func cutLines(b []byte, lines [][]byte) (rest []byte, ok bool) {
	for i := range lines {
		j := bytes.IndexByte(b, '\n')
		if j < 0 {
			return b, false
		}
		lines[i], b = b[:j:j], b[j+1:]
	}
	return b, true
}
