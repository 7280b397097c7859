package journal

import (
	"bufio"
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"hash"
	"io"
	"os"
)

// The hash chain: record i's Merkle leaf and chain digest are
//
//	leaf_i  = SHA-256(0x00 || body_i)
//	chain_i = SHA-256(chain_{i-1} || leaf_i)
//
// where body_i is the record's header line with its chain field left
// out, followed by its payload bytes, and chain_{-1} is the seed. Each
// record's bytes are hashed once; the link is a second hash over 64
// bytes. Any single-byte change to a committed record changes its
// body, so its stored chain digest no longer verifies; recomputing it
// instead changes the input to every later record's digest, so the
// first unmodified successor fails. Tampering is therefore always
// localizable to a first bad sequence number (Verify), and rewriting
// the whole suffix moves the chain head, which an auditor pins
// externally (Log.ChainHead, the gateway's proof endpoint).

// chainSeed is the chain digest conceptually preceding record 0: the
// SHA-256 of the schema-qualified seed label, so journals of
// different schema versions can never splice.
func chainSeed() [sha256.Size]byte { return sha256.Sum256([]byte(Schema + "/chain-seed")) }

// ChainSeed returns the chain head of a journal with no records,
// hex-encoded like every stored chain digest.
func ChainSeed() string {
	seed := chainSeed()
	return hex.EncodeToString(seed[:])
}

// marshalHeader renders a record's header line as the chain and Merkle
// leaves see it: without the chain field. The writer's stored line is
// exactly this with the chain spliced in before the closing brace, so
// an auditor holding a record (RecordLeaf) recomputes the stored body
// byte-for-byte (encoding/json emits canonical shortest floats).
func marshalHeader(rec Record) ([]byte, error) {
	return json.Marshal(header{Record: &rec, PayloadBytes: len(rec.Payload)})
}

// A stored header line is the chainless header with the chain digest
// spliced in as the final JSON field: head[:len-1] + chainOpen + hex +
// chainClose.
const (
	chainOpen      = `,"chain":"`
	chainClose     = `"}`
	chainHexLen    = sha256.Size * 2
	chainSuffixLen = len(chainOpen) + chainHexLen + len(chainClose)
)

var (
	newline    = []byte{'\n'}
	closeBrace = []byte{'}'}
	leafPrefix = []byte{0x00}
)

// verifier carries the one SHA-256 state a reader reuses for every
// leaf and chain link, the chain digest the next record must extend,
// and the digest the record being verified stores.
type verifier struct {
	h      hash.Hash
	prev   [sha256.Size]byte
	stored [chainHexLen]byte
	hex    [chainHexLen]byte
}

func newVerifier() *verifier { return &verifier{h: sha256.New(), prev: chainSeed()} }

// A record is verified in three steps, whatever holds its bytes:
// begin parses and checks its header line and opens its leaf, the
// reader writes its payload into v.h, and link checks the byte after
// the payload and the record's chain link. The slice reader (scan,
// through verifyRecord) hashes a payload where it lies; Verify streams
// it through its read buffer. The chain is checked over the raw bytes,
// not a re-marshalled record, so any raw single-byte change is
// detected — including ones json.Unmarshal would normalize away (a
// mangled field name parses as an ignored unknown field and would
// re-marshal back to the original header). The body is the header line
// minus its chain suffix, the closing brace and the payload; the leaf
// streams those three pieces, so it is never assembled.

func recordErr(idx int, format string, args ...any) error {
	return fmt.Errorf("journal: record %d"+format, append([]any{idx}, args...)...)
}

// begin parses and checks line, the header line of record idx without
// its newline, and returns the record (no payload, no chain) and its
// declared payload length. avail counts the journal bytes after the
// line's newline, -1 when the line ends the journal unterminated; a
// payload must fit in them. Only the header line goes through
// encoding/json. On success the record's leaf holds its header.
func (v *verifier) begin(line []byte, idx, avail int) (Record, int, error) {
	var rec Record
	if len(line) == 0 {
		return rec, 0, recordErr(idx, ": blank line")
	}
	hd := header{Record: &rec}
	if err := json.Unmarshal(line, &hd); err != nil {
		return rec, 0, recordErr(idx, ": %w", err)
	}
	if rec.Seq != idx {
		return rec, 0, recordErr(idx, " carries seq %d", rec.Seq)
	}
	if len(line) < chainSuffixLen {
		return rec, 0, recordErr(idx, " has no chain digest")
	}
	head, tail := line[:len(line)-chainSuffixLen], line[len(line)-chainSuffixLen:]
	if string(tail[:len(chainOpen)]) != chainOpen || string(tail[len(chainOpen)+chainHexLen:]) != chainClose {
		return rec, 0, recordErr(idx, " has no chain digest")
	}
	switch pb, present := hd.PayloadBytes, max(avail, 0); {
	case pb < 0:
		return rec, 0, recordErr(idx, " declares a negative payload length %d", pb)
	case pb > present:
		return rec, 0, recordErr(idx, " payload runs past the end of the journal (%d bytes declared, %d present)", pb, present)
	}
	copy(v.stored[:], tail[len(chainOpen):])
	v.h.Reset()
	v.h.Write(leafPrefix)
	v.h.Write(head)
	v.h.Write(closeBrace)
	return rec, hd.PayloadBytes, nil
}

// link ends record idx once its payload is in the leaf. next is the
// byte after the payload (after the header line when there is none),
// -1 at the end of the journal: a payload must end with a newline or
// the journal. It returns the record's Merkle leaf once the record's
// stored chain digest verifies, and moves the chain on to it.
func (v *verifier) link(idx, next int) ([sha256.Size]byte, error) {
	var leaf, chain [sha256.Size]byte
	if next >= 0 && next != '\n' {
		return leaf, recordErr(idx, " payload is not newline-terminated")
	}
	v.h.Sum(leaf[:0])
	v.h.Reset()
	v.h.Write(v.prev[:])
	v.h.Write(leaf[:])
	v.h.Sum(chain[:0])
	hex.Encode(v.hex[:], chain[:])
	if v.stored != v.hex {
		return leaf, recordErr(idx, " chain digest does not verify (stored %.12s…, computed %.12s…): record tampered, reordered or torn",
			v.stored[:], v.hex[:])
	}
	v.prev = chain
	return leaf, nil
}

// verifyRecord verifies the record at the start of b as record idx. It
// returns the record with its Merkle leaf, the bytes the record spans
// and whether b ends before the record's final newline. The payload is
// sliced out of b by its declared length and hashed where it lies.
func (v *verifier) verifyRecord(b []byte, idx int) (Record, [sha256.Size]byte, int, bool, error) {
	line, avail, next := b, -1, -1
	if nl := bytes.IndexByte(b, '\n'); nl >= 0 {
		line, avail, next = b[:nl], len(b)-nl-1, '\n'
	}
	rec, pb, err := v.begin(line, idx, avail)
	if err != nil {
		return Record{}, [sha256.Size]byte{}, 0, false, err
	}
	n := len(b) - max(avail, 0)
	if pb > 0 {
		rec.Payload = b[n : n+pb : n+pb]
		v.h.Write(rec.Payload)
		n, next = n+pb, -1
		if n < len(b) {
			n, next = n+1, int(b[n])
		}
	}
	leaf, err := v.link(idx, next)
	if err != nil {
		return Record{}, leaf, 0, false, err
	}
	rec.Chain = string(v.stored[:])
	return rec, leaf, n, next < 0, nil
}

// legacy reports whether b opens with a record in the legacy format:
// a line whose chain digest verifies under the legacy rule,
// SHA-256(seed || '\n' || the line without its chain field).
func legacy(b []byte) bool {
	line, _, _ := bytes.Cut(b, newline)
	if len(line) < chainSuffixLen || !bytes.HasPrefix(line[len(line)-chainSuffixLen:], []byte(chainOpen)) {
		return false
	}
	seed := sha256.Sum256([]byte(legacySchema + "/chain-seed"))
	h := sha256.New()
	io.WriteString(h, hex.EncodeToString(seed[:]))
	h.Write(newline)
	h.Write(line[:len(line)-chainSuffixLen])
	h.Write(closeBrace)
	stored := line[len(line)-chainSuffixLen+len(chainOpen):][:chainHexLen]
	return hex.EncodeToString(h.Sum(nil)) == string(stored)
}

// VerifyResult is the forensic report of a chain verification pass.
type VerifyResult struct {
	// Records counts chain-verified records from the start.
	Records int `json:"records"`
	// BadSeq is the sequence number of the first record that failed
	// verification, -1 when the whole journal verifies. A torn
	// half-line counts as the record it would have been.
	BadSeq int `json:"badSeq"`
	// Reason is the first verification failure, empty when clean.
	Reason string `json:"reason,omitempty"`
	// TrailingBytes counts unverifiable bytes beyond the verified
	// prefix (0 when clean).
	TrailingBytes int `json:"trailingBytes,omitempty"`
	// MissingNewline notes a verified final record lacking its
	// newline — repairable damage, not corruption.
	MissingNewline bool `json:"missingNewline,omitempty"`
	// ChainHead is the chain digest of the last verified record.
	ChainHead string `json:"chainHead"`
	// Root is the Merkle root over the verified records' leaves —
	// the compact commitment inclusion proofs verify against.
	Root string `json:"root"`
}

// Clean reports whether every byte of the journal verified.
func (r VerifyResult) Clean() bool { return r.BadSeq < 0 && r.TrailingBytes == 0 && !r.MissingNewline }

func (r VerifyResult) String() string {
	if r.Clean() {
		return fmt.Sprintf("clean: %d records, chain head %.12s…, root %.12s…", r.Records, r.ChainHead, r.Root)
	}
	if r.BadSeq < 0 {
		return fmt.Sprintf("repairable: %d records verified, final newline missing", r.Records)
	}
	return fmt.Sprintf("damaged at seq %d: %s (%d verified records, %d unverifiable tail bytes)",
		r.BadSeq, r.Reason, r.Records, r.TrailingBytes)
}

// Verify checks the journal at path against its hash chain without
// modifying it, pinpointing the first bad sequence number when the
// chain breaks. The returned error covers I/O and a journal written in
// an older format; corruption is reported in the result. The file is
// streamed through one read buffer, so Verify holds no payload and at
// most one header line, whatever the journal's size.
func Verify(path string) (VerifyResult, error) { return verify(path, verifyBuffer) }

// verifyBuffer is Verify's read buffer: header lines are read out of
// it and payloads hashed from it, one buffer at a time.
const verifyBuffer = 64 << 10

func verify(path string, bufSize int) (VerifyResult, error) {
	f, err := os.Open(path)
	if err != nil {
		return VerifyResult{}, err
	}
	defer f.Close()
	fi, err := f.Stat()
	if err != nil {
		return VerifyResult{}, err
	}
	// The journal is the size it had when opened: a concurrent append
	// lies beyond what is verified, as it would beyond a whole-file read.
	size := int(fi.Size())
	r := bufio.NewReaderSize(io.NewSectionReader(f, 0, int64(size)), bufSize)
	v := newVerifier()
	var leaves [][sha256.Size]byte
	var spill []byte
	goodEnd, missingNewline := 0, false
	var bad error
	for goodEnd < size {
		line, terminated, err := readLine(r, &spill)
		if err != nil {
			return VerifyResult{}, err
		}
		n, avail, next := len(line), -1, -1
		switch {
		case terminated:
			n, avail, next = n+1, size-goodEnd-n-1, '\n'
		case n < size-goodEnd:
			return VerifyResult{}, io.ErrUnexpectedEOF
		}
		_, pb, err := v.begin(line, len(leaves), avail)
		if err != nil {
			bad = err
			break
		}
		if pb > 0 {
			if err := v.feed(r, pb); err != nil {
				return VerifyResult{}, err
			}
			n, next = n+pb, -1
			if goodEnd+n < size {
				c, err := r.ReadByte()
				if err != nil {
					return VerifyResult{}, noEOF(err)
				}
				n, next = n+1, int(c)
			}
		}
		leaf, err := v.link(len(leaves), next)
		if err != nil {
			bad = err
			break
		}
		leaves = append(leaves, leaf)
		goodEnd += n
		missingNewline = next < 0
	}
	if len(leaves) == 0 && bad != nil {
		r.Reset(io.NewSectionReader(f, 0, int64(size)))
		if line, _, err := readLine(r, &spill); err == nil && legacy(line) {
			return VerifyResult{}, fmt.Errorf("%s: %w", path, errLegacy)
		}
	}
	return report(len(leaves), hex.EncodeToString(v.prev[:]), rootHex(leaves), damage(size-goodEnd, missingNewline, bad)), nil
}

// readLine reads r's next line and reports whether a newline ended it
// rather than the end of r; the line is returned without its newline.
// A line longer than r's buffer is gathered in *spill, which later
// calls reuse.
func readLine(r *bufio.Reader, spill *[]byte) (line []byte, terminated bool, err error) {
	line, err = r.ReadSlice('\n')
	if err == bufio.ErrBufferFull {
		*spill = append((*spill)[:0], line...)
		for err == bufio.ErrBufferFull {
			line, err = r.ReadSlice('\n')
			*spill = append(*spill, line...)
		}
		line = *spill
	}
	switch err {
	case nil:
		return line[:len(line)-1], true, nil
	case io.EOF:
		return line, false, nil
	}
	return nil, false, err
}

// feed writes r's next n bytes into the record's leaf straight out of
// r's buffer.
func (v *verifier) feed(r *bufio.Reader, n int) error {
	for n > 0 {
		p, err := r.Peek(min(n, r.Size()))
		v.h.Write(p)
		r.Discard(len(p))
		if n -= len(p); n > 0 && err != nil {
			return noEOF(err)
		}
	}
	return nil
}

// noEOF reports a file that ended before the size it had when opened.
func noEOF(err error) error {
	if err == io.EOF {
		return io.ErrUnexpectedEOF
	}
	return err
}

// damage describes the bytes past a verified prefix: trailing
// unverifiable bytes, the failure that ended the prefix, and a final
// record missing its newline. It is nil when there are none.
func damage(trailing int, missingNewline bool, bad error) *Repair {
	if trailing == 0 && !missingNewline {
		return nil
	}
	r := &Repair{TruncatedBytes: trailing, RepairedNewline: missingNewline}
	if bad != nil {
		r.Reason = bad.Error()
	}
	return r
}

// Verified is the verification report of the bytes a tolerant read
// (Inspect, Continue) took the log from — what Verify returns for the
// same bytes — so one read can serve a report and proofs that agree.
func (l *Log) Verified() VerifyResult {
	return report(len(l.Records), l.ChainHead(), l.Root(), l.Repair)
}

// report is the verification report of a verified prefix of records
// ending in chain digest head, under Merkle root root, and of the
// damage r after it.
func report(records int, head, root string, r *Repair) VerifyResult {
	vr := VerifyResult{Records: records, BadSeq: -1, ChainHead: head, Root: root}
	if r != nil {
		vr.TrailingBytes, vr.MissingNewline = r.TruncatedBytes, r.RepairedNewline
		if r.TruncatedBytes > 0 {
			vr.BadSeq, vr.Reason = records, r.Reason
		}
	}
	return vr
}
