package journal

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
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

// verifier carries the one SHA-256 state a scan reuses for every leaf
// and chain link, and the chain digest the next record must extend.
type verifier struct {
	h    hash.Hash
	prev [sha256.Size]byte
	hex  [chainHexLen]byte
}

func newVerifier() *verifier { return &verifier{h: sha256.New(), prev: chainSeed()} }

// verifyRecord parses and verifies the record at the start of b as
// record idx. It returns the record with its Merkle leaf, the bytes
// the record spans and whether b ends before the record's final
// newline. Only the header line goes through encoding/json; the
// payload is sliced out of b by its declared length and hashed where
// it lies. The chain is checked over the raw bytes, not a
// re-marshalled record, so any raw single-byte change is detected —
// including ones json.Unmarshal would normalize away (a mangled field
// name parses as an ignored unknown field and would re-marshal back
// to the original header). The body is the header line minus its
// chain suffix, the closing brace and the payload; the leaf streams
// those three pieces, so it is never assembled.
func (v *verifier) verifyRecord(b []byte, idx int) (Record, [sha256.Size]byte, int, bool, error) {
	var rec Record
	var leaf [sha256.Size]byte
	fail := func(format string, args ...any) (Record, [sha256.Size]byte, int, bool, error) {
		return Record{}, leaf, 0, false, fmt.Errorf("journal: record %d"+format, append([]any{idx}, args...)...)
	}
	line := b
	nl := bytes.IndexByte(b, '\n')
	if nl >= 0 {
		line = b[:nl]
	}
	if len(line) == 0 {
		return fail(": blank line")
	}
	hd := header{Record: &rec}
	if err := json.Unmarshal(line, &hd); err != nil {
		return fail(": %w", err)
	}
	if rec.Seq != idx {
		return fail(" carries seq %d", rec.Seq)
	}
	if len(line) < chainSuffixLen {
		return fail(" has no chain digest")
	}
	head, tail := line[:len(line)-chainSuffixLen], line[len(line)-chainSuffixLen:]
	stored := tail[len(chainOpen) : len(chainOpen)+chainHexLen]
	if string(tail[:len(chainOpen)]) != chainOpen || string(tail[len(chainOpen)+chainHexLen:]) != chainClose {
		return fail(" has no chain digest")
	}

	// The payload follows the header line, and the record's newline
	// follows the payload.
	var payload []byte
	n, unterminated := len(line)+1, nl < 0
	switch pb := hd.PayloadBytes; {
	case pb < 0:
		return fail(" declares a negative payload length %d", pb)
	case pb == 0 && unterminated:
		n = len(line)
	case pb == 0:
	case unterminated || pb > len(b)-n:
		return fail(" payload runs past the end of the journal (%d bytes declared, %d present)", pb, max(len(b)-n, 0))
	default:
		payload = b[n : n+pb : n+pb]
		n += pb
		switch {
		case n == len(b):
			unterminated = true
		case b[n] != '\n':
			return fail(" payload is not newline-terminated")
		default:
			n++
		}
	}

	v.h.Reset()
	v.h.Write(leafPrefix)
	v.h.Write(head)
	v.h.Write(closeBrace)
	v.h.Write(payload)
	v.h.Sum(leaf[:0])
	var chain [sha256.Size]byte
	v.h.Reset()
	v.h.Write(v.prev[:])
	v.h.Write(leaf[:])
	v.h.Sum(chain[:0])
	hex.Encode(v.hex[:], chain[:])
	if string(stored) != string(v.hex[:]) {
		return fail(" chain digest does not verify (stored %.12s…, computed %.12s…): record tampered, reordered or torn",
			stored, v.hex[:])
	}
	v.prev = chain
	rec.Payload = payload
	rec.Chain = string(stored)
	return rec, leaf, n, unterminated, nil
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
// an older format; corruption is reported in the result.
func Verify(path string) (VerifyResult, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return VerifyResult{}, err
	}
	lg, _, bad := scan(b)
	if errors.Is(bad, errLegacy) {
		return VerifyResult{}, fmt.Errorf("%s: %w", path, bad)
	}
	return lg.Verified(), nil
}

// Verified is the verification report of the bytes a tolerant read
// (Inspect, Continue) took the log from — what Verify returns for the
// same bytes — so one read can serve a report and proofs that agree.
func (l *Log) Verified() VerifyResult {
	vr := VerifyResult{Records: len(l.Records), BadSeq: -1, ChainHead: l.ChainHead(), Root: l.Root()}
	if r := l.Repair; r != nil {
		vr.TrailingBytes, vr.MissingNewline = r.TruncatedBytes, r.RepairedNewline
		if r.TruncatedBytes > 0 {
			vr.BadSeq, vr.Reason = len(l.Records), r.Reason
		}
	}
	return vr
}
