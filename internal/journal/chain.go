package journal

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"hash"
	"io"
	"os"
)

// The hash chain: record i's chain digest is
//
//	chain_i = SHA-256(chain_{i-1} || '\n' || body_i)
//
// where body_i is the record marshalled with its Chain field empty
// and chain_{-1} is ChainSeed(). Any single-byte change to a
// committed record changes its body, so its stored chain digest no
// longer verifies; recomputing it instead changes the input to every
// later record's digest, so the first unmodified successor fails.
// Tampering is therefore always localizable to a first bad sequence
// number (Verify), and rewriting the whole suffix moves the chain
// head, which an auditor pins externally (Log.ChainHead, the
// gateway's proof endpoint).

// ChainSeed returns the chain digest conceptually preceding record 0:
// the SHA-256 of the schema-qualified seed label, so journals of
// different schema versions can never splice.
func ChainSeed() string {
	sum := sha256.Sum256([]byte(Schema + "/chain-seed"))
	return hex.EncodeToString(sum[:])
}

// chainBody marshals the record as the chain and Merkle leaves see
// it: with the Chain field empty. Because Chain is the struct's last
// field, the writer's stored line is exactly this body with the chain
// spliced in before the closing brace, so an auditor holding a record
// (RecordLeaf) recomputes the stored body byte-for-byte
// (encoding/json emits canonical shortest floats and preserves
// RawMessage payloads verbatim).
func chainBody(rec Record) ([]byte, error) {
	rec.Chain = ""
	return json.Marshal(rec)
}

// A stored line is the record's body with the chain digest spliced in
// as the final JSON field: body[:len-1] + chainOpen + hex + chainClose.
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

// storedLine decodes a journal line exactly as Record does, except
// that the payload is captured where it lies: its Payload field
// shadows the embedded Record's, and payloadRef keeps the sub-slice of
// the line json.Unmarshal hands it where json.RawMessage would copy.
type storedLine struct {
	*Record
	Payload payloadRef `json:"payload"`
}

type payloadRef []byte

func (p *payloadRef) UnmarshalJSON(b []byte) error {
	*p = b
	return nil
}

// lineVerifier carries the one SHA-256 state a scan reuses for every
// chain link and Merkle leaf.
type lineVerifier struct {
	h   hash.Hash
	sum [sha256.Size]byte
	hex [chainHexLen]byte
}

// verifyLine parses and verifies one journal line as record idx with
// the given predecessor chain digest, and returns the record with its
// Merkle leaf. The chain is checked over the line's raw body bytes,
// not a re-marshalled record, so any raw single-byte change is
// detected — including ones json.Unmarshal would normalize away (a
// mangled field name parses as an ignored unknown field and would
// re-marshal back to the original body). The body is the line minus
// its chain suffix plus the closing brace; both hashes stream those
// two pieces, so it is never assembled.
func (v *lineVerifier) verifyLine(line []byte, idx int, prev string) (Record, [sha256.Size]byte, error) {
	var rec Record
	var leaf [sha256.Size]byte
	if len(line) == 0 {
		return rec, leaf, fmt.Errorf("journal: record %d: blank line", idx)
	}
	lr := storedLine{Record: &rec}
	if err := json.Unmarshal(line, &lr); err != nil {
		return rec, leaf, fmt.Errorf("journal: record %d: %w", idx, err)
	}
	rec.Payload = json.RawMessage(lr.Payload)
	if rec.Seq != idx {
		return rec, leaf, fmt.Errorf("journal: record %d carries seq %d", idx, rec.Seq)
	}
	if len(rec.Payload) > 0 {
		if got := Digest(rec.Payload); got != rec.Digest {
			return rec, leaf, fmt.Errorf("journal: record %d payload digest %s does not match stored %s",
				idx, got, rec.Digest)
		}
	}
	if len(line) < chainSuffixLen {
		return rec, leaf, fmt.Errorf("journal: record %d has no chain digest", idx)
	}
	head, tail := line[:len(line)-chainSuffixLen], line[len(line)-chainSuffixLen:]
	stored := tail[len(chainOpen) : len(chainOpen)+chainHexLen]
	if string(tail[:len(chainOpen)]) != chainOpen || string(tail[len(chainOpen)+chainHexLen:]) != chainClose {
		return rec, leaf, fmt.Errorf("journal: record %d has no chain digest", idx)
	}
	v.h.Reset()
	io.WriteString(v.h, prev)
	v.h.Write(newline)
	v.h.Write(head)
	v.h.Write(closeBrace)
	hex.Encode(v.hex[:], v.h.Sum(v.sum[:0]))
	if string(stored) != string(v.hex[:]) {
		return rec, leaf, fmt.Errorf("journal: record %d chain digest does not verify (stored %.12s…, computed %.12s…): record tampered, reordered or torn",
			idx, stored, v.hex[:])
	}
	v.h.Reset()
	v.h.Write(leafPrefix)
	v.h.Write(head)
	v.h.Write(closeBrace)
	v.h.Sum(leaf[:0])
	return rec, leaf, nil
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
// chain breaks. The returned error covers I/O only; corruption is
// reported in the result.
func Verify(path string) (VerifyResult, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return VerifyResult{}, err
	}
	lg, _, _ := scan(b)
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
