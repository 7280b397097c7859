// Package journal implements a deterministic, tamper-evident
// write-ahead run journal.
//
// A journal is a sequence of records. Each is a JSON header line that
// names its payload's length, followed by the payload's raw bytes and
// a newline (a record without a payload is its header line alone), so
// a reader decodes headers as JSON and slices payloads where they lie.
// The pipeline appends a record at every stage boundary and at every
// unit completion, capturing the virtual clock, the accrued cost and a
// digest of the stage artifacts; each append is durable (flushed and,
// when file-backed, fsynced) before Append returns, so the prefix on
// disk is always a consistent cut of the run. Resuming replays that
// prefix — completed units return their journaled results instead of
// re-executing — and then continues appending, so the journal of a
// crashed-and-resumed run converges to the record sequence of an
// uninterrupted one.
//
// Two mechanisms make the journal production-shaped:
//
//   - Group commit. Concurrent Append calls coalesce into one
//     write+fsync (see Options.BatchSize / Options.MaxWait), so the
//     per-append durability contract is unchanged while the fsync
//     cost is amortized across appenders. A writer that hits a
//     write or sync error is poisoned: every later Append returns
//     the original error instead of appending after possibly-partial
//     bytes (fail-stop).
//
//   - A hash chain. Every record's chain digest (SHA-256) covers its
//     own header and payload and the previous record's chain digest,
//     so any single-byte change to a committed record breaks
//     verification from that record onward. The chain makes torn-tail
//     handling principled: Continue truncates a torn or newline-less
//     tail to the last chain-verified record instead of refusing to
//     resume or silently fusing records, Verify pinpoints the first
//     bad sequence number, and per-log Merkle roots provide compact
//     inclusion proofs (Log.Proof) for auditable run provenance.
//
// Long-lived callers (the gateway's event log) use Segmented, which
// rotates records across chained segment files and compacts obsolete
// segments so the journal directory does not grow without bound.
//
// The package is deliberately free of pipeline knowledge: records
// carry opaque payloads, and the replay semantics live in the caller
// (internal/core for the pipeline, internal/gateway for the run
// table).
package journal

import (
	"bytes"
	"crypto/sha256"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
)

// Schema identifies the journal record format.
const Schema = "rnascale.journal/v3"

// Record kinds, in the order they appear in a complete journal.
const (
	KindHeader     = "header"      // first record: config digest + fault seed
	KindStageStart = "stage-start" // a pipeline stage began
	KindUnit       = "unit"        // a compute unit completed (payload = its outputs)
	KindStageEnd   = "stage-end"   // a pipeline stage ended (digest = stage artifacts)
	KindComplete   = "complete"    // the run returned (note records the outcome)
	// KindCancelled marks a run cut off at its virtual-time deadline or
	// cancellation point (note records the outcome class); it precedes
	// the complete record in a cancelled run's journal.
	KindCancelled = "cancelled"
	// KindEvent is a generic state-transition record for journals that
	// log a table rather than a pipeline (the gateway's event log).
	KindEvent = "event"
)

// Record is one journal record. VTime and CostUSD snapshot the
// virtual clock and the accrued bill at the moment the record was
// written; for unit records VTime is the unit's virtual completion
// time. Digest is a caller's string: the header's config digest, a
// stage's artifact digest, a segment's back-pointer. Payload is
// opaque bytes stored after the header line, not inside it. Chain is
// stamped by the Writer (callers leave it empty): the SHA-256 hash
// chain digest covering this record's header and payload and the
// previous record's chain digest.
//
// The Payload of a record read back from storage is a sub-slice of
// the buffer the journal was read into, not a copy: treat it as
// read-only.
type Record struct {
	Seq             int             `json:"seq"`
	Kind            string          `json:"kind"`
	Stage           string          `json:"stage,omitempty"`
	Unit            string          `json:"unit,omitempty"`
	VTime           float64         `json:"vtime"`
	CostUSD         float64         `json:"costUSD"`
	DurationSeconds float64         `json:"durationSeconds,omitempty"`
	PeakMemoryGB    float64         `json:"peakMemoryGB,omitempty"`
	Seed            uint64          `json:"seed,omitempty"`
	Digest          string          `json:"digest,omitempty"`
	Note            string          `json:"note,omitempty"`
	Payload         json.RawMessage `json:"-"`
	Chain           string          `json:"chain,omitempty"`
}

// header is a record's stored header line: its fields, then the
// payload's length, then the chain digest — last, so the Writer can
// splice it in before the closing brace. Chain here shadows the
// Record's, which never reaches the line.
type header struct {
	*Record
	PayloadBytes int    `json:"payloadBytes,omitempty"`
	Chain        string `json:"chain,omitempty"`
}

// legacySchema is the format v3 replaced, in which a record was one
// JSON line carrying its payload inline. Journals written in it are
// refused, never read or repaired.
const legacySchema = "rnascale.journal/v2"

var errLegacy = errors.New("journal: written as " + legacySchema + "; this build reads " + Schema + " only")

// Log is a journal read back from storage: the chain-verified records
// and, for each, the Merkle leaf taken over its stored bytes while
// they were being verified. Root and Proof commit to what was read; a
// Log assembled by hand has no leaves to commit to.
type Log struct {
	Records []Record
	// Repair is non-nil when a tolerant open (Inspect, Continue) found
	// tail damage: it describes what was dropped or fixed. Strict
	// reads (Open, Read) never set it — they error instead.
	Repair *Repair

	leaves [][sha256.Size]byte
}

// Repair describes the damage a tolerant open found at a journal's
// tail and, for Continue, repaired in place.
type Repair struct {
	// TruncatedBytes counts unverifiable trailing bytes beyond the
	// last chain-verified record (a torn write, or a tampered suffix).
	TruncatedBytes int `json:"truncatedBytes,omitempty"`
	// RepairedNewline is set when the final record was intact but had
	// lost its trailing newline (a crash between the payload write and
	// the newline reaching disk would otherwise fuse the next append
	// onto the same line).
	RepairedNewline bool `json:"repairedNewline,omitempty"`
	// Reason is the verification failure that ended the verified
	// prefix, empty when only the newline was missing.
	Reason string `json:"reason,omitempty"`
}

func (r *Repair) String() string {
	if r == nil {
		return "clean"
	}
	if r.RepairedNewline {
		return "restored missing final newline"
	}
	return fmt.Sprintf("truncated %d unverifiable tail bytes (%s)", r.TruncatedBytes, r.Reason)
}

// Open reads the journal at path strictly: any damage — a torn tail,
// a broken chain — is an error. Use Inspect for a tolerant read or
// Continue to repair and resume.
func Open(path string) (*Log, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	return readStrict(b)
}

// Read parses a journal from r, verifying the sequence number, the
// payload framing and the hash chain of every record. Records are not
// subject to any size cap; verification errors name the record index
// they occurred at.
func Read(r io.Reader) (*Log, error) {
	var buf bytes.Buffer
	if sized, ok := r.(interface{ Len() int }); ok {
		// A bytes.Reader or Buffer says how much is coming: read it
		// into one allocation instead of growing into it.
		buf.Grow(sized.Len() + bytes.MinRead)
	}
	if _, err := buf.ReadFrom(r); err != nil {
		return nil, fmt.Errorf("journal: read: %w", err)
	}
	return readStrict(buf.Bytes())
}

func readStrict(b []byte) (*Log, error) {
	lg, _, bad := scan(b)
	if bad != nil {
		return nil, bad
	}
	if err := lg.usable("", nil); err != nil {
		return nil, err
	}
	lg.Repair = nil // a final record without its newline still reads
	return lg, nil
}

// Inspect reads the journal at path tolerantly: the chain-verified
// prefix is returned and any damaged tail is reported in Log.Repair
// instead of failing the read. The file is not modified (Continue is
// the mutating variant). Inspect fails only when no verifiable
// record prefix exists at all.
func Inspect(path string) (*Log, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	lg, _, bad := scan(b)
	if err := lg.usable(path, bad); err != nil {
		return nil, err
	}
	return lg, nil
}

// scan is the one pass behind every reader (Read, Open, Inspect,
// Continue, Verify): it walks journal bytes record by record,
// verifying each in place (verifyRecord) until the first failure. It
// returns the verified prefix as a Log — Repair describing the
// (possibly empty) damaged tail after it — the byte offset just past
// that prefix, and the failure that ended it, nil when every byte
// verified. Nothing is copied out of b: the records' payloads alias
// it. A journal whose very first record is in the legacy format fails
// with errLegacy.
func scan(b []byte) (lg *Log, goodEnd int, bad error) {
	lg = &Log{}
	v := newVerifier()
	missingNewline := false
	for goodEnd < len(b) {
		rec, leaf, n, unterminated, err := v.verifyRecord(b[goodEnd:], len(lg.Records))
		if err != nil {
			bad = err
			break
		}
		lg.Records = append(lg.Records, rec)
		lg.leaves = append(lg.leaves, leaf)
		goodEnd += n
		missingNewline = unterminated
	}
	if len(lg.Records) == 0 && bad != nil && legacy(b) {
		bad = errLegacy
	}
	if goodEnd < len(b) || missingNewline {
		lg.Repair = &Repair{TruncatedBytes: len(b) - goodEnd, RepairedNewline: missingNewline}
		if bad != nil {
			lg.Repair.Reason = bad.Error()
		}
	}
	return lg, goodEnd, bad
}

// usable reports whether the verified prefix is a journal a caller
// can work with: at least one record, the first of them a header. bad
// is the failure that ended the scan.
func (l *Log) usable(path string, bad error) error {
	if len(l.Records) == 0 {
		switch {
		case errors.Is(bad, errLegacy):
			return fmt.Errorf("%s: %w", path, bad)
		case bad != nil:
			return fmt.Errorf("journal: %s: no verifiable records (%v)", path, bad)
		}
		return fmt.Errorf("journal: empty")
	}
	if l.Records[0].Kind != KindHeader {
		return fmt.Errorf("journal: first record is %q, want %q", l.Records[0].Kind, KindHeader)
	}
	return nil
}

// Header returns the journal's header record.
func (l *Log) Header() Record { return l.Records[0] }

// Complete reports whether the journal records a finished run (the
// run returned, successfully or not, and wrote its final record).
// A journal that is not complete belongs to an interrupted run and
// is resumable.
func (l *Log) Complete() bool {
	return l.Records[len(l.Records)-1].Kind == KindComplete
}

// ChainHead returns the chain digest of the journal's last record —
// the value an auditor pins to detect any later rewrite of history.
func (l *Log) ChainHead() string {
	if len(l.Records) == 0 {
		return ChainSeed()
	}
	return l.Records[len(l.Records)-1].Chain
}

// LastVTime returns the largest virtual time recorded in the journal.
// Records are appended in non-decreasing virtual-time order, but the
// maximum is taken defensively.
func (l *Log) LastVTime() float64 {
	var max float64
	for _, r := range l.Records {
		if r.VTime > max {
			max = r.VTime
		}
	}
	return max
}
