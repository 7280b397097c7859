package journal

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// writeFixture writes a small complete journal and returns its path
// and records.
func writeFixture(t testing.TB, n int) (string, []Record) {
	t.Helper()
	path := filepath.Join(t.TempDir(), "run.journal")
	w, err := Create(path)
	if err != nil {
		t.Fatal(err)
	}
	var recs []Record
	rec, err := w.Append(Record{Kind: KindHeader, Seed: 7, Digest: "cfg"})
	if err != nil {
		t.Fatal(err)
	}
	recs = append(recs, rec)
	for i := 1; i < n; i++ {
		payload := []byte(fmt.Sprintf(`{"unit":%d}`, i))
		rec, err := w.Append(Record{Kind: KindUnit, Stage: "PA",
			Unit: fmt.Sprintf("u-%d", i), VTime: float64(i),
			Digest: Digest(payload), Payload: payload})
		if err != nil {
			t.Fatal(err)
		}
		recs = append(recs, rec)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	return path, recs
}

// TestContinueRepairsTornTail: a crash mid-batch leaves half a record
// at the tail. Continue truncates back to the last chain-verified
// record, reports the repair, and the journal accepts appends again.
func TestContinueRepairsTornTail(t *testing.T) {
	path, recs := writeFixture(t, 5)
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	lastNL := bytes.LastIndexByte(b[:len(b)-1], '\n')
	torn := b[:lastNL+1+12] // 12 bytes of the final record: mid-JSON
	if err := os.WriteFile(path, torn, 0o644); err != nil {
		t.Fatal(err)
	}

	lg, w, err := Continue(path)
	if err != nil {
		t.Fatalf("continue over torn tail: %v", err)
	}
	if len(lg.Records) != len(recs)-1 {
		t.Fatalf("continued with %d records, want %d (torn record dropped)", len(lg.Records), len(recs)-1)
	}
	if lg.Repair == nil || lg.Repair.TruncatedBytes != 12 {
		t.Fatalf("repair = %v, want 12 truncated bytes", lg.Repair)
	}
	if _, err := w.Append(Record{Kind: KindComplete, Note: "ok"}); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	final, err := Open(path)
	if err != nil {
		t.Fatalf("repaired journal does not verify strictly: %v", err)
	}
	if got := len(final.Records); got != len(recs) {
		t.Fatalf("final journal has %d records, want %d", got, len(recs))
	}
	if vr, err := Verify(path); err != nil || !vr.Clean() {
		t.Fatalf("verify after repair: %v, %s", err, vr)
	}
}

// TestContinueRepairsMissingNewline is THE bug this issue exists for:
// a final record that lost only its trailing newline used to be
// accepted as-is, and the next O_APPEND write fused onto the same
// line ("...}{"seq":..."), wrecking the journal. Continue must
// restore the newline before appending.
func TestContinueRepairsMissingNewline(t *testing.T) {
	path, recs := writeFixture(t, 4)
	st, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(path, st.Size()-1); err != nil {
		t.Fatal(err)
	}

	lg, w, err := Continue(path)
	if err != nil {
		t.Fatalf("continue over newline-less tail: %v", err)
	}
	if len(lg.Records) != len(recs) {
		t.Fatalf("continued with %d records, want %d (final record is intact)", len(lg.Records), len(recs))
	}
	if lg.Repair == nil || !lg.Repair.RepairedNewline {
		t.Fatalf("repair = %v, want repaired newline", lg.Repair)
	}
	if _, err := w.Append(Record{Kind: KindComplete, Note: "ok"}); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}

	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Contains(b, []byte("}{")) {
		t.Fatal("records fused onto one line: the newline repair did not happen")
	}
	final, err := Open(path)
	if err != nil {
		t.Fatalf("repaired journal does not verify strictly: %v", err)
	}
	if got := len(final.Records); got != len(recs)+1 {
		t.Fatalf("final journal has %d records, want %d", got, len(recs)+1)
	}
}

// TestVerifyPinpointsTamperedRecord: flipping one byte inside a
// committed record makes Verify name exactly that record's seq, and
// Continue resumes at the verified prefix before it.
func TestVerifyPinpointsTamperedRecord(t *testing.T) {
	path, recs := writeFixture(t, 6)
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// Tamper inside record 3: find its line and flip a payload byte.
	lines := bytes.SplitAfter(b, []byte("\n"))
	tampered := bytes.Replace(lines[3], []byte(`"unit":3`), []byte(`"unit":9`), 1)
	if bytes.Equal(tampered, lines[3]) {
		t.Fatal("fixture: tamper target not found")
	}
	lines[3] = tampered
	if err := os.WriteFile(path, bytes.Join(lines, nil), 0o644); err != nil {
		t.Fatal(err)
	}

	vr, err := Verify(path)
	if err != nil {
		t.Fatal(err)
	}
	if vr.Clean() || vr.BadSeq != 3 {
		t.Fatalf("verify = %s, want first bad seq 3", vr)
	}
	if vr.Records != 3 {
		t.Fatalf("verify reports %d verified records, want 3", vr.Records)
	}

	lg, w, err := Continue(path)
	if err != nil {
		t.Fatalf("continue over tampered tail: %v", err)
	}
	defer w.Close()
	if len(lg.Records) != 3 {
		t.Fatalf("continued with %d records, want the 3 before the tamper", len(lg.Records))
	}
	if lg.Repair == nil || lg.Repair.TruncatedBytes == 0 {
		t.Fatalf("repair = %v, want truncated tail", lg.Repair)
	}
	for i, rec := range lg.Records {
		if rec.Chain != recs[i].Chain {
			t.Fatalf("record %d chain drifted across repair", i)
		}
	}
}

// TestVerifyDetectsAnySingleByteFlip is the acceptance sweep: every
// single-byte flip anywhere in a committed journal must make Verify
// report damage.
func TestVerifyDetectsAnySingleByteFlip(t *testing.T) {
	path, _ := writeFixture(t, 4)
	orig, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	flipped := filepath.Join(t.TempDir(), "flipped.journal")
	for i := range orig {
		mut := append([]byte{}, orig...)
		mut[i] ^= 0x01
		if err := os.WriteFile(flipped, mut, 0o644); err != nil {
			t.Fatal(err)
		}
		vr, err := Verify(flipped)
		if err != nil {
			t.Fatalf("byte %d: %v", i, err)
		}
		if vr.Clean() {
			t.Fatalf("flipping byte %d (%q) went undetected", i, orig[i])
		}
	}
}

// TestInspectDoesNotMutate: the tolerant read reports damage without
// touching the file; only Continue repairs.
func TestInspectDoesNotMutate(t *testing.T) {
	path, _ := writeFixture(t, 3)
	st, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(path, st.Size()-1); err != nil {
		t.Fatal(err)
	}
	before, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	lg, err := Inspect(path)
	if err != nil {
		t.Fatal(err)
	}
	if lg.Repair == nil || !lg.Repair.RepairedNewline {
		t.Fatalf("inspect repair = %v, want missing-newline report", lg.Repair)
	}
	after, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(before, after) {
		t.Fatal("Inspect modified the journal")
	}
}

// TestContinueRefusesAllDamaged: a journal with no verifiable prefix
// at all is not silently reset.
func TestContinueRefusesAllDamaged(t *testing.T) {
	path := filepath.Join(t.TempDir(), "run.journal")
	if err := os.WriteFile(path, []byte("garbage, not a journal\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, err := Continue(path); err == nil || !strings.Contains(err.Error(), "no verifiable records") {
		t.Fatalf("continue over garbage returned %v, want no-verifiable-records error", err)
	}
}
