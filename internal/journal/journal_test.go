package journal

import (
	"bytes"
	"crypto/sha256"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "run.journal")
	w, err := Create(path)
	if err != nil {
		t.Fatal(err)
	}
	payload := []byte(`{"shard":0}`)
	recs := []Record{
		{Kind: KindHeader, Seed: 42, Digest: "cfg", Note: "tiny"},
		{Kind: KindStageStart, Stage: "PA", VTime: 30},
		{Kind: KindUnit, Stage: "PA", Unit: "preprocess-0", VTime: 120.5, CostUSD: 0.25,
			DurationSeconds: 90.5, Payload: payload},
		{Kind: KindStageEnd, Stage: "PA", VTime: 121, CostUSD: 0.25, Digest: "abc"},
		{Kind: KindComplete, VTime: 200, CostUSD: 0.5, Note: "ok"},
	}
	for i, rec := range recs {
		stamped, err := w.Append(rec)
		if err != nil {
			t.Fatal(err)
		}
		if stamped.Seq != i {
			t.Fatalf("record %d stamped seq %d", i, stamped.Seq)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}

	lg, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(lg.Records) != len(recs) {
		t.Fatalf("read %d records, wrote %d", len(lg.Records), len(recs))
	}
	if !lg.Complete() {
		t.Error("journal with complete record reports Complete()=false")
	}
	if got := lg.LastVTime(); got != 200 {
		t.Errorf("LastVTime = %v, want 200", got)
	}
	u := lg.Records[2]
	if string(u.Payload) != string(payload) || u.DurationSeconds != 90.5 {
		t.Errorf("unit record did not round-trip: %+v", u)
	}
	if h := lg.Header(); h.Seed != 42 || h.Digest != "cfg" {
		t.Errorf("header did not round-trip: %+v", h)
	}
}

func TestContinueAppendsAfterPrefix(t *testing.T) {
	path := filepath.Join(t.TempDir(), "run.journal")
	w, err := Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := w.Append(Record{Kind: KindHeader}); err != nil {
		t.Fatal(err)
	}
	if _, err := w.Append(Record{Kind: KindStageStart, Stage: "PA"}); err != nil {
		t.Fatal(err)
	}
	w.Close()

	lg, w2, err := Continue(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(lg.Records) != 2 {
		t.Fatalf("prefix has %d records, want 2", len(lg.Records))
	}
	if lg.Complete() {
		t.Error("interrupted journal reports Complete()=true")
	}
	stamped, err := w2.Append(Record{Kind: KindComplete, Note: "ok"})
	if err != nil {
		t.Fatal(err)
	}
	if stamped.Seq != 2 {
		t.Errorf("continued append stamped seq %d, want 2", stamped.Seq)
	}
	w2.Close()

	full, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(full.Records) != 3 || !full.Complete() {
		t.Fatalf("continued journal has %d records complete=%v", len(full.Records), full.Complete())
	}
}

// chainedRecord builds one stored journal record whose chain digest
// is valid for the record's (possibly deliberately wrong) content, so
// a test can reach the seq and framing checks without tripping the
// chain check first. It returns the stored bytes and the record's
// chain digest for chaining the next record.
func chainedRecord(t *testing.T, rec Record, prev [sha256.Size]byte) ([]byte, [sha256.Size]byte) {
	t.Helper()
	head, err := refHeader(rec)
	if err != nil {
		t.Fatal(err)
	}
	return refStore(head, rec.Payload, prev)
}

func TestReadRejectsCorruption(t *testing.T) {
	header, headChain := chainedRecord(t, Record{Kind: KindHeader}, chainSeed())
	noHeader, _ := chainedRecord(t, Record{Kind: KindUnit}, chainSeed())
	badSeq, _ := chainedRecord(t, Record{Seq: 5, Kind: KindStageStart}, headChain)
	// A payload torn short of the length its header declares.
	pastEOF, _ := chainedRecord(t, Record{Seq: 1, Kind: KindUnit, Payload: []byte(`{"a":1,"b":[2,3,4]}`)}, headChain)
	pastEOF = pastEOF[:len(pastEOF)-9]
	// A record rewritten after commit keeps a stale chain digest.
	tampered, _ := chainedRecord(t, Record{Seq: 1, Kind: KindStageStart, Stage: "PA"}, headChain)
	tampered = bytes.Replace(tampered, []byte(`"PA"`), []byte(`"PB"`), 1)

	cases := []struct {
		name, want string
		body       []byte
	}{
		{"empty", "empty", nil},
		{"garbage", "record 0", []byte("not json\n")},
		{"no-header", "first record", noHeader},
		{"bad-seq", "carries seq 5", append(append([]byte{}, header...), badSeq...)},
		{"payload-past-eof", "payload runs past the end", append(append([]byte{}, header...), pastEOF...)},
		{"tampered", "chain digest does not verify", append(append([]byte{}, header...), tampered...)},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := Read(bytes.NewReader(tc.body))
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("error %v, want substring %q", err, tc.want)
			}
		})
	}
}

func TestTornTrailingLineIsAnError(t *testing.T) {
	// A crash between write and sync can leave a torn final line; the
	// strict Open refuses it (Continue is the repairing path).
	path := filepath.Join(t.TempDir(), "run.journal")
	header, _ := chainedRecord(t, Record{Kind: KindHeader}, chainSeed())
	body := append(header, `{"seq":1,"kind":"stage`...)
	if err := os.WriteFile(path, body, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(path); err == nil {
		t.Fatal("torn journal opened without error")
	}
}

// TestLegacyJournalRefused: a journal written in the legacy format —
// one JSON line per record, payloads inline — is refused by every
// reader with one error naming both formats, and never repaired: the
// legacy chain does not verify under the current rule, and without
// this check Continue would treat the file as damage. The fixture is
// a real run's journal from the build before the current format:
//
//	rnapipe -profile tiny -assemblers contrail -evaluate=false -journal internal/journal/testdata/tiny-contrail.v2.journal
func TestLegacyJournalRefused(t *testing.T) {
	orig, err := os.ReadFile(filepath.Join("testdata", "tiny-contrail.v2.journal"))
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	path := filepath.Join(dir, "run.journal")
	if err := os.WriteFile(path, orig, 0o644); err != nil {
		t.Fatal(err)
	}
	segs := filepath.Join(dir, "segments")
	if err := os.Mkdir(segs, 0o755); err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"events-000000.journal", "events-000001.journal"} {
		if err := os.WriteFile(filepath.Join(segs, name), orig, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	for name, open := range map[string]func() error{
		"Open":    func() error { _, err := Open(path); return err },
		"Read":    func() error { _, err := Read(bytes.NewReader(orig)); return err },
		"Inspect": func() error { _, err := Inspect(path); return err },
		"Verify":  func() error { _, err := Verify(path); return err },
		"Continue": func() error {
			_, w, err := Continue(path)
			if err == nil {
				w.Close()
			}
			return err
		},
		"OpenSegmented": func() error {
			s, _, err := OpenSegmented(segs, "events", SegmentedOptions{})
			if err == nil {
				s.Close()
			}
			return err
		},
	} {
		err := open()
		if err == nil || !strings.Contains(err.Error(), "rnascale.journal/v2") || !strings.Contains(err.Error(), Schema) {
			t.Errorf("%s of a legacy journal: %v, want an error naming rnascale.journal/v2 and %s", name, err, Schema)
		}
	}
	for _, p := range []string{path, filepath.Join(segs, "events-000000.journal"), filepath.Join(segs, "events-000001.journal")} {
		if b, err := os.ReadFile(p); err != nil || !bytes.Equal(b, orig) {
			t.Fatalf("%s changed after the legacy journal was refused (%v)", p, err)
		}
	}
	if ents, err := os.ReadDir(segs); err != nil || len(ents) != 2 {
		t.Fatalf("segment directory holds %d entries after the refusal, want the 2 segments untouched (%v)", len(ents), err)
	}
}
