package journal

import (
	"bytes"
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
			DurationSeconds: 90.5, Digest: Digest(payload), Payload: payload},
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
	if got := lg.Units(); got != 1 {
		t.Errorf("Units = %d, want 1", got)
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

// chainedLine builds one stored journal line whose chain digest is
// valid for the record's (possibly deliberately wrong) content, so a
// test can reach the seq/digest checks without tripping the chain
// check first. It returns the line (newline included) and the
// record's chain digest for chaining the next line.
func chainedLine(t *testing.T, rec Record, prev string) ([]byte, string) {
	t.Helper()
	body, err := chainBody(rec)
	if err != nil {
		t.Fatal(err)
	}
	chain := refChainNext(prev, body)
	return refSpliceChain(body, chain), chain
}

func TestReadRejectsCorruption(t *testing.T) {
	header, headChain := chainedLine(t, Record{Kind: KindHeader}, ChainSeed())
	noHeader, _ := chainedLine(t, Record{Kind: KindUnit}, ChainSeed())
	badSeq, _ := chainedLine(t, Record{Seq: 5, Kind: KindStageStart}, headChain)
	badDigest, _ := chainedLine(t, Record{Seq: 1, Kind: KindUnit,
		Digest: "0000000000000000", Payload: []byte(`{"a":1}`)}, headChain)
	// A record rewritten after commit keeps a stale chain digest.
	tampered, _ := chainedLine(t, Record{Seq: 1, Kind: KindStageStart, Stage: "PA"}, headChain)
	tampered = bytes.Replace(tampered, []byte(`"PA"`), []byte(`"PB"`), 1)

	cases := []struct {
		name, want string
		body       []byte
	}{
		{"empty", "empty", nil},
		{"garbage", "record 0", []byte("not json\n")},
		{"no-header", "first record", noHeader},
		{"bad-seq", "carries seq 5", append(append([]byte{}, header...), badSeq...)},
		{"bad-digest", "digest", append(append([]byte{}, header...), badDigest...)},
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
	header, _ := chainedLine(t, Record{Kind: KindHeader}, ChainSeed())
	body := append(header, `{"seq":1,"kind":"stage`...)
	if err := os.WriteFile(path, body, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(path); err == nil {
		t.Fatal("torn journal opened without error")
	}
}

func TestDigestStable(t *testing.T) {
	if Digest([]byte("abc")) != Digest([]byte("abc")) {
		t.Error("digest not deterministic")
	}
	if Digest([]byte("abc")) == Digest([]byte("abd")) {
		t.Error("digest does not separate inputs")
	}
	if len(Digest(nil)) != 16 {
		t.Errorf("digest %q not 16 hex chars", Digest(nil))
	}
}
