package journal

import (
	"fmt"
	"os"
	"strings"
	"testing"
)

func eventRec(i int) Record {
	return Record{Kind: KindEvent, Note: fmt.Sprintf("run-%d", i%3),
		Payload: []byte(fmt.Sprintf(`{"i":%d}`, i))}
}

func openSeg(t *testing.T, dir string, rotate int) (*Segmented, []Record) {
	t.Helper()
	s, replay, err := OpenSegmented(dir, "events", SegmentedOptions{RotateEvery: rotate})
	if err != nil {
		t.Fatal(err)
	}
	return s, replay
}

// TestSegmentedRotationAndReplay: records rotate across chained
// segments and replay in order across a reopen.
func TestSegmentedRotationAndReplay(t *testing.T) {
	dir := t.TempDir()
	s, replay := openSeg(t, dir, 4)
	if len(replay) != 0 {
		t.Fatalf("fresh journal replays %d records", len(replay))
	}
	const n = 10
	for i := 0; i < n; i++ {
		if _, err := s.Append(eventRec(i)); err != nil {
			t.Fatal(err)
		}
	}
	segs, err := segmentIndices(s.dir, s.prefix)
	if err != nil {
		t.Fatal(err)
	}
	if len(segs) < 3 {
		t.Fatalf("10 records at rotate-4 produced %d segments, want ≥3", len(segs))
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	s2, replay := openSeg(t, dir, 4)
	defer s2.Close()
	if len(replay) != n {
		t.Fatalf("replayed %d records, want %d", len(replay), n)
	}
	for i, rec := range replay {
		if string(rec.Payload) != fmt.Sprintf(`{"i":%d}`, i) {
			t.Fatalf("record %d replayed out of order: %s", i, rec.Payload)
		}
	}
	if _, err := s2.Append(eventRec(n)); err != nil {
		t.Fatalf("append after reopen: %v", err)
	}
}

// TestSegmentedDetectsMissingSegment: deleting a middle segment — the
// "truncated segment" crash shape — breaks the cross-segment chain.
func TestSegmentedDetectsMissingSegment(t *testing.T) {
	dir := t.TempDir()
	s, _ := openSeg(t, dir, 3)
	for i := 0; i < 9; i++ {
		if _, err := s.Append(eventRec(i)); err != nil {
			t.Fatal(err)
		}
	}
	segs, err := segmentIndices(s.dir, s.prefix)
	if err != nil {
		t.Fatal(err)
	}
	if len(segs) < 3 {
		t.Fatalf("need ≥3 segments, have %d", len(segs))
	}
	s.Close()
	if err := os.Remove(s.segPath(segs[1])); err != nil {
		t.Fatal(err)
	}
	_, _, err = OpenSegmented(dir, "events", SegmentedOptions{RotateEvery: 3})
	if err == nil || !strings.Contains(err.Error(), "does not chain") {
		t.Fatalf("open over missing segment returned %v, want chain-break error", err)
	}
}

// TestSegmentedDetectsTruncatedMiddleSegment: damage inside a
// non-last segment is not crash-shaped and must refuse, not repair.
func TestSegmentedDetectsTruncatedMiddleSegment(t *testing.T) {
	dir := t.TempDir()
	s, _ := openSeg(t, dir, 3)
	for i := 0; i < 9; i++ {
		if _, err := s.Append(eventRec(i)); err != nil {
			t.Fatal(err)
		}
	}
	segs, err := segmentIndices(s.dir, s.prefix)
	if err != nil {
		t.Fatal(err)
	}
	s.Close()
	mid := s.segPath(segs[1])
	st, err := os.Stat(mid)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(mid, st.Size()/2); err != nil {
		t.Fatal(err)
	}
	_, _, err = OpenSegmented(dir, "events", SegmentedOptions{RotateEvery: 3})
	if err == nil || !strings.Contains(err.Error(), "segment") {
		t.Fatalf("open over truncated middle segment returned %v, want segment error", err)
	}
}

// TestSegmentedRepairsTornLastSegment: a torn tail on the last
// segment is crash-shaped and repaired like a pipeline journal's.
func TestSegmentedRepairsTornLastSegment(t *testing.T) {
	dir := t.TempDir()
	s, _ := openSeg(t, dir, 100)
	for i := 0; i < 5; i++ {
		if _, err := s.Append(eventRec(i)); err != nil {
			t.Fatal(err)
		}
	}
	s.Close()
	path := s.segPath(0)
	st, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(path, st.Size()-7); err != nil {
		t.Fatal(err)
	}
	s2, replay := openSeg(t, dir, 100)
	defer s2.Close()
	if len(replay) != 4 {
		t.Fatalf("replayed %d records after torn tail, want 4 (last record torn away)", len(replay))
	}
	if _, err := s2.Append(eventRec(9)); err != nil {
		t.Fatalf("append after repair: %v", err)
	}
}

// TestSegmentedCompact: compaction folds history into one snapshot
// segment, deletes the rest, and replay returns just the snapshot.
func TestSegmentedCompact(t *testing.T) {
	dir := t.TempDir()
	s, _ := openSeg(t, dir, 3)
	for i := 0; i < 9; i++ {
		if _, err := s.Append(eventRec(i)); err != nil {
			t.Fatal(err)
		}
	}
	snapshot := []Record{eventRec(100), eventRec(101)}
	if err := s.Compact(snapshot); err != nil {
		t.Fatal(err)
	}
	segs, err := segmentIndices(s.dir, s.prefix)
	if err != nil {
		t.Fatal(err)
	}
	if len(segs) != 1 {
		t.Fatalf("after compaction %d segments remain, want 1", len(segs))
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	s2, replay := openSeg(t, dir, 3)
	defer s2.Close()
	if len(replay) != len(snapshot) {
		t.Fatalf("replayed %d records after compaction, want %d", len(replay), len(snapshot))
	}
	for i, rec := range replay {
		if string(rec.Payload) != string(snapshot[i].Payload) {
			t.Fatalf("snapshot record %d did not round-trip", i)
		}
	}
}
