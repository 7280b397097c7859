package gateway

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"rnascale/internal/journal"
	"rnascale/internal/obs"
)

// lastSegmentPath returns the highest-indexed event-log segment — the
// one a dying gateway was appending to.
func lastSegmentPath(t *testing.T, dir string) string {
	t.Helper()
	matches, err := filepath.Glob(filepath.Join(dir, eventsPrefix+"-*.journal"))
	if err != nil || len(matches) == 0 {
		t.Fatalf("no event-log segments in %s: %v", dir, err)
	}
	sort.Strings(matches)
	return matches[len(matches)-1]
}

// newJournaledServer builds a gateway persisting to dir.
func newJournaledServer(t *testing.T, dir string) (*Server, *httptest.Server) {
	t.Helper()
	s := NewServer(2)
	if err := s.EnableJournal(dir); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	t.Cleanup(func() { _ = s.Close() })
	return s, ts
}

// crashingRun is a submission whose driver dies mid-run, leaving a
// resumable pipeline journal behind.
func crashingRun() RunRequest {
	return RunRequest{Profile: "tiny", Assemblers: []string{"ray"},
		Scheme: "S1", Pattern: "static", Faults: "drivercrash:at=500", FaultSeed: 1}
}

func postResume(t *testing.T, ts *httptest.Server, id string) (int, map[string]any) {
	t.Helper()
	resp, err := http.Post(ts.URL+"/api/runs/"+id+"/resume", "application/json", nil)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var body map[string]any
	_ = json.NewDecoder(resp.Body).Decode(&body)
	return resp.StatusCode, body
}

// TestGatewayRestartReAdoptsInFlightRun simulates gateway loss with a
// run mid-flight: the replacement gateway rebuilds the run table from
// the event log, resumes the interrupted run from its pipeline
// journal, and finishes it under the same id — no dropped or
// duplicated runs.
func TestGatewayRestartReAdoptsInFlightRun(t *testing.T) {
	dir := t.TempDir()
	s1, ts1 := newJournaledServer(t, dir)
	view := submitRun(t, ts1, crashingRun())
	s1.Wait()
	s1.Close()
	ts1.Close()

	// The run's driver crashed, so its journal survives incomplete.
	lg, err := journal.Open(filepath.Join(dir, view.ID+".journal"))
	if err != nil {
		t.Fatalf("open pipeline journal: %v", err)
	}
	if lg.Complete() {
		t.Fatal("crashed run's journal claims completion")
	}

	// Simulate the gateway dying before it could log the failure: drop
	// the trailing "failed" event so the log ends with the run running
	// — exactly what a SIGKILL mid-run leaves behind. Chopping the log
	// at a record boundary leaves a chain-valid prefix, so the
	// replacement gateway adopts it without repair.
	evPath := lastSegmentPath(t, dir)
	b, err := os.ReadFile(evPath)
	if err != nil {
		t.Fatal(err)
	}
	lines := bytes.Split(bytes.TrimRight(b, "\n"), []byte("\n"))
	last := lines[len(lines)-1]
	if !bytes.Contains(last, []byte(`"failed"`)) {
		t.Fatalf("expected trailing failed event, got %s", last)
	}
	if err := os.WriteFile(evPath, append(bytes.Join(lines[:len(lines)-1], []byte("\n")), '\n'), 0o644); err != nil {
		t.Fatal(err)
	}

	s2, ts2 := newJournaledServer(t, dir)
	s2.Wait()

	var views []RunView
	if code := getJSON(t, ts2.URL+"/api/runs", &views); code != 200 {
		t.Fatalf("list status %d", code)
	}
	if len(views) != 1 {
		t.Fatalf("restart produced %d runs, want exactly the adopted one", len(views))
	}
	got := views[0]
	if got.ID != view.ID {
		t.Fatalf("adopted run id %s, submitted %s", got.ID, view.ID)
	}
	if got.Status != StatusDone {
		t.Fatalf("adopted run finished %s (%s), want done", got.Status, got.Error)
	}
	if got.Transcripts == 0 {
		t.Error("adopted run produced no transcripts")
	}

	// The resume was counted, and the continued journal is complete.
	if v := metricValue(t, s2, obs.MetricRunsResumed); v != 1 {
		t.Errorf("%s = %v, want 1", obs.MetricRunsResumed, v)
	}
	lg, err = journal.Open(filepath.Join(dir, view.ID+".journal"))
	if err != nil {
		t.Fatal(err)
	}
	if !lg.Complete() {
		t.Error("resumed run's journal lacks the complete record")
	}

	// New submissions continue the id sequence rather than colliding.
	next := submitRun(t, ts2, RunRequest{Profile: "tiny", Assemblers: []string{"ray"}})
	if next.ID == view.ID {
		t.Fatalf("new submission reused id %s", next.ID)
	}
	s2.Wait()
}

// TestGatewayRestartKeepsHistoryAndQueue: terminal runs survive a
// restart as history, and a run still queued when the gateway died is
// re-enqueued and executed.
func TestGatewayRestartKeepsHistoryAndQueue(t *testing.T) {
	dir := t.TempDir()
	s1, ts1 := newJournaledServer(t, dir)
	done := submitRun(t, ts1, RunRequest{Profile: "tiny", Assemblers: []string{"ray"}})
	s1.Wait()
	s1.Close()
	ts1.Close()

	// Append a run the dead gateway accepted but never started, by
	// continuing its event-log segment — a handcrafted line would not
	// carry a valid chain digest.
	b, err := json.Marshal(RunView{
		ID: "run-00009", Status: StatusQueued,
		Request: RunRequest{Profile: "tiny", Assemblers: []string{"ray"}},
	})
	if err != nil {
		t.Fatal(err)
	}
	_, ew, err := journal.Continue(lastSegmentPath(t, dir))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ew.Append(journal.Record{Kind: journal.KindEvent, Note: "run-00009", Payload: b}); err != nil {
		t.Fatal(err)
	}
	if err := ew.Close(); err != nil {
		t.Fatal(err)
	}
	preCompact := lastSegmentPath(t, dir)

	s2, ts2 := newJournaledServer(t, dir)
	s2.Wait()
	var views []RunView
	getJSON(t, ts2.URL+"/api/runs", &views)
	byID := map[string]RunView{}
	for _, v := range views {
		byID[v.ID] = v
	}
	if len(views) != 2 {
		t.Fatalf("restart holds %d runs, want 2", len(views))
	}
	if v := byID[done.ID]; v.Status != StatusDone || v.Transcripts == 0 {
		t.Errorf("finished run did not survive restart: %+v", v)
	}
	if v := byID["run-00009"]; v.Status != StatusDone {
		t.Errorf("queued run was not re-adopted to completion: %+v", v)
	}
	// The id counter moved past the adopted ids.
	next := submitRun(t, ts2, RunRequest{Profile: "tiny", Assemblers: []string{"ray"}})
	if next.ID != "run-00010" {
		t.Errorf("next id %s, want run-00010", next.ID)
	}
	s2.Wait()

	// Restart compacted the inherited history into a fresh snapshot
	// segment: the segment the dead gateway wrote is gone, and the
	// live one chain-verifies clean.
	if _, err := os.Stat(preCompact); !os.IsNotExist(err) {
		t.Errorf("pre-restart segment %s survived compaction (err=%v)", filepath.Base(preCompact), err)
	}
	if vr, err := journal.Verify(lastSegmentPath(t, dir)); err != nil || !vr.Clean() {
		t.Errorf("compacted event log does not verify: %v %s", err, vr)
	}
}

// TestProofEndpoint: a finished run's proof endpoint serves a clean
// chain-verification report plus a Merkle inclusion proof that checks
// out against the reported root — and rejects out-of-range seqs.
func TestProofEndpoint(t *testing.T) {
	dir := t.TempDir()
	s, ts := newJournaledServer(t, dir)
	view := submitRun(t, ts, RunRequest{Profile: "tiny", Assemblers: []string{"ray"}})
	s.Wait()

	var body struct {
		Verify journal.VerifyResult `json:"verify"`
		Proof  journal.Proof        `json:"proof"`
	}
	if code := getJSON(t, ts.URL+"/api/runs/"+view.ID+"/proof", &body); code != 200 {
		t.Fatalf("proof status %d", code)
	}
	if !body.Verify.Clean() {
		t.Fatalf("finished run's journal not clean: %s", body.Verify)
	}
	if body.Verify.Root != body.Proof.Root {
		t.Fatalf("proof root %s != verify root %s", body.Proof.Root, body.Verify.Root)
	}
	if err := journal.VerifyInclusion(body.Proof); err != nil {
		t.Errorf("served proof does not verify: %v", err)
	}
	lg, err := journal.Open(filepath.Join(dir, view.ID+".journal"))
	if err != nil {
		t.Fatal(err)
	}
	leaf, err := journal.RecordLeaf(lg.Records[body.Proof.Seq])
	if err != nil {
		t.Fatal(err)
	}
	if leaf != body.Proof.Leaf {
		t.Errorf("proof leaf %.12s… does not match the journal record's leaf %.12s…", body.Proof.Leaf, leaf)
	}

	// A specific record by seq.
	if code := getJSON(t, ts.URL+"/api/runs/"+view.ID+"/proof?seq=0", &body); code != 200 {
		t.Fatalf("proof?seq=0 status %d", code)
	}
	if body.Proof.Seq != 0 {
		t.Errorf("proof seq %d, want 0", body.Proof.Seq)
	}
	var errBody map[string]any
	if code := getJSON(t, ts.URL+"/api/runs/"+view.ID+"/proof?seq=9999", &errBody); code != http.StatusBadRequest {
		t.Errorf("out-of-range seq status %d, want 400", code)
	}
	if code := getJSON(t, ts.URL+"/api/runs/run-99999/proof", &errBody); code != http.StatusNotFound {
		t.Errorf("unknown run proof status %d, want 404", code)
	}
}

// TestProofConsistentWhileAppending: the proof endpoint answers from
// one read of the journal. It used to verify the file and then read
// it again for the proof, so a record appended between the two reads
// made verify.records/verify.root disagree with proof.records/
// proof.root inside one response. Here a writer appends to the run's
// journal while each request is in flight; every response must
// describe a single state of the file.
func TestProofConsistentWhileAppending(t *testing.T) {
	dir := t.TempDir()
	s, ts := newJournaledServer(t, dir)
	view := submitRun(t, ts, RunRequest{Profile: "tiny", Assemblers: []string{"ray"}})
	s.Wait()

	_, w, err := journal.Continue(filepath.Join(dir, view.ID+".journal"))
	if err != nil {
		t.Fatal(err)
	}
	// The writer may append this many records per request, topped up
	// just before each one is sent: appends land while the handler runs,
	// and the file stays small however slow the reads are (the race
	// detector slows them far more than the appends).
	budget, appended := make(chan struct{}, 16), make(chan error, 1)
	go func() {
		for range budget {
			if _, err := w.Append(journal.Record{Kind: journal.KindEvent, Note: "appended after the run"}); err != nil {
				appended <- err
				return
			}
		}
		appended <- w.Close()
	}()
	var first, last int
	for i := 0; i < 40; i++ {
		for len(budget) < cap(budget) {
			budget <- struct{}{}
		}
		var body struct {
			Verify journal.VerifyResult `json:"verify"`
			Proof  journal.Proof        `json:"proof"`
		}
		if code := getJSON(t, ts.URL+"/api/runs/"+view.ID+"/proof", &body); code != 200 {
			t.Errorf("request %d: proof status %d", i, code)
			break
		}
		if body.Verify.Records != body.Proof.Records || body.Verify.Root != body.Proof.Root ||
			body.Verify.ChainHead != body.Proof.ChainHead {
			t.Errorf("request %d answered from two states of the journal:\n verify %d records, root %s\n proof  %d records, root %s",
				i, body.Verify.Records, body.Verify.Root, body.Proof.Records, body.Proof.Root)
			break
		}
		if err := journal.VerifyInclusion(body.Proof); err != nil {
			t.Errorf("request %d: %v", i, err)
			break
		}
		if i == 0 {
			first = body.Proof.Records
		}
		last = body.Proof.Records
	}
	close(budget)
	if err := <-appended; err != nil {
		t.Fatal(err)
	}
	if !t.Failed() && last <= first {
		t.Errorf("journal held %d records at the first request and %d at the last: no append raced a read", first, last)
	}
}

// TestResumeEndpoint pins the resume endpoint's contract: one resume
// of a failed run with a surviving journal is accepted; everything
// else — a double resume, a finished run, a run without a journal —
// conflicts with 409.
func TestResumeEndpoint(t *testing.T) {
	dir := t.TempDir()
	s, ts := newJournaledServer(t, dir)
	view := submitRun(t, ts, crashingRun())
	s.Wait()

	var failed RunView
	getJSON(t, ts.URL+"/api/runs/"+view.ID, &failed)
	if failed.Status != StatusFailed {
		t.Fatalf("crashing run ended %s, want failed", failed.Status)
	}

	code, body := postResume(t, ts, view.ID)
	if code != http.StatusAccepted {
		t.Fatalf("resume status %d (%v), want 202", code, body)
	}
	// Double resume: the run is already queued, running or done again.
	code, body = postResume(t, ts, view.ID)
	if code != http.StatusConflict {
		t.Fatalf("double resume status %d (%v), want 409", code, body)
	}
	if _, ok := body["error"]; !ok {
		t.Error("409 body lacks error field")
	}
	s.Wait()

	var resumed RunView
	getJSON(t, ts.URL+"/api/runs/"+view.ID, &resumed)
	if resumed.Status != StatusDone || resumed.Transcripts == 0 {
		t.Fatalf("resumed run ended %+v, want done with transcripts", resumed)
	}
	// Resuming a finished run conflicts too.
	if code, _ := postResume(t, ts, view.ID); code != http.StatusConflict {
		t.Fatalf("resume of done run status %d, want 409", code)
	}
	if v := metricValue(t, s, obs.MetricRunsResumed); v != 1 {
		t.Errorf("%s = %v, want 1", obs.MetricRunsResumed, v)
	}
	if code, _ := postResume(t, ts, "run-99999"); code != http.StatusNotFound {
		t.Errorf("resume of unknown run: want 404")
	}
}

// TestResumeWithoutJournal: when the gateway does not journal, a
// failed run has nothing to resume from and the endpoint conflicts.
func TestResumeWithoutJournal(t *testing.T) {
	s, ts := newTestServer(t)
	view := submitRun(t, ts, crashingRun())
	s.Wait()
	code, body := postResume(t, ts, view.ID)
	if code != http.StatusConflict {
		t.Fatalf("resume status %d (%v), want 409", code, body)
	}
	if !strings.Contains(fmt.Sprint(body["error"]), "journal") {
		t.Errorf("409 body should mention the missing journal: %v", body)
	}
}

// metricValue reads one unlabeled sample from the server registry.
func metricValue(t *testing.T, s *Server, name string) float64 {
	t.Helper()
	for _, p := range s.Metrics().Points() {
		if p.Name == name && len(p.Labels) == 0 {
			return p.Value
		}
	}
	return 0
}
