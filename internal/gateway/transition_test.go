package gateway

import (
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"os"
	"reflect"
	"slices"
	"strings"
	"testing"
	"time"

	"rnascale/internal/assembler"
	"rnascale/internal/journal"
	"rnascale/internal/obs"
)

// waitReturns reports whether every submitted run finishes within a
// generous bound.
func waitReturns(s *Server) bool {
	done := make(chan struct{})
	go func() { s.runsWG.Wait(); close(done) }()
	select {
	case <-done:
		return true
	case <-time.After(10 * time.Second):
		return false
	}
}

// newHTTPServer mounts s on a test listener; cleanup closes both.
func newHTTPServer(t *testing.T, s *Server) *httptest.Server {
	t.Helper()
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	t.Cleanup(func() { _ = s.Close() })
	return ts
}

// logBytes sums the sizes of the event log's segment files in dir.
func logBytes(t *testing.T, dir string) int64 {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var n int64
	for _, e := range entries {
		info, err := e.Info()
		if err != nil {
			t.Fatal(err)
		}
		n += info.Size()
	}
	return n
}

func inflightValue(s *Server) float64 {
	return s.metrics.Gauge(MetricRunsInflight, "", nil).Value()
}

// TestTransitionTable walks every (status × event) pair through
// applyLocked on a workerless gateway. A legal pair lands on the listed
// status and appends one event record; an illegal pair returns an error
// and leaves the view, the queue, the inflight gauge and the event log
// as they were. After every terminal transition the gauge is back to 0
// and Wait returns.
func TestTransitionTable(t *testing.T) {
	boom := errors.New("boom")
	events := []struct {
		name string
		ev   event
	}{
		{"submitted", event{kind: evSubmitted}},
		{"started", event{kind: evStarted}},
		{"finished", event{kind: evFinished}},
		{"finished(err)", event{kind: evFinished, err: boom}},
		{"shed", event{kind: evShed}},
		{"requeued", event{kind: evRequeued}},
		{"abandoned", event{kind: evAbandoned, err: boom}},
	}
	// Each starting state is reached through legal transitions from a
	// new run, except the replayed ones, which are records as restart's
	// replay leaves them: a status but not live.
	steps := map[string][]event{
		"new":     nil,
		"queued":  {{kind: evSubmitted}},
		"running": {{kind: evSubmitted}, {kind: evStarted}},
		"done":    {{kind: evSubmitted}, {kind: evStarted}, {kind: evFinished}},
		"failed":  {{kind: evSubmitted}, {kind: evStarted}, {kind: evFinished, err: boom}},
		"shed":    {{kind: evSubmitted}, {kind: evShed}},
	}
	replayed := map[string]RunStatus{"replayed queued": StatusQueued, "replayed running": StatusRunning}
	legal := map[[2]string]RunStatus{
		{"new", "submitted"}:              StatusQueued,
		{"queued", "started"}:             StatusRunning,
		{"queued", "shed"}:                StatusShed,
		{"running", "finished"}:           StatusDone,
		{"running", "finished(err)"}:      StatusFailed,
		{"failed", "requeued"}:            StatusQueued,
		{"replayed queued", "requeued"}:   StatusQueued,
		{"replayed running", "requeued"}:  StatusQueued,
		{"replayed queued", "abandoned"}:  StatusFailed,
		{"replayed running", "abandoned"}: StatusFailed,
	}
	cfg, ds, err := buildConfig(tinyReq())
	if err != nil {
		t.Fatal(err)
	}
	states := []string{"new", "queued", "running", "done", "failed", "shed", "replayed queued", "replayed running"}
	for _, state := range states {
		for _, e := range events {
			s, dir := newIdleServer(1), t.TempDir()
			if err := s.EnableJournal(dir); err != nil {
				t.Fatal(err)
			}
			s.mu.Lock()
			var rn *run
			if st, ok := replayed[state]; ok {
				rn = &run{view: RunView{ID: "run-00001", Status: st, Request: tinyReq()}}
				s.runs[rn.view.ID] = rn
				s.order = append(s.order, rn.view.ID)
			} else {
				rn = s.newRunLocked(tinyReq(), cfg, ds)
				for _, step := range steps[state] {
					if err := s.applyLocked(rn, step); err != nil {
						t.Fatalf("reaching %s: %v", state, err)
					}
				}
			}
			id, view, queue := rn.view.ID, rn.view, slices.Clone(s.queue)
			gauge, logged := inflightValue(s), logBytes(t, dir)
			err := s.applyLocked(rn, e.ev)
			got := rn.view
			changed := !reflect.DeepEqual(got, view) || !slices.Equal(s.queue, queue) ||
				inflightValue(s) != gauge || logBytes(t, dir) != logged
			afterLogged, afterQueue := logBytes(t, dir), slices.Clone(s.queue)
			s.mu.Unlock()

			pair := state + " × " + e.name
			want, ok := legal[[2]string{state, e.name}]
			switch {
			case !ok && err == nil:
				t.Errorf("%s: illegal event applied, run now %s", pair, got.Status)
			case !ok && changed:
				t.Errorf("%s: refused (%v) but changed the run table", pair, err)
			case ok && err != nil:
				t.Errorf("%s: legal event refused: %v", pair, err)
			case ok && got.Status != want:
				t.Errorf("%s: landed on %s, want %s", pair, got.Status, want)
			case ok && afterLogged == logged:
				t.Errorf("%s: appended no event record", pair)
			case ok && want == StatusQueued && !slices.Contains(afterQueue, id):
				t.Errorf("%s: run %s is queued but not in the queue %v", pair, id, afterQueue)
			}
			terminal := got.Status == StatusDone || got.Status == StatusFailed || got.Status == StatusShed
			if terminal {
				if v := inflightValue(s); v != 0 {
					t.Errorf("%s: inflight gauge %v after a terminal status, want 0", pair, v)
				}
				if !waitReturns(s) {
					t.Fatalf("%s: Wait blocks after a terminal status", pair)
				}
			}
			if err := s.Close(); err != nil {
				t.Fatal(err)
			}
		}
	}
}

// TestBatchRespectsWorkerBound: a batch runs on the gateway's worker
// pool, so a one-worker gateway never has two runs running at once,
// even with a slow async run in flight when the batch arrives. The
// event log records every transition under the table's lock, so
// folding it shows each moment's running set.
func TestBatchRespectsWorkerBound(t *testing.T) {
	dir := t.TempDir()
	s := NewServer(1)
	if err := s.EnableJournal(dir); err != nil {
		t.Fatal(err)
	}
	ts := newHTTPServer(t, s)
	slow := submitRun(t, ts, RunRequest{Profile: "bglumae", Assemblers: []string{"trinity"}})
	resp, err := http.Post(ts.URL+"/api/batch", "application/json",
		strings.NewReader(`{"runs":[{"profile":"tiny","assemblers":["velvet"]},{"profile":"tiny","assemblers":["velvet"]}]}`))
	if err != nil {
		t.Fatal(err)
	}
	var views []RunView
	if err := json.NewDecoder(resp.Body).Decode(&views); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || len(views) != 2 {
		t.Fatalf("batch status %d, %d views", resp.StatusCode, len(views))
	}
	s.runsWG.Wait()
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	seg, prior, err := journal.OpenSegmented(dir, eventsPrefix, journal.SegmentedOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if err := seg.Close(); err != nil {
		t.Fatal(err)
	}
	status := map[string]RunStatus{}
	maxRunning := 0
	for _, rec := range prior {
		if rec.Kind != journal.KindEvent || rec.Note == "" {
			continue
		}
		var v RunView
		if err := json.Unmarshal(rec.Payload, &v); err != nil {
			t.Fatal(err)
		}
		status[rec.Note] = v.Status
		running := 0
		for _, st := range status {
			if st == StatusRunning {
				running++
			}
		}
		maxRunning = max(maxRunning, running)
	}
	if maxRunning != 1 {
		t.Errorf("event log shows up to %d runs running at once on a one-worker gateway", maxRunning)
	}
	for _, id := range []string{slow.ID, views[0].ID, views[1].ID} {
		if status[id] != StatusDone {
			t.Errorf("run %s folded to %s, want done", id, status[id])
		}
	}
}

// TestReadoptionFailureCounted: a replayed in-flight run whose request
// can no longer be rebuilt is settled as failed at restart, and counts
// like any failed run: on runs_total{status="failed"}, with nothing
// left inflight.
func TestReadoptionFailureCounted(t *testing.T) {
	dir := t.TempDir()
	s1, ts1 := newJournaledServer(t, dir)
	submitRun(t, ts1, tinyReq())
	s1.runsWG.Wait()
	s1.Close()
	ts1.Close()

	// Forge a queued run the restarted gateway cannot rebuild.
	b, err := json.Marshal(RunView{ID: "run-00009", Status: StatusQueued, Request: RunRequest{Profile: "nope"}})
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

	s2, ts2 := newJournaledServer(t, dir)
	s2.runsWG.Wait()
	var v RunView
	if code := getJSON(t, ts2.URL+"/api/runs/run-00009", &v); code != http.StatusOK {
		t.Fatalf("lookup status %d", code)
	}
	if v.Status != StatusFailed || !strings.Contains(v.Error, "re-adoption") {
		t.Errorf("unrebuildable run is %s (%q), want failed with a re-adoption error", v.Status, v.Error)
	}
	if got := s2.metrics.Counter(MetricRuns, "", obs.Labels{"status": "failed"}).Value(); got != 1 {
		t.Errorf(`runs_total{status="failed"} = %v, want 1`, got)
	}
	if got := inflightValue(s2); got != 0 {
		t.Errorf("inflight = %v, want 0", got)
	}
}

// panicky is an assembler whose every assembly panics.
type panicky struct{}

func (panicky) Info() assembler.Info {
	return assembler.Info{Name: "panicky", GraphType: "DBG", Version: "test"}
}

func (panicky) Assemble(assembler.Request) (assembler.Result, error) {
	panic("assembler bug")
}

func (panicky) Estimate(assembler.Request) (assembler.Result, error) {
	panic("assembler bug")
}

func init() { assembler.Register(panicky{}) }

// TestBatchPanicFailsOneView: a pipeline panic fails its own run and
// nothing else. The batch still answers 200 with every view, and the
// worker that recovered the panic goes on to run later work.
func TestBatchPanicFailsOneView(t *testing.T) {
	s := NewServer(1)
	ts := newHTTPServer(t, s)
	resp, err := http.Post(ts.URL+"/api/batch", "application/json",
		strings.NewReader(`{"runs":[{"profile":"tiny","assemblers":["panicky"]},{"profile":"tiny","assemblers":["velvet"]}]}`))
	if err != nil {
		t.Fatal(err)
	}
	var views []RunView
	if err := json.NewDecoder(resp.Body).Decode(&views); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || len(views) != 2 {
		t.Fatalf("batch status %d, %d views", resp.StatusCode, len(views))
	}
	if views[0].Status != StatusFailed || !strings.Contains(views[0].Error, "panicked") {
		t.Errorf("panicking run: %s (%q), want failed with the panic", views[0].Status, views[0].Error)
	}
	if views[1].Status != StatusDone {
		t.Errorf("sibling run: %s (%s), want done", views[1].Status, views[1].Error)
	}
	s.runsWG.Wait()
	if got := inflightValue(s); got != 0 {
		t.Errorf("inflight = %v, want 0", got)
	}
}
