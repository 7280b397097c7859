package gateway

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
)

// TestQueueBoundRejects pins the backpressure contract: a queue bound
// of zero turns every submission away with 429 before any work or
// run record is created (the old design spawned one goroutine per
// POST and held every request in memory, unbounded).
func TestQueueBoundRejects(t *testing.T) {
	s, ts := newTestServer(t)
	s.SetMaxQueued(0)
	body, _ := json.Marshal(RunRequest{Profile: "tiny", Assemblers: []string{"velvet"}})
	resp, err := http.Post(ts.URL+"/api/runs", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("status %d, want 429", resp.StatusCode)
	}
	// The rejection tells clients when to come back (RFC 9110 §10.2.3)
	// and still carries the JSON error body.
	if got := resp.Header.Get("Retry-After"); got != "1" {
		t.Errorf("Retry-After = %q, want %q", got, "1")
	}
	var e map[string]string
	if err := json.NewDecoder(resp.Body).Decode(&e); err != nil || e["error"] == "" {
		t.Errorf("429 body: %v %v", e, err)
	}
	// Nothing was recorded.
	var all []RunView
	getJSON(t, ts.URL+"/api/runs", &all)
	if len(all) != 0 {
		t.Errorf("rejected submission left %d run records", len(all))
	}
}

// TestSubmitFloodBounded floods the gateway far faster than its one
// worker can drain a two-deep queue: the flood must split into
// accepted (202) and rejected (429) with no other outcome, at least
// the first three accepted, and backpressure visible.
func TestSubmitFloodBounded(t *testing.T) {
	s := NewServer(1)
	s.SetMaxQueued(2)
	t.Cleanup(func() { _ = s.Close() })
	mux := s.Handler()

	body, _ := json.Marshal(RunRequest{Profile: "tiny", Assemblers: []string{"velvet"}})
	var accepted, rejected int
	for i := 0; i < 64; i++ {
		req, _ := http.NewRequest(http.MethodPost, "/api/runs", bytes.NewReader(body))
		rec := httptest.NewRecorder()
		mux.ServeHTTP(rec, req)
		switch rec.Code {
		case http.StatusAccepted:
			accepted++
		case http.StatusTooManyRequests:
			rejected++
		default:
			t.Fatalf("submission %d: status %d", i, rec.Code)
		}
	}
	// A full queue's worth is always admitted (the worker may not
	// have dequeued anything yet); every accepted run finishes.
	if accepted < 2 {
		t.Errorf("accepted %d, want >= 2", accepted)
	}
	if rejected == 0 {
		t.Error("64 instant submissions against a 2-deep queue saw no 429")
	}
	s.runsWG.Wait()
	if got := int(s.metrics.Counter(MetricRuns, "", nil).Value()); got != 0 {
		// MetricRuns is labelled by status; the unlabelled series must
		// stay untouched.
		t.Errorf("unlabelled runs counter = %d", got)
	}
	done := int(s.metrics.Counter(MetricRuns, "", map[string]string{"status": "done"}).Value())
	if done != accepted {
		t.Errorf("%d runs done, %d accepted", done, accepted)
	}
}

// TestBatchEndpoint submits a mixed batch and expects ordered,
// finished views: the batch's runs go through the same queue and
// worker pool as single submissions, and one request replaces N polls.
func TestBatchEndpoint(t *testing.T) {
	_, ts := newTestServer(t)
	payload := map[string]any{"runs": []RunRequest{
		{Profile: "tiny", Assemblers: []string{"velvet"}, Scheme: "S2", Pattern: "dynamic"},
		{Profile: "tiny", Assemblers: []string{"velvet"}, Scheme: "S1", Pattern: "static"},
		{Profile: "tiny", Assemblers: []string{"velvet"}, Pattern: "conventional"},
	}}
	body, _ := json.Marshal(payload)
	resp, err := http.Post(ts.URL+"/api/batch", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	var views []RunView
	if err := json.NewDecoder(resp.Body).Decode(&views); err != nil {
		t.Fatal(err)
	}
	if len(views) != 3 {
		t.Fatalf("%d views", len(views))
	}
	for i, v := range views {
		if v.Status != StatusDone {
			t.Errorf("batch run %d: %s (%s)", i, v.Status, v.Error)
		}
		if v.TTCSeconds <= 0 || v.Transcripts == 0 {
			t.Errorf("batch run %d summary %+v", i, v)
		}
	}
	// Views come back in submission order (the handler collects them
	// by index), and the requests round-trip.
	if views[0].Request.Scheme != "S2" || views[1].Request.Scheme != "S1" {
		t.Errorf("batch order lost: %+v", views)
	}
	// The runs are queryable individually afterwards.
	var one RunView
	if code := getJSON(t, ts.URL+"/api/runs/"+views[1].ID, &one); code != 200 {
		t.Fatalf("run lookup %d", code)
	}
	if one.Status != StatusDone {
		t.Errorf("recorded batch run %s is %s", one.ID, one.Status)
	}
}

// TestBatchValidation: an invalid entry rejects the whole batch with
// 400 before any run starts; an oversized batch is 429; an empty or
// malformed payload is 400.
func TestBatchValidation(t *testing.T) {
	s, ts := newTestServer(t)
	post := func(body string) *http.Response {
		resp, err := http.Post(ts.URL+"/api/batch", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		return resp
	}
	cases := []struct {
		name, body string
		code       int
	}{
		{"malformed", `{"runs":`, http.StatusBadRequest},
		{"empty", `{"runs":[]}`, http.StatusBadRequest},
		{"bad entry", `{"runs":[{"profile":"tiny"},{"profile":"nope"}]}`, http.StatusBadRequest},
		{"empty body", ``, http.StatusBadRequest},
	}
	for _, tc := range cases {
		r := post(tc.body)
		r.Body.Close()
		if r.StatusCode != tc.code {
			t.Errorf("%s: status %d, want %d", tc.name, r.StatusCode, tc.code)
		}
	}
	// No run records were created by the rejected batches.
	var all []RunView
	getJSON(t, ts.URL+"/api/runs", &all)
	if len(all) != 0 {
		t.Errorf("rejected batches left %d run records", len(all))
	}
	// A batch beyond the queue bound is backpressure, not a bad
	// request.
	s.SetMaxQueued(1)
	r := post(`{"runs":[{"profile":"tiny"},{"profile":"tiny"}]}`)
	if r.StatusCode != http.StatusTooManyRequests {
		t.Errorf("oversized batch: status %d, want 429", r.StatusCode)
	}
	// The batch 429 carries the same backoff hint and JSON body as
	// single-run backpressure.
	if got := r.Header.Get("Retry-After"); got != "1" {
		t.Errorf("batch Retry-After = %q, want %q", got, "1")
	}
	var e map[string]string
	if err := json.NewDecoder(r.Body).Decode(&e); err != nil || e["error"] == "" {
		t.Errorf("batch 429 body: %v %v", e, err)
	}
	r.Body.Close()
}
