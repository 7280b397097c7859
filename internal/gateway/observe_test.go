package gateway

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"strings"
	"testing"
)

func TestMetricsEndpoint(t *testing.T) {
	s, ts := newTestServer(t)
	view := submitRun(t, ts, RunRequest{Profile: "tiny", Assemblers: []string{"velvet"}})
	s.runsWG.Wait()

	resp, err := http.Get(ts.URL + "/api/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Fatalf("status %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Errorf("content type %q", ct)
	}
	body, _ := io.ReadAll(resp.Body)
	text := string(body)
	for _, want := range []string{
		`rnascale_gateway_runs_total{status="done"} 1`,
		`rnascale_gateway_runs_inflight 0`,
		`rnascale_gateway_run_ttc_seconds_count 1`,
		`rnascale_gateway_run_ttc_seconds_sum `,
		`rnascale_gateway_run_cost_usd_count 1`,
		`rnascale_gateway_runs_queue_wait_seconds_count 1`,
		"# TYPE rnascale_gateway_runs_total counter",
		"# TYPE rnascale_gateway_run_ttc_seconds histogram",
		"# TYPE rnascale_gateway_run_cost_usd histogram",
		"# TYPE rnascale_gateway_runs_queue_wait_seconds histogram",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("exposition missing %q:\n%s", want, text)
		}
	}
	// The run id must not appear as a label: per-run series grew the
	// exposition without bound under sustained submission.
	if strings.Contains(text, `run="`) {
		t.Errorf("exposition still carries per-run labels:\n%s", text)
	}
	if view.ID == "" {
		t.Fatal("no run id")
	}
}

// TestMetricCardinalityConstant pins the fix for the unbounded metric
// growth: the exposition is the same size after 1 run and after many,
// because finished runs feed aggregate histograms instead of minting
// one labelled series each.
func TestMetricCardinalityConstant(t *testing.T) {
	s, ts := newTestServer(t)
	scrapeLines := func() int {
		resp, err := http.Get(ts.URL + "/api/metrics")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		body, _ := io.ReadAll(resp.Body)
		return len(strings.Split(strings.TrimSpace(string(body)), "\n"))
	}
	submitRun(t, ts, RunRequest{Profile: "tiny", Assemblers: []string{"velvet"}})
	s.runsWG.Wait()
	base := scrapeLines()
	for i := 0; i < 6; i++ {
		submitRun(t, ts, RunRequest{Profile: "tiny", Assemblers: []string{"velvet"}})
	}
	s.runsWG.Wait()
	if after := scrapeLines(); after != base {
		t.Errorf("exposition grew from %d to %d lines over repeated runs", base, after)
	}
}

// TestQueueWaitObservedPerRun: every run contributes exactly one
// queue-wait observation, whether it was submitted alone or in a
// batch (both pass through the one queue) — and the waits are
// non-negative real seconds, not virtual time.
func TestQueueWaitObservedPerRun(t *testing.T) {
	s, ts := newTestServer(t)
	submitRun(t, ts, RunRequest{Profile: "tiny", Assemblers: []string{"velvet"}})
	submitRun(t, ts, RunRequest{Profile: "tiny", Assemblers: []string{"velvet"}})
	resp, err := http.Post(ts.URL+"/api/batch", "application/json",
		strings.NewReader(`{"runs":[{"profile":"tiny","assemblers":["velvet"]},{"profile":"tiny","assemblers":["velvet"]}]}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Fatalf("batch status %d", resp.StatusCode)
	}
	s.runsWG.Wait()

	var count, sum float64
	var found bool
	for _, p := range s.metrics.Points() {
		switch p.Name {
		case MetricRunsQueueWait + "_count":
			count, found = p.Value, true
		case MetricRunsQueueWait + "_sum":
			sum = p.Value
		}
	}
	if !found {
		t.Fatal("no queue-wait histogram in the registry")
	}
	if count != 4 {
		t.Errorf("queue-wait count = %v, want 4", count)
	}
	if sum < 0 {
		t.Errorf("queue-wait sum = %v, want >= 0", sum)
	}
}

func TestTraceEndpoint(t *testing.T) {
	s, ts := newTestServer(t)
	view := submitRun(t, ts, RunRequest{Profile: "tiny", Assemblers: []string{"velvet"}})
	s.runsWG.Wait()

	resp, err := http.Get(ts.URL + "/api/runs/" + view.ID + "/trace")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Fatalf("status %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/json" {
		t.Errorf("content type %q", ct)
	}
	var doc struct {
		TraceEvents []struct {
			Phase string `json:"ph"`
			Name  string `json:"name"`
		} `json:"traceEvents"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&doc); err != nil {
		t.Fatalf("trace is not valid JSON: %v", err)
	}
	var sawRun bool
	for _, e := range doc.TraceEvents {
		if e.Phase == "X" && e.Name == "run" {
			sawRun = true
		}
	}
	if !sawRun {
		t.Errorf("trace has no run span among %d events", len(doc.TraceEvents))
	}

	// Trace of a nonexistent run is a 404 with a JSON error body.
	resp2, err := http.Get(ts.URL + "/api/runs/run-99999/trace")
	if err != nil {
		t.Fatal(err)
	}
	defer resp2.Body.Close()
	if resp2.StatusCode != http.StatusNotFound {
		t.Errorf("unknown run trace: %d", resp2.StatusCode)
	}
}

// TestErrorBodiesAreJSON pins the error contract: every 4xx carries a
// JSON object with a non-empty "error" field.
func TestErrorBodiesAreJSON(t *testing.T) {
	_, ts := newTestServer(t)

	post := func(body string) *http.Response {
		resp, err := http.Post(ts.URL+"/api/runs", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		return resp
	}
	cases := []struct {
		name string
		resp func() *http.Response
		code int
	}{
		{"unknown profile", func() *http.Response {
			return post(`{"profile":"nope"}`)
		}, http.StatusBadRequest},
		{"unknown assembler", func() *http.Response {
			return post(`{"profile":"tiny","assemblers":["nope"]}`)
		}, http.StatusBadRequest},
		{"unknown instance type", func() *http.Response {
			return post(`{"profile":"tiny","pattern":"static","instanceType":"bogus.huge"}`)
		}, http.StatusBadRequest},
		{"malformed JSON", func() *http.Response {
			return post(`{"profile":`)
		}, http.StatusBadRequest},
		{"nonexistent run", func() *http.Response {
			resp, err := http.Get(ts.URL + "/api/runs/run-99999")
			if err != nil {
				t.Fatal(err)
			}
			return resp
		}, http.StatusNotFound},
		{"unknown subresource", func() *http.Response {
			view := submitRun(t, ts, RunRequest{Profile: "tiny", Assemblers: []string{"velvet"}})
			resp, err := http.Get(ts.URL + "/api/runs/" + view.ID + "/nope")
			if err != nil {
				t.Fatal(err)
			}
			return resp
		}, http.StatusNotFound},
	}
	for _, tc := range cases {
		resp := tc.resp()
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != tc.code {
			t.Errorf("%s: status %d, want %d", tc.name, resp.StatusCode, tc.code)
		}
		if ct := resp.Header.Get("Content-Type"); ct != "application/json" {
			t.Errorf("%s: content type %q", tc.name, ct)
		}
		var e map[string]string
		if err := json.Unmarshal(bytes.TrimSpace(body), &e); err != nil {
			t.Errorf("%s: body is not JSON: %v (%q)", tc.name, err, body)
			continue
		}
		if e["error"] == "" {
			t.Errorf("%s: empty error field in %q", tc.name, body)
		}
	}
}
