package gateway

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"slices"
	"strings"
	"testing"
	"time"

	"rnascale/internal/assembler"
	"rnascale/internal/core"
)

func newTestServer(t *testing.T) (*Server, *httptest.Server) {
	t.Helper()
	s := NewServer(2)
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	t.Cleanup(func() { _ = s.Close() })
	return s, ts
}

func getJSON(t *testing.T, url string, out any) int {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
		t.Fatalf("decode %s: %v", url, err)
	}
	return resp.StatusCode
}

func TestProfilesAndAssemblers(t *testing.T) {
	_, ts := newTestServer(t)
	var profiles []map[string]any
	if code := getJSON(t, ts.URL+"/api/profiles", &profiles); code != 200 {
		t.Fatalf("profiles status %d", code)
	}
	names := map[string]bool{}
	for _, p := range profiles {
		names[p["name"].(string)] = true
	}
	for _, want := range []string{"tiny", "bglumae", "pcrispa", "bglumae-paired"} {
		if !names[want] {
			t.Errorf("profile %q missing", want)
		}
	}
	var tools []map[string]any
	getJSON(t, ts.URL+"/api/assemblers", &tools)
	registered := assembler.List()
	if len(tools) != len(registered) {
		t.Fatalf("%d assemblers, registry has %d", len(tools), len(registered))
	}
	for i, a := range registered {
		if tools[i]["name"] != a.Info().Name {
			t.Errorf("assembler %d: %v, want %s", i, tools[i]["name"], a.Info().Name)
		}
	}
}

func submitRun(t *testing.T, ts *httptest.Server, req RunRequest) RunView {
	t.Helper()
	body, _ := json.Marshal(req)
	resp, err := http.Post(ts.URL+"/api/runs", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		var e map[string]string
		json.NewDecoder(resp.Body).Decode(&e)
		t.Fatalf("submit status %d: %v", resp.StatusCode, e)
	}
	var view RunView
	if err := json.NewDecoder(resp.Body).Decode(&view); err != nil {
		t.Fatal(err)
	}
	return view
}

func TestSubmitAndComplete(t *testing.T) {
	s, ts := newTestServer(t)
	view := submitRun(t, ts, RunRequest{
		Profile:       "tiny",
		Assemblers:    []string{"velvet"},
		Scheme:        "S2",
		Pattern:       "dynamic",
		ContrailNodes: 2,
		Evaluate:      true,
	})
	if view.ID == "" || view.Status != StatusQueued {
		t.Fatalf("submission view %+v", view)
	}
	s.Wait()
	var done RunView
	if code := getJSON(t, ts.URL+"/api/runs/"+view.ID, &done); code != 200 {
		t.Fatalf("status %d", code)
	}
	if done.Status != StatusDone {
		t.Fatalf("run %s: %s (%s)", done.ID, done.Status, done.Error)
	}
	if done.TTCSeconds <= 0 || done.CostUSD <= 0 || done.Transcripts == 0 {
		t.Errorf("summary %+v", done)
	}
	if done.Metrics["f1"] <= 0 {
		t.Errorf("metrics %+v", done.Metrics)
	}
	if done.Stages["PB"] == "" {
		t.Errorf("stages %+v", done.Stages)
	}
	// Transcript download.
	resp, err := http.Get(ts.URL + "/api/runs/" + view.ID + "/transcripts")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	buf.ReadFrom(resp.Body)
	if resp.StatusCode != 200 || !strings.HasPrefix(buf.String(), ">") {
		t.Errorf("transcripts: %d %q...", resp.StatusCode, buf.String()[:min(40, buf.Len())])
	}
	// Run list includes it.
	var all []RunView
	getJSON(t, ts.URL+"/api/runs", &all)
	if len(all) != 1 || all[0].ID != view.ID {
		t.Errorf("list %+v", all)
	}
}

func TestSubmitWithFaultPlan(t *testing.T) {
	s, ts := newTestServer(t)
	view := submitRun(t, ts, RunRequest{
		Profile:    "tiny",
		Assemblers: []string{"velvet"},
		Scheme:     "S1",
		Pattern:    "static",
		Faults:     "unitflake:p=0.9,n=1",
		FaultSeed:  3,
	})
	s.Wait()
	var done RunView
	if code := getJSON(t, ts.URL+"/api/runs/"+view.ID, &done); code != 200 {
		t.Fatalf("status %d", code)
	}
	if done.Status != StatusDone {
		t.Fatalf("run %s: %s (%s)", done.ID, done.Status, done.Error)
	}
	if done.Recovery == "" || !strings.Contains(done.Recovery, "faults injected") {
		t.Errorf("recovery summary missing: %+v", done)
	}
	// A run without a plan reports no recovery field.
	plain := submitRun(t, ts, RunRequest{Profile: "tiny", Assemblers: []string{"velvet"}})
	s.Wait()
	var plainDone RunView
	getJSON(t, ts.URL+"/api/runs/"+plain.ID, &plainDone)
	if plainDone.Recovery != "" {
		t.Errorf("plain run has recovery %q", plainDone.Recovery)
	}
}

func TestSubmitValidation(t *testing.T) {
	_, ts := newTestServer(t)
	for name, req := range map[string]RunRequest{
		"bad-profile":   {Profile: "nope"},
		"bad-assembler": {Profile: "tiny", Assemblers: []string{"nope"}},
		"bad-scheme":    {Profile: "tiny", Scheme: "S9"},
		"bad-pattern":   {Profile: "tiny", Pattern: "quantum"},
		"bad-faults":    {Profile: "tiny", Faults: "meteor:p=1"},
	} {
		body, _ := json.Marshal(req)
		resp, err := http.Post(ts.URL+"/api/runs", "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: status %d", name, resp.StatusCode)
		}
	}
	// Malformed JSON.
	resp, _ := http.Post(ts.URL+"/api/runs", "application/json", strings.NewReader("{"))
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("malformed JSON: %d", resp.StatusCode)
	}
}

// A fault spec whose value would poison the virtual clock is refused
// at submission, naming the parameter, rather than admitted to fail in
// PB with an unrelated error.
// TestEmptyRequestRunsDefaultAssemblers pins what a request naming no
// assemblers runs: core.DefaultConfig's set, not ray alone.
func TestEmptyRequestRunsDefaultAssemblers(t *testing.T) {
	cfg, _, err := buildConfig(RunRequest{})
	if err != nil {
		t.Fatal(err)
	}
	if want := core.DefaultConfig().Assemblers; !slices.Equal(cfg.Assemblers, want) {
		t.Errorf("assemblers %v, want %v", cfg.Assemblers, want)
	}
}

func TestSubmitRefusesNaNFaultSpec(t *testing.T) {
	_, ts := newTestServer(t)
	body, _ := json.Marshal(RunRequest{Profile: "tiny", Assemblers: []string{"velvet"}, Faults: "slowxfer:x=NaN"})
	resp, err := http.Post(ts.URL+"/api/runs", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var got struct{ Error string }
	if err := json.NewDecoder(resp.Body).Decode(&got); err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusBadRequest || !strings.Contains(got.Error, "x=NaN") {
		t.Fatalf("status %d, error %q; want 400 naming x=NaN", resp.StatusCode, got.Error)
	}
}

func TestFailedRunSurfacesError(t *testing.T) {
	s, ts := newTestServer(t)
	// A tiny dataset with P. Crispa's memory demands on a static
	// c3.2xlarge fails in PA; the gateway must report it.
	view := submitRun(t, ts, RunRequest{
		Profile:      "pcrispa",
		Assemblers:   []string{"velvet"},
		Pattern:      "static",
		InstanceType: "c3.2xlarge",
	})
	s.Wait()
	var done RunView
	getJSON(t, ts.URL+"/api/runs/"+view.ID, &done)
	if done.Status != StatusFailed {
		t.Fatalf("status %s", done.Status)
	}
	if !strings.Contains(done.Error, "out of memory") {
		t.Errorf("error %q", done.Error)
	}
	// Transcripts unavailable for failed runs.
	resp, _ := http.Get(ts.URL + "/api/runs/" + view.ID + "/transcripts")
	resp.Body.Close()
	if resp.StatusCode != http.StatusConflict {
		t.Errorf("transcripts of failed run: %d", resp.StatusCode)
	}
}

func TestPlanEndpoint(t *testing.T) {
	_, ts := newTestServer(t)
	body, _ := json.Marshal(RunRequest{
		Profile: "tiny", Assemblers: []string{"ray", "contrail"}, ContrailNodes: 2,
	})
	resp, err := http.Post(ts.URL+"/api/plans", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Fatalf("status %d", resp.StatusCode)
	}
	var plan map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&plan); err != nil {
		t.Fatal(err)
	}
	if plan["ttcSeconds"].(float64) <= 0 || plan["costUSD"].(float64) <= 0 ||
		plan["assemblyNodes"].(float64) <= 0 || plan["instanceType"].(string) == "" {
		t.Errorf("plan %+v", plan)
	}
	// Infeasible plans are rejected with 422, not executed.
	body, _ = json.Marshal(RunRequest{Profile: "pcrispa", Pattern: "static", InstanceType: "c3.2xlarge"})
	resp2, err := http.Post(ts.URL+"/api/plans", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp2.Body.Close()
	if resp2.StatusCode != http.StatusUnprocessableEntity {
		t.Errorf("infeasible plan status %d", resp2.StatusCode)
	}
}

func TestUnknownRun(t *testing.T) {
	_, ts := newTestServer(t)
	var e map[string]string
	if code := getJSON(t, ts.URL+"/api/runs/run-99999", &e); code != http.StatusNotFound {
		t.Errorf("status %d", code)
	}
}

func TestConcurrentRuns(t *testing.T) {
	s, ts := newTestServer(t)
	ids := make([]string, 3)
	for i := range ids {
		ids[i] = submitRun(t, ts, RunRequest{
			Profile: "tiny", Assemblers: []string{"velvet"},
		}).ID
	}
	// All complete despite the 2-worker limit.
	deadline := time.After(2 * time.Minute)
	donech := make(chan struct{})
	go func() { s.Wait(); close(donech) }()
	select {
	case <-donech:
	case <-deadline:
		t.Fatal("runs did not finish")
	}
	for _, id := range ids {
		var v RunView
		getJSON(t, ts.URL+"/api/runs/"+id, &v)
		if v.Status != StatusDone {
			t.Errorf("%s: %s (%s)", id, v.Status, v.Error)
		}
	}
}
