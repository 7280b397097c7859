package gateway

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strconv"
	"sync"
	"testing"
	"time"

	"rnascale/internal/core"
	"rnascale/internal/obs"
)

// newIdleServer builds a Server with no worker pool: submissions stay
// queued forever, so tests can inspect and manipulate queue state
// without racing a pickup.
func newIdleServer(maxConcurrent int) *Server {
	s := &Server{
		runs:          map[string]*run{},
		maxQueued:     DefaultMaxQueued,
		maxConcurrent: maxConcurrent,
		metrics:       obs.NewRegistry(),
	}
	s.cond = sync.NewCond(&s.mu)
	return s
}

func tinyReq() RunRequest {
	return RunRequest{Profile: "tiny", Assemblers: []string{"velvet"}}
}

// TestAdmissionFeasibilityProperty pins the admission contract against
// an independent prediction: the gateway never rejects a run the
// planner says can meet its deadline and budget, and never admits one
// it says cannot.
func TestAdmissionFeasibilityProperty(t *testing.T) {
	s := newIdleServer(1)
	for _, profile := range []string{"tiny", "bglumae"} {
		base := RunRequest{Profile: profile, Assemblers: []string{"velvet"}}
		cfg, ds, err := buildConfig(base)
		if err != nil {
			t.Fatal(err)
		}
		plan, err := core.Predict(ds, cfg)
		if err != nil {
			t.Fatal(err)
		}
		predTTC, predCost := plan.TTC.Seconds(), plan.CostUSD

		factors := []float64{0, 0.5, 0.999, 1.0, 2.0} // 0 = constraint unset
		for _, df := range factors {
			for _, cf := range factors {
				req := base
				req.DeadlineSeconds = predTTC * df
				req.MaxCostUSD = predCost * cf
				_, _, got := s.admit(req)

				deadlineInfeasible := req.DeadlineSeconds > 0 && predTTC > req.DeadlineSeconds
				costInfeasible := req.MaxCostUSD > 0 && predCost > req.MaxCostUSD
				switch {
				case deadlineInfeasible || costInfeasible:
					var ae *AdmissionError
					if !errors.As(got, &ae) {
						t.Fatalf("%s df=%v cf=%v: admitted an infeasible run (predTTC=%v predCost=%v): err=%v",
							profile, df, cf, predTTC, predCost, got)
					}
					// Deadline is checked first; cost only rejects when the
					// deadline was feasible (or unset).
					wantReason := RejectCost
					if deadlineInfeasible {
						wantReason = RejectDeadline
					}
					if ae.Reason != wantReason {
						t.Fatalf("%s df=%v cf=%v: reason %q, want %q", profile, df, cf, ae.Reason, wantReason)
					}
				case got != nil:
					t.Fatalf("%s df=%v cf=%v: rejected a feasible run: %v", profile, df, cf, got)
				}
			}
		}
	}
}

// TestRetryAfterPricing exercises the Retry-After arithmetic: queue
// depth × mean recent service time ÷ workers, clamped to [1, 300].
func TestRetryAfterPricing(t *testing.T) {
	s := newIdleServer(2)
	s.mu.Lock()
	defer s.mu.Unlock()

	// No samples, empty queue: the default 1s floor.
	if got := s.retryAfterLocked(); got != 1 {
		t.Fatalf("empty gateway: %d, want 1", got)
	}
	// Mean service 10s, 5 queued ahead across 2 workers: (5+1)/2×10 = 30.
	for i := 0; i < 4; i++ {
		s.recordServiceLocked(10)
	}
	s.queue = make([]string, 5)
	if got := s.retryAfterLocked(); got != 30 {
		t.Fatalf("5 queued at mean 10s over 2 workers: %d, want 30", got)
	}
	// A deep queue clamps at the 300s ceiling, not hours.
	s.queue = make([]string, 10000)
	if got := s.retryAfterLocked(); got != 300 {
		t.Fatalf("deep queue: %d, want clamp 300", got)
	}
	// Sub-second service times clamp up to the 1s floor.
	s.queue = nil
	for i := 0; i < serviceRing; i++ {
		s.recordServiceLocked(0.01)
	}
	if got := s.retryAfterLocked(); got != 1 {
		t.Fatalf("fast service: %d, want floor 1", got)
	}
}

// TestQueueFullRetryAfterHeader pins the satellite fix: a queue-full
// 429 carries a live Retry-After header instead of a bare rejection.
func TestQueueFullRetryAfterHeader(t *testing.T) {
	s, ts := newTestServer(t)
	s.SetMaxQueued(0)

	body, _ := json.Marshal(tinyReq())
	resp, err := http.Post(ts.URL+"/api/runs", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("status %d, want 429", resp.StatusCode)
	}
	ra := resp.Header.Get("Retry-After")
	secs, err := strconv.Atoi(ra)
	if err != nil {
		t.Fatalf("Retry-After %q is not an integer", ra)
	}
	if secs < minRetryAfter || secs > maxRetryAfter {
		t.Fatalf("Retry-After %d outside [%d, %d]", secs, minRetryAfter, maxRetryAfter)
	}
	if v := s.metrics.Counter(MetricRunsRejected, "", obs.Labels{"reason": RejectQueue}).Value(); v != 1 {
		t.Fatalf("queue rejection counter %v, want 1", v)
	}
}

// TestBrownoutSheds drives the brownout path on a workerless gateway:
// an over-aged queue sheds its lowest-priority run for a higher-
// priority arrival, and turns away an arrival nothing ranks below.
func TestBrownoutSheds(t *testing.T) {
	s := newIdleServer(1)
	s.SetBrownout(time.Nanosecond)

	low := tinyReq() // priority 0
	lowView, err := s.submit(low)
	if err != nil {
		t.Fatal(err)
	}
	time.Sleep(2 * time.Millisecond) // age the queue head past the watermark

	high := tinyReq()
	high.Priority = 1
	highView, err := s.submit(high)
	if err != nil {
		t.Fatalf("high-priority arrival not admitted over a sheddable run: %v", err)
	}

	s.mu.Lock()
	shedStatus := s.runs[lowView.ID].view.Status
	shedOutcome := s.runs[lowView.ID].view.Outcome
	queued := append([]string(nil), s.queue...)
	s.mu.Unlock()
	if shedStatus != StatusShed || shedOutcome != string(StatusShed) {
		t.Fatalf("victim status=%s outcome=%q, want shed/shed", shedStatus, shedOutcome)
	}
	if len(queued) != 1 || queued[0] != highView.ID {
		t.Fatalf("queue %v, want just %s", queued, highView.ID)
	}

	// The high-priority run now heads the over-aged queue; an arrival
	// that ranks no higher is itself the shed victim.
	time.Sleep(2 * time.Millisecond)
	_, err = s.submit(tinyReq())
	var sh *ShedError
	if !errors.As(err, &sh) {
		t.Fatalf("low-priority arrival under brownout: %v, want ShedError", err)
	}
	if sh.RetryAfterSecs < minRetryAfter || sh.RetryAfterSecs > maxRetryAfter {
		t.Fatalf("shed Retry-After %d outside clamps", sh.RetryAfterSecs)
	}
	if v := s.metrics.Counter(MetricRunsShed, "", nil).Value(); v != 2 {
		t.Fatalf("shed counter %v, want 2 (one eviction, one turn-away)", v)
	}
}

// TestShedRunOverHTTP drives brownout end-to-end through the handler:
// the turned-away arrival gets 503 + Retry-After, and the evicted
// run's view reports shed.
func TestShedRunOverHTTP(t *testing.T) {
	s := newIdleServer(1)
	s.SetBrownout(time.Nanosecond)
	mux := s.Handler()

	post := func(req RunRequest) (*http.Response, RunView) {
		body, _ := json.Marshal(req)
		r, _ := http.NewRequest(http.MethodPost, "/api/runs", bytes.NewReader(body))
		rec := httptest.NewRecorder()
		mux.ServeHTTP(rec, r)
		var view RunView
		_ = json.NewDecoder(rec.Result().Body).Decode(&view)
		return rec.Result(), view
	}

	_, lowView := post(tinyReq())
	time.Sleep(2 * time.Millisecond)
	resp, _ := post(tinyReq()) // same priority: the arrival is turned away
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("shed arrival status %d, want 503", resp.StatusCode)
	}
	if _, err := strconv.Atoi(resp.Header.Get("Retry-After")); err != nil {
		t.Fatalf("shed 503 Retry-After %q not an integer", resp.Header.Get("Retry-After"))
	}

	// The queued run survived (the arrival was the victim); a higher
	// priority arrival evicts it and its view then reports shed.
	time.Sleep(2 * time.Millisecond)
	high := tinyReq()
	high.Priority = 1
	if resp, _ := post(high); resp.StatusCode != http.StatusAccepted {
		t.Fatalf("high-priority arrival status %d, want 202", resp.StatusCode)
	}
	r, _ := http.NewRequest(http.MethodGet, "/api/runs/"+lowView.ID, nil)
	rec := httptest.NewRecorder()
	mux.ServeHTTP(rec, r)
	var got RunView
	_ = json.NewDecoder(rec.Result().Body).Decode(&got)
	if got.Status != StatusShed || got.Outcome != "shed" {
		t.Fatalf("evicted run view status=%s outcome=%q, want shed/shed", got.Status, got.Outcome)
	}
}

// TestInfeasibleSubmissionOverHTTP: admission rejections are 422
// without Retry-After (retrying cannot help) and count by reason.
func TestInfeasibleSubmissionOverHTTP(t *testing.T) {
	s, ts := newTestServer(t)
	for _, tc := range []struct {
		name   string
		mutate func(*RunRequest)
		reason string
	}{
		{"deadline", func(r *RunRequest) { r.DeadlineSeconds = 0.001 }, RejectDeadline},
		{"cost", func(r *RunRequest) { r.MaxCostUSD = 1e-9 }, RejectCost},
	} {
		t.Run(tc.name, func(t *testing.T) {
			req := tinyReq()
			tc.mutate(&req)
			body, _ := json.Marshal(req)
			resp, err := http.Post(ts.URL+"/api/runs", "application/json", bytes.NewReader(body))
			if err != nil {
				t.Fatal(err)
			}
			defer resp.Body.Close()
			if resp.StatusCode != http.StatusUnprocessableEntity {
				t.Fatalf("status %d, want 422", resp.StatusCode)
			}
			if ra := resp.Header.Get("Retry-After"); ra != "" {
				t.Fatalf("infeasible rejection carries Retry-After %q", ra)
			}
			if v := s.metrics.Counter(MetricRunsRejected, "", obs.Labels{"reason": tc.reason}).Value(); v != 1 {
				t.Fatalf("rejected{%s} = %v, want 1", tc.reason, v)
			}
		})
	}
}

// TestOverloadMetricCardinalityPinned: every rejection series is
// registered at construction and traffic never mints new ones.
func TestOverloadMetricCardinalityPinned(t *testing.T) {
	s, ts := newTestServer(t)
	count := func() (rejected, shed int) {
		for _, p := range s.metrics.Points() {
			switch p.Name {
			case MetricRunsRejected:
				rejected++
			case MetricRunsShed:
				shed++
			}
		}
		return
	}
	rej, shed := count()
	if rej != 3 || shed != 1 {
		t.Fatalf("pre-traffic series: rejected=%d shed=%d, want 3 and 1", rej, shed)
	}

	// Drive every rejection class through the API.
	post := func(req RunRequest) {
		body, _ := json.Marshal(req)
		resp, err := http.Post(ts.URL+"/api/runs", "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
	}
	infeasible := tinyReq()
	infeasible.DeadlineSeconds = 0.001
	post(infeasible)
	costly := tinyReq()
	costly.MaxCostUSD = 1e-9
	post(costly)
	s.SetMaxQueued(0)
	post(tinyReq())
	s.SetMaxQueued(DefaultMaxQueued)

	if rej, shed = count(); rej != 3 || shed != 1 {
		t.Fatalf("post-traffic series: rejected=%d shed=%d, want 3 and 1", rej, shed)
	}
}

// TestCloseSubmitResumeRace hammers Close, submissions and resume
// requests concurrently (run under -race): no panic, no deadlock, and
// submissions after Close are refused cleanly.
func TestCloseSubmitResumeRace(t *testing.T) {
	s, ts := newJournaledServer(t, t.TempDir())

	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 5; j++ {
				body, _ := json.Marshal(tinyReq())
				resp, err := http.Post(ts.URL+"/api/runs", "application/json", bytes.NewReader(body))
				if err == nil {
					resp.Body.Close()
				}
			}
		}()
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for j := 1; j <= 10; j++ {
			url := fmt.Sprintf("%s/api/runs/run-%05d/resume", ts.URL, j)
			resp, err := http.Post(url, "application/json", nil)
			if err == nil {
				resp.Body.Close()
			}
		}
	}()
	wg.Add(1)
	go func() {
		defer wg.Done()
		s.Close()
	}()
	wg.Wait()
	s.Close() // idempotent

	if _, err := s.submit(tinyReq()); !errors.Is(err, errClosed) {
		t.Fatalf("submit after Close: %v, want errClosed", err)
	}
}
