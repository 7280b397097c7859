// Package gateway implements the web service front-end the paper
// plans for the pipeline: "the pipeline will be soon available to the
// research community via the science gateway project". It exposes a
// small JSON HTTP API in the style of the DARE science-gateway
// middleware the authors cite:
//
//	GET  /api/profiles          list dataset profiles
//	GET  /api/assemblers        list integrated assemblers
//	POST /api/plans             predict a run's TTC and cost without running it
//	POST /api/runs              submit a pipeline run
//	POST /api/batch             submit a batch, wait for ordered results
//	GET  /api/runs              list runs and statuses
//	GET  /api/runs/{id}         one run's report
//	POST /api/runs/{id}/resume  resume a failed run from its journal
//	GET  /api/runs/{id}/transcripts   assembled transcripts (FASTA)
//	GET  /api/runs/{id}/trace   Chrome trace_event JSON for the run
//	GET  /api/runs/{id}/proof   journal chain verification + Merkle proof
//	GET  /api/metrics           Prometheus text exposition
//
// Submitted runs, single or batched, execute asynchronously on a
// fixed pool of worker goroutines fed by a bounded queue: when the
// queue is full, POST /api/runs and /api/batch answer 429 Too Many
// Requests instead of accepting unbounded backlog. Every change to a
// run's state goes through one transition function, applyLocked. Each
// run gets its own simulated cloud (and its own span tree and metric
// registry), so concurrent users cannot interfere. The /api/metrics
// endpoint serves the server-level registry: gateway counters plus
// aggregate TTC/cost histograms over finished runs (per-run values
// stay in the run views, keeping metric cardinality constant under
// sustained load).
//
// With EnableJournal the gateway itself survives loss: the run table
// and bounded queue persist through an event log, every run executes
// under a per-run pipeline journal, and a restarted gateway re-adopts
// in-flight runs — resuming interrupted ones from their journals
// instead of re-executing completed work (see journal.go).
package gateway

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"net/http"
	"path/filepath"
	"slices"
	"sort"
	"strings"
	"sync"
	"time"

	"rnascale/internal/assembler"
	_ "rnascale/internal/assembler/all" // make every assembler submittable
	"rnascale/internal/core"
	"rnascale/internal/journal"
	"rnascale/internal/obs"
	"rnascale/internal/seq"
	"rnascale/internal/simdata"
)

// Gateway-level metric names (the per-run rnascale_* metrics live in
// each run's own registry, reachable via its trace/snapshot).
const (
	// MetricRuns counts submitted runs by terminal status.
	MetricRuns = "rnascale_gateway_runs_total"
	// MetricRunsInflight gauges queued-or-running runs.
	MetricRunsInflight = "rnascale_gateway_runs_inflight"
	// MetricRunTTC is a histogram of finished-run TTCs. Earlier
	// versions kept one gauge per run id, which grew the exposition
	// without bound; the histogram's _sum/_count keep the aggregate
	// while per-run values remain in each RunView.
	MetricRunTTC = "rnascale_gateway_run_ttc_seconds"
	// MetricRunCost is a histogram of finished-run cloud bills.
	MetricRunCost = "rnascale_gateway_run_cost_usd"
	// MetricRunsQueueWait is a histogram of real seconds a run spent
	// between enqueue and a worker picking it up. Unlike TTC and cost
	// (virtual quantities of the simulated run), queue wait is wall
	// time the submitting user actually experiences, and is the signal
	// that says "add workers" when the bounded queue backs up.
	MetricRunsQueueWait = "rnascale_gateway_runs_queue_wait_seconds"
	// MetricRunsRejected counts admission rejections by reason. The
	// label is bounded by rejectReasons — all series are registered at
	// startup so the exposition's cardinality is constant.
	MetricRunsRejected = "rnascale_gateway_runs_rejected_total"
	// MetricRunsShed counts work dropped by brownout shedding: queued
	// runs evicted for higher-priority arrivals, and low-priority
	// arrivals turned away while the queue is over its wait watermark.
	MetricRunsShed = "rnascale_gateway_runs_shed_total"
)

// Admission rejection reasons (the only values MetricRunsRejected's
// reason label ever takes).
const (
	// RejectDeadline: the planner prices the run's TTC past its
	// deadline; admitting it would burn budget on a doomed run.
	RejectDeadline = "deadline"
	// RejectCost: predicted cost exceeds the request's budget.
	RejectCost = "cost"
	// RejectQueue: the bounded queue is full.
	RejectQueue = "queue"
)

// rejectReasons pins the reason label's cardinality.
func rejectReasons() []string { return []string{RejectDeadline, RejectCost, RejectQueue} }

// costBuckets spans the USD range of the paper's experiments, from
// sub-dollar tiny runs to full-scale multi-hundred-dollar bills.
func costBuckets() []float64 {
	return []float64{0.1, 0.5, 1, 5, 20, 100, 500}
}

// queueWaitBuckets spans instant pickup (idle worker) through a queue
// backed up behind minutes of simulated pipelines.
func queueWaitBuckets() []float64 {
	return []float64{0.001, 0.005, 0.025, 0.1, 0.5, 2, 10, 60}
}

// DefaultMaxQueued is the submission queue bound when the operator
// does not choose one.
const DefaultMaxQueued = 64

// errClosed rejects submissions after Close.
var errClosed = errors.New("gateway: server closed")

// QueueFullError rejects a submission that found the bounded queue at
// capacity, carrying the honest backoff hint the 429 advertises.
type QueueFullError struct {
	RetryAfterSecs int
}

func (e *QueueFullError) Error() string {
	return fmt.Sprintf("gateway: run queue full; retry in %ds", e.RetryAfterSecs)
}

// ShedError rejects a submission turned away by brownout shedding:
// the queue is past its wait watermark and nothing queued ranks below
// the arrival. Maps to 503 with a Retry-After hint.
type ShedError struct {
	RetryAfterSecs int
}

func (e *ShedError) Error() string {
	return fmt.Sprintf("gateway: shed under brownout (queue wait over watermark); retry in %ds", e.RetryAfterSecs)
}

// AdmissionError rejects a submission the planner priced as
// infeasible: predicted TTC past the deadline, or predicted cost over
// budget. Retrying the same request cannot help, so the HTTP layer
// maps it to 422 Unprocessable Entity with no Retry-After.
type AdmissionError struct {
	Reason    string // RejectDeadline or RejectCost
	Predicted float64
	Limit     float64
}

func (e *AdmissionError) Error() string {
	switch e.Reason {
	case RejectDeadline:
		return fmt.Sprintf("gateway: predicted TTC %.0fs cannot meet deadline %.0fs", e.Predicted, e.Limit)
	case RejectCost:
		return fmt.Sprintf("gateway: predicted cost $%.2f exceeds budget $%.2f", e.Predicted, e.Limit)
	}
	return fmt.Sprintf("gateway: admission rejected (%s)", e.Reason)
}

// RunRequest is the submission payload: the one run request, decoded
// by core.Request.Config.
type RunRequest = core.Request

// RunStatus is the externally visible run state.
type RunStatus string

// Run states.
const (
	StatusQueued  RunStatus = "queued"
	StatusRunning RunStatus = "running"
	StatusDone    RunStatus = "done"
	StatusFailed  RunStatus = "failed"
	// StatusShed marks a queued run evicted by brownout shedding
	// before any worker picked it up. Terminal; the event-log replay
	// treats it as history, like done and failed.
	StatusShed RunStatus = "shed"
)

// RunView is the JSON representation of a run.
type RunView struct {
	ID      string     `json:"id"`
	Status  RunStatus  `json:"status"`
	Request RunRequest `json:"request"`
	Error   string     `json:"error,omitempty"`
	// Outcome is the pipeline's outcome class (complete,
	// deadline_exceeded, cancelled) once the run is terminal; shed runs
	// carry "shed". Empty for plain failures and non-terminal runs.
	Outcome string `json:"outcome,omitempty"`
	// Summary fields, present once done.
	TTCSeconds  float64            `json:"ttcSeconds,omitempty"`
	CostUSD     float64            `json:"costUSD,omitempty"`
	Stages      map[string]string  `json:"stages,omitempty"`
	Transcripts int                `json:"transcripts,omitempty"`
	Metrics     map[string]float64 `json:"metrics,omitempty"`
	// Recovery summarizes fault injection and recovery ("N faults
	// injected, ..."), present when the run had a fault plan.
	Recovery string `json:"recovery,omitempty"`
}

// run is the internal record. cfg and ds hold the prepared work for a
// queued run (cfg.Obs is the run's own span tree and registry); the
// run leaving the queue clears ds so the dataset is not pinned past
// the run (profiles are memoized in simdata anyway), and a terminal
// transition clears cfg, so a finished run holds its view and the
// bytes its endpoints serve — fasta, its transcripts in FASTA when it
// is done, and trace, its Chrome trace — and not its report, tracer
// or journal writer. Under EnableJournal, journalPath is the run's
// pipeline journal and resumeFrom (when set) tells the worker to
// continue that journal instead of starting over.
type run struct {
	view        RunView
	cfg         core.Config
	ds          *simdata.Dataset
	fasta       []byte
	trace       []byte
	journalPath string
	resumeFrom  string
	// done is non-nil exactly while the run is live in this process
	// (queued or running, counted by Wait and the inflight gauge); the
	// terminal transition closes it, waking anyone waiting on the run.
	done chan struct{}
	// enqueuedAt is the wall-clock instant the run (re-)entered the
	// queue; the queue-wait histogram observes the gap to worker
	// pickup. Wall clock, not vclock: queue wait happens outside any
	// simulated run and is real time the submitter experiences.
	enqueuedAt time.Time
	// startedAt is the wall-clock instant a worker picked the run up;
	// terminal transitions feed startedAt→now into the service-time
	// ring that prices Retry-After hints.
	startedAt time.Time
}

// Server is the gateway. Create with NewServer and mount via Handler.
type Server struct {
	mu            sync.Mutex
	cond          *sync.Cond // signalled when queue grows or server closes
	runs          map[string]*run
	order         []string
	queue         []string // run ids waiting for a worker, FIFO
	nextID        int
	maxQueued     int
	maxConcurrent int
	closed        bool
	workerWG      sync.WaitGroup // the fixed worker pool
	runsWG        sync.WaitGroup // submitted-but-not-terminal runs
	metrics       *obs.Registry
	journalDir    string             // set by EnableJournal
	events        *journal.Segmented // segmented event log, nil when not journaling
	rotateEvery   int                // event-log segment size, 0 = journal default
	brownout      time.Duration      // queue-wait shed watermark, 0 = no shedding
	// serviceSecs is a fixed ring of recent run wall durations (pickup
	// to terminal); its mean prices the Retry-After hint on 429s.
	serviceSecs [serviceRing]float64
	serviceN    int // samples written, caps at serviceRing
	serviceIdx  int // next ring slot
}

// NewServer returns a gateway executing at most maxConcurrent runs at
// once (minimum 1) on a fixed pool of worker goroutines, holding at
// most DefaultMaxQueued submissions waiting for a worker (tune with
// SetMaxQueued). Call Close to drain the queue and stop the workers.
func NewServer(maxConcurrent int) *Server {
	maxConcurrent = max(maxConcurrent, 1)
	s := &Server{
		runs:          map[string]*run{},
		maxQueued:     DefaultMaxQueued,
		maxConcurrent: maxConcurrent,
		metrics:       obs.NewRegistry(),
	}
	s.cond = sync.NewCond(&s.mu)
	// Register every rejection series (and the shed counter) up front:
	// the exposition shows zeroes from the first scrape and its
	// cardinality never moves, no matter which rejections occur.
	for _, reason := range rejectReasons() {
		s.metrics.Counter(MetricRunsRejected, "Gateway submissions rejected at admission, by reason.",
			obs.Labels{"reason": reason}) //rnavet:allow metriccard — reason ranges over rejectReasons(), the fixed list this loop eagerly registers for constant cardinality
	}
	s.metrics.Counter(MetricRunsShed, "Gateway runs dropped by brownout shedding.", nil)
	s.workerWG.Add(maxConcurrent)
	for i := 0; i < maxConcurrent; i++ {
		go s.worker()
	}
	return s
}

// SetBrownout arms brownout shedding: when a submission arrives while
// the oldest queued run has already waited longer than watermark, the
// gateway sheds the lowest-priority queued run to keep the queue's
// wait bounded — or turns the arrival itself away when nothing queued
// ranks below it. Zero (the default) disables shedding.
func (s *Server) SetBrownout(watermark time.Duration) { //rnavet:allow vtimeleak — the watermark bounds real queue wait (wall time the submitter experiences, outside any simulated run), like queueClock
	s.mu.Lock()
	s.brownout = watermark
	s.mu.Unlock()
}

// SetMaxQueued bounds the submission queue: POSTs arriving while
// maxQueued runs already wait for a worker are rejected with a
// *QueueFullError (HTTP 429). Zero rejects every submission outright;
// there is no unbounded setting.
func (s *Server) SetMaxQueued(n int) {
	s.mu.Lock()
	s.maxQueued = max(n, 0)
	s.mu.Unlock()
}

// SetJournalRotate sets how many records each event-log segment holds
// before rotation (0 keeps the journal package default). Call before
// EnableJournal; it has no effect on an already-open event log.
func (s *Server) SetJournalRotate(n int) {
	s.mu.Lock()
	s.rotateEvery = n
	s.mu.Unlock()
}

// worker executes queued runs until Close. Each iteration pops the
// oldest queued run; the queue is drained before the worker exits, so
// Close never abandons an accepted submission.
func (s *Server) worker() {
	defer s.workerWG.Done()
	for {
		s.mu.Lock()
		for len(s.queue) == 0 && !s.closed {
			s.cond.Wait()
		}
		if len(s.queue) == 0 {
			s.mu.Unlock()
			return
		}
		rn := s.runs[s.queue[0]]
		cfg, ds, journalPath, resumeFrom := rn.cfg, rn.ds, rn.journalPath, rn.resumeFrom
		_ = s.applyLocked(rn, event{kind: evStarted}) // the queue holds only live queued runs
		s.mu.Unlock()

		rep, err := executeRun(cfg, ds, journalPath, resumeFrom)
		fasta, trace := render(rep, err, cfg.Obs)
		s.mu.Lock()
		_ = s.applyLocked(rn, event{kind: evFinished, rep: rep, err: err, fasta: fasta, trace: trace}) // only this worker finishes rn
		s.mu.Unlock()
	}
}

// render turns a finished run into the bytes its endpoints serve: the
// transcripts in FASTA (nil unless the run is done) and the Chrome
// trace. Each buffer is sized once, so the run keeps no slack.
func render(rep *core.Report, err error, o *obs.Obs) (fasta, trace []byte) {
	if err == nil && rep != nil {
		b := bytes.NewBuffer(make([]byte, 0, seq.FastaSize(rep.Transcripts, 80)))
		_ = seq.WriteFasta(b, rep.Transcripts, 80) // a bytes.Buffer write cannot fail
		fasta = b.Bytes()
	}
	var b bytes.Buffer
	_ = o.Tracer.WriteChromeTrace(&b) // a bytes.Buffer write cannot fail
	return fasta, b.Bytes()
}

// queueClock reads the wall clock for queue-wait accounting. This is
// the only wall-clock read in the package: everything inside a run is
// virtual time, but time spent waiting for a worker is real time.
func queueClock() time.Time {
	return time.Now() //rnavet:allow wallclock — queue wait is real time the submitter experiences, outside any simulated run
}

// Handler returns the HTTP handler for the API.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/api/profiles", only(http.MethodGet, s.handleProfiles))
	mux.HandleFunc("/api/assemblers", only(http.MethodGet, s.handleAssemblers))
	mux.HandleFunc("/api/plans", only(http.MethodPost, s.handlePlan))
	mux.HandleFunc("/api/runs", s.handleRuns)
	mux.HandleFunc("/api/runs/", s.handleRun)
	mux.HandleFunc("/api/batch", only(http.MethodPost, s.handleBatch))
	mux.HandleFunc("/api/metrics", only(http.MethodGet, s.handleMetrics))
	return mux
}

// Close stops accepting submissions, drains the queue, waits for the
// worker pool to exit, and closes the event log, returning its close
// error (the final group commit's durability outcome). Safe to call
// more than once. The event log is detached under the lock but closed
// outside it: Close flushes and fsyncs, and no blocking work happens
// while s.mu is held.
func (s *Server) Close() error {
	s.mu.Lock()
	s.closed = true
	s.mu.Unlock()
	s.cond.Broadcast()
	s.workerWG.Wait()
	s.mu.Lock()
	events := s.events
	s.events = nil
	s.mu.Unlock()
	if events != nil {
		return events.Close()
	}
	return nil
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(v)
}

func writeErr(w http.ResponseWriter, status int, format string, args ...any) {
	writeJSON(w, status, map[string]string{"error": fmt.Sprintf(format, args...)})
}

// Retry-After bounds. The hint is priced from live queue state (depth
// × mean recent service time ÷ workers), then clamped: at least 1s so
// clients always back off a little, at most 300s so a transient spike
// never tells a client to go away for an hour.
const (
	serviceRing    = 16 // service-time samples kept for the mean
	minRetryAfter  = 1
	maxRetryAfter  = 300
	defaultService = 1.0 // seconds assumed per run before any sample exists
)

// retryAfterLocked prices the honest Retry-After hint: the arriving
// client is behind len(queue) runs draining across maxConcurrent
// workers at the mean recent service time. Caller holds s.mu.
func (s *Server) retryAfterLocked() int {
	mean := defaultService
	if s.serviceN > 0 {
		var sum float64
		for _, v := range s.serviceSecs[:s.serviceN] {
			sum += v
		}
		mean = sum / float64(s.serviceN)
	}
	secs := int(math.Ceil(float64(len(s.queue)+1) / float64(s.maxConcurrent) * mean))
	return min(max(secs, minRetryAfter), maxRetryAfter)
}

// recordServiceLocked feeds one finished run's wall duration into the
// service-time ring. Caller holds s.mu.
func (s *Server) recordServiceLocked(secs float64) {
	s.serviceSecs[s.serviceIdx] = secs
	s.serviceIdx = (s.serviceIdx + 1) % serviceRing
	s.serviceN = min(s.serviceN+1, serviceRing)
}

// writeRetryAfter answers a load rejection (429 or 503) with a live
// Retry-After header and the usual JSON error body, so both
// header-driven and body-driven clients can back off.
func writeRetryAfter(w http.ResponseWriter, status, retryAfterSecs int, format string, args ...any) {
	w.Header().Set("Retry-After", fmt.Sprintf("%d", retryAfterSecs))
	writeErr(w, status, format, args...)
}

// only answers 405 to every method but m.
func only(m string, h http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		if r.Method != m {
			writeErr(w, http.StatusMethodNotAllowed, "%s only", m)
			return
		}
		h(w, r)
	}
}

func (s *Server) handleProfiles(w http.ResponseWriter, r *http.Request) {
	type profileView struct {
		Name     string `json:"name"`
		Organism string `json:"organism"`
		Reads    int64  `json:"fullScaleReads"`
		Paired   bool   `json:"paired"`
	}
	var out []profileView
	for _, p := range simdata.Profiles() {
		out = append(out, profileView{Name: p.Name, Organism: p.Organism,
			Reads: p.FullScale.Reads, Paired: p.FullScale.Paired})
	}
	sort.Slice(out, func(a, b int) bool { return out[a].Name < out[b].Name })
	writeJSON(w, http.StatusOK, out)
}

func (s *Server) handleAssemblers(w http.ResponseWriter, r *http.Request) {
	type toolView struct {
		Name        string `json:"name"`
		GraphType   string `json:"graphType"`
		Distributed string `json:"distributed,omitempty"`
		Version     string `json:"version"`
	}
	var out []toolView
	for _, a := range assembler.List() {
		info := a.Info()
		out = append(out, toolView{Name: info.Name, GraphType: info.GraphType,
			Distributed: info.Distributed, Version: info.Version})
	}
	writeJSON(w, http.StatusOK, out)
}

func (s *Server) handleRuns(w http.ResponseWriter, r *http.Request) {
	switch r.Method {
	case http.MethodGet:
		s.mu.Lock()
		out := make([]RunView, 0, len(s.order))
		for _, id := range s.order {
			out = append(out, s.runs[id].view)
		}
		s.mu.Unlock()
		writeJSON(w, http.StatusOK, out)
	case http.MethodPost:
		var req RunRequest
		if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
			writeErr(w, http.StatusBadRequest, "bad JSON: %v", err)
			return
		}
		view, err := s.submit(req)
		var qf *QueueFullError
		var sh *ShedError
		var ae *AdmissionError
		switch {
		case err == nil:
			writeJSON(w, http.StatusAccepted, view)
		case errors.As(err, &qf):
			writeRetryAfter(w, http.StatusTooManyRequests, qf.RetryAfterSecs, "%v", err)
		case errors.As(err, &sh):
			// Brownout is load, not a malformed request: 503 with the
			// same honest backoff hint a 429 carries.
			writeRetryAfter(w, http.StatusServiceUnavailable, sh.RetryAfterSecs, "%v", err)
		case errors.As(err, &ae):
			// Infeasible by prediction: retrying cannot help, so no
			// Retry-After — the client must change the request.
			writeErr(w, http.StatusUnprocessableEntity, "%v", err)
		case errors.Is(err, errClosed):
			writeErr(w, http.StatusServiceUnavailable, "%v", err)
		default:
			writeErr(w, http.StatusBadRequest, "%v", err)
		}
	default:
		writeErr(w, http.StatusMethodNotAllowed, "GET or POST")
	}
}

func (s *Server) handleRun(w http.ResponseWriter, r *http.Request) {
	id, sub, nested := strings.Cut(strings.TrimPrefix(r.URL.Path, "/api/runs/"), "/")
	if sub == "resume" {
		if r.Method != http.MethodPost {
			writeErr(w, http.StatusMethodNotAllowed, "POST only")
			return
		}
		s.handleResume(w, id)
		return
	}
	if r.Method != http.MethodGet {
		writeErr(w, http.StatusMethodNotAllowed, "GET only")
		return
	}
	s.mu.Lock()
	rn, ok := s.runs[id]
	var view RunView
	var fasta, trace []byte
	var o *obs.Obs
	if ok {
		view, fasta, trace, o = rn.view, rn.fasta, rn.trace, rn.cfg.Obs
	}
	s.mu.Unlock()
	switch {
	case !ok:
		writeErr(w, http.StatusNotFound, "no run %q", id)
	case !nested:
		writeJSON(w, http.StatusOK, view)
	case sub == "transcripts" && (view.Status != StatusDone || fasta == nil):
		writeErr(w, http.StatusConflict, "run %s is %s", id, view.Status)
	case sub == "transcripts":
		w.Header().Set("Content-Type", "text/x-fasta")
		_, _ = w.Write(fasta)
	case sub == "trace" && trace != nil:
		w.Header().Set("Content-Type", "application/json")
		_, _ = w.Write(trace)
	case sub == "trace" && o != nil:
		// A live run's tracer is safe to export mid-run: unfinished
		// spans are marked open, so a user can watch a run take shape.
		w.Header().Set("Content-Type", "application/json")
		_ = o.Tracer.WriteChromeTrace(w)
	case sub == "trace" && view.Status == StatusShed:
		writeErr(w, http.StatusConflict, "run %s has no trace: it was shed before it ran", id)
	case sub == "trace":
		// A run replayed from the event log kept its view, not its
		// trace.
		writeErr(w, http.StatusConflict, "run %s has no trace: it was replayed from the event log", id)
	case sub == "proof":
		s.handleProof(w, r, id)
	default:
		writeErr(w, http.StatusNotFound, "unknown resource")
	}
}

// handleMetrics serves the server-level registry in the Prometheus
// text exposition format.
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	_ = s.metrics.WritePrometheus(w)
}

// handlePlan predicts a run's stage TTCs and cost without executing
// it — what a gateway UI shows the user before they commit budget.
func (s *Server) handlePlan(w http.ResponseWriter, r *http.Request) {
	var req RunRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		writeErr(w, http.StatusBadRequest, "bad JSON: %v", err)
		return
	}
	cfg, ds, err := buildConfig(req)
	if err != nil {
		writeErr(w, http.StatusBadRequest, "%v", err)
		return
	}
	plan, err := core.Predict(ds, cfg)
	if err != nil {
		writeErr(w, http.StatusUnprocessableEntity, "%v", err)
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{
		"ttcSeconds":      plan.TTC.Seconds(),
		"costUSD":         plan.CostUSD,
		"assemblyNodes":   plan.AssemblyNodes,
		"instanceType":    plan.InstanceType,
		"transferSeconds": plan.Transfer.Seconds(),
		"paSeconds":       plan.PA.Seconds(),
		"pbSeconds":       plan.PB.Seconds(),
		"pcSeconds":       plan.PC.Seconds(),
	})
}

// rejected counts one admission rejection on a pre-registered series.
func (s *Server) rejected(reason string) {
	s.metrics.Counter(MetricRunsRejected, "Gateway submissions rejected at admission, by reason.",
		obs.Labels{"reason": reason}).Inc() //rnavet:allow metriccard — every caller passes a rejectReasons() constant; the series set is pre-registered in NewServer
}

// shedCount counts one brownout shed.
func (s *Server) shedCount() {
	s.metrics.Counter(MetricRunsShed, "Gateway runs dropped by brownout shedding.", nil).Inc()
}

// admit prices the request with the planner when it carries a
// deadline or cost budget, rejecting infeasible work before it takes
// a queue slot. The same comparison the pipeline would lose against
// at its cutoff happens here against the prediction: a run the
// planner says cannot meet its deadline is never admitted, and a run
// it says can is never rejected for it.
func admit(req RunRequest, cfg core.Config, ds *simdata.Dataset) error {
	if req.DeadlineSeconds <= 0 && req.MaxCostUSD <= 0 {
		return nil
	}
	plan, err := core.Predict(ds, cfg)
	if err != nil {
		return fmt.Errorf("gateway: cannot price submission for admission: %w", err)
	}
	if req.DeadlineSeconds > 0 && plan.TTC.Seconds() > req.DeadlineSeconds {
		return &AdmissionError{Reason: RejectDeadline, Predicted: plan.TTC.Seconds(), Limit: req.DeadlineSeconds}
	}
	if req.MaxCostUSD > 0 && plan.CostUSD > req.MaxCostUSD {
		return &AdmissionError{Reason: RejectCost, Predicted: plan.CostUSD, Limit: req.MaxCostUSD}
	}
	return nil
}

// submit validates and enqueues a run. A full queue rejects the
// submission with ErrQueueFull rather than accepting unbounded
// backlog (the old per-run-goroutine design held every submission
// alive, so a flood of POSTs grew memory without limit). Requests
// carrying a deadline or budget are priced by the planner first and
// rejected when infeasible; with a brownout watermark armed, an
// over-aged queue sheds its lowest-priority run to admit
// higher-priority work.
func (s *Server) submit(req RunRequest) (RunView, error) {
	cfg, ds, err := buildConfig(req)
	if err != nil {
		return RunView{}, err
	}
	if err := admit(req, cfg, ds); err != nil {
		var ae *AdmissionError
		if errors.As(err, &ae) {
			s.rejected(ae.Reason)
		}
		return RunView{}, err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return RunView{}, errClosed
	}
	if s.brownout > 0 && len(s.queue) > 0 &&
		queueClock().Sub(s.runs[s.queue[0]].enqueuedAt) > s.brownout {
		// The victim is the lowest-priority queued run, ties broken toward
		// the most recent arrival (it has sunk the least waiting).
		var victim *run
		for _, id := range s.queue {
			if rn := s.runs[id]; victim == nil || rn.view.Request.Priority <= victim.view.Request.Priority {
				victim = rn
			}
		}
		if victim.view.Request.Priority >= req.Priority {
			// Nothing queued ranks below the arrival: it is itself the
			// lowest-priority work, so brownout turns it away.
			s.shedCount()
			return RunView{}, &ShedError{RetryAfterSecs: s.retryAfterLocked()}
		}
		_ = s.applyLocked(victim, event{kind: evShed}) // a queued run
	}
	if len(s.queue) >= s.maxQueued {
		s.rejected(RejectQueue)
		return RunView{}, &QueueFullError{RetryAfterSecs: s.retryAfterLocked()}
	}
	rn := s.newRunLocked(req, cfg, ds)
	_ = s.applyLocked(rn, event{kind: evSubmitted}) // a new run
	return rn.view, nil
}

// handleBatch accepts {"runs": [...]} and answers, once every run is
// terminal, with their views in submission order. A batch shares the
// bounded queue and the worker pool with POST /api/runs: every request
// is validated before any is enqueued (one bad entry rejects the batch
// with 400), and a batch larger than the queue's free room is refused
// whole with 429.
func (s *Server) handleBatch(w http.ResponseWriter, r *http.Request) {
	var req struct {
		Runs []RunRequest `json:"runs"`
	}
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		writeErr(w, http.StatusBadRequest, "bad JSON: %v", err)
		return
	}
	if len(req.Runs) == 0 {
		writeErr(w, http.StatusBadRequest, "empty batch")
		return
	}
	cfgs := make([]core.Config, len(req.Runs))
	dss := make([]*simdata.Dataset, len(req.Runs))
	for i, rr := range req.Runs {
		var err error
		if cfgs[i], dss[i], err = buildConfig(rr); err != nil {
			writeErr(w, http.StatusBadRequest, "run %d: %v", i, err)
			return
		}
	}
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		writeErr(w, http.StatusServiceUnavailable, "%v", errClosed)
		return
	}
	if room := s.maxQueued - len(s.queue); len(req.Runs) > room {
		retry := s.retryAfterLocked()
		s.mu.Unlock()
		s.rejected(RejectQueue)
		writeRetryAfter(w, http.StatusTooManyRequests, retry, "batch of %d exceeds the queue's free room %d", len(req.Runs), room)
		return
	}
	runs := make([]*run, len(req.Runs))
	done := make([]chan struct{}, len(req.Runs))
	for i := range runs {
		runs[i] = s.newRunLocked(req.Runs[i], cfgs[i], dss[i])
		_ = s.applyLocked(runs[i], event{kind: evSubmitted}) // a new run
		done[i] = runs[i].done
	}
	s.mu.Unlock()
	for _, d := range done {
		<-d
	}
	views := make([]RunView, len(runs))
	s.mu.Lock()
	for i, rn := range runs {
		views[i] = rn.view
	}
	s.mu.Unlock()
	writeJSON(w, http.StatusOK, views)
}

// newRunLocked allocates the next run id and records a new run, not
// yet queued, holding req's prepared work. Caller holds s.mu.
func (s *Server) newRunLocked(req RunRequest, cfg core.Config, ds *simdata.Dataset) *run {
	s.nextID++
	id := fmt.Sprintf("run-%05d", s.nextID)
	rn := &run{view: RunView{ID: id, Request: req}, cfg: cfg, ds: ds}
	if s.journalDir != "" {
		rn.journalPath = filepath.Join(s.journalDir, id+".journal")
	}
	s.runs[id] = rn
	s.order = append(s.order, id)
	return rn
}

// eventKind names a run-table transition; applyLocked accepts this
// closed set and nothing else.
type eventKind string

const (
	evSubmitted eventKind = "submitted" // new → queued
	evStarted   eventKind = "started"   // queued → running
	evFinished  eventKind = "finished"  // running → done, or failed with an error
	evShed      eventKind = "shed"      // queued → shed, evicted by brownout
	evRequeued  eventKind = "requeued"  // failed → queued (resume); replayed queued/running → queued (re-adoption)
	evAbandoned eventKind = "abandoned" // replayed queued/running → failed: re-adoption cannot rebuild the request
)

// event is one transition: its kind plus, for evFinished, the
// pipeline's report and error and the rendered transcripts and trace,
// and for evAbandoned, the cause.
type event struct {
	kind         eventKind
	rep          *core.Report
	err          error
	fasta, trace []byte
}

// applyLocked is the run table's one transition function. It checks
// the event against the run's state and refuses an illegal one with an
// error and no change. Otherwise it is the only code that sets a run's
// status, moves it into or out of the queue, counts it in Wait and the
// inflight gauge, feeds the terminal counters, histograms and the
// service-time ring, appends its event-log record and wakes a worker.
// A queued or running record that is not live was replayed from the
// event log and awaits re-adoption. Caller holds s.mu.
func (s *Server) applyLocked(rn *run, ev event) error {
	id := rn.view.ID
	from, live := rn.view.Status, rn.done != nil
	replayed := !live && (from == StatusQueued || from == StatusRunning)
	var to RunStatus
	switch {
	case ev.kind == evSubmitted && from == "":
		to = StatusQueued
	case ev.kind == evStarted && live && from == StatusQueued:
		to = StatusRunning
	case ev.kind == evFinished && live && from == StatusRunning && ev.err == nil:
		to = StatusDone
	case ev.kind == evFinished && live && from == StatusRunning:
		to = StatusFailed
	case ev.kind == evShed && live && from == StatusQueued:
		to = StatusShed
	case ev.kind == evRequeued && (from == StatusFailed || replayed):
		to = StatusQueued
	case ev.kind == evAbandoned && replayed:
		to = StatusFailed
	default:
		return fmt.Errorf("gateway: run %s is %s; cannot apply %s", id, from, ev.kind)
	}
	now := queueClock()
	rn.view.Status = to
	switch ev.kind {
	case evSubmitted, evRequeued:
		rn.view.Error = ""
		rn.fasta, rn.trace = nil, nil
		rn.enqueuedAt = now
		s.queue = append(s.queue, id)
	case evStarted, evShed:
		i := slices.Index(s.queue, id)
		s.queue = slices.Delete(s.queue, i, i+1)
		rn.ds, rn.resumeFrom = nil, ""
		if ev.kind == evStarted {
			rn.startedAt = now
			s.metrics.Histogram(MetricRunsQueueWait,
				"Real seconds from enqueue to worker pickup.", queueWaitBuckets(), nil).
				Observe(now.Sub(rn.enqueuedAt).Seconds())
		} else {
			rn.view.Outcome = string(StatusShed)
			rn.view.Error = "shed under brownout: queue wait exceeded watermark"
			s.shedCount()
		}
	case evFinished:
		s.recordServiceLocked(now.Sub(rn.startedAt).Seconds())
		rn.fasta, rn.trace = ev.fasta, ev.trace
		if ev.err != nil {
			rn.view.Error = ev.err.Error()
		}
		if rep := ev.rep; rep != nil {
			if rep.Outcome != "" {
				rn.view.Outcome = string(rep.Outcome)
			}
			rn.view.TTCSeconds = rep.TTC.Seconds()
			rn.view.CostUSD = rep.CostUSD
			rn.view.Transcripts = len(rep.Transcripts)
			rn.view.Stages = map[string]string{}
			for _, st := range rep.Stages {
				rn.view.Stages[st.Name] = st.Duration().String()
			}
			if rep.Config.FaultPlan != nil {
				rn.view.Recovery = rep.Recovery.String()
			}
			if rep.Metrics != nil {
				rn.view.Metrics = map[string]float64{
					"precision":          rep.Metrics.Precision,
					"recall":             rep.Metrics.Recall,
					"f1":                 rep.Metrics.F1,
					"weightedKmerRecall": rep.Metrics.WeightedKmerRecall,
					"kcScore":            rep.Metrics.KCScore,
				}
			}
			if to == StatusDone {
				s.metrics.Histogram(MetricRunTTC, "Finished run TTC, virtual seconds.", nil, nil).
					Observe(rep.TTC.Seconds())
				s.metrics.Histogram(MetricRunCost, "Finished run cloud bill, USD.", costBuckets(), nil).
					Observe(rep.CostUSD)
			}
		}
	case evAbandoned:
		rn.view.Error = fmt.Sprintf("re-adoption: %v", ev.err)
	}
	// Shed runs count on the shed counter alone, keeping this one's
	// label set fixed.
	if to == StatusDone || to == StatusFailed {
		s.metrics.Counter(MetricRuns, "Gateway runs by terminal status.",
			obs.Labels{"status": string(to)}).Inc()
	}
	// Entering the queue makes a run live and a terminal status ends
	// that; a replayed run abandoned at restart was never live here.
	inflight := s.metrics.Gauge(MetricRunsInflight, "Gateway runs queued or running.", nil)
	switch {
	case !live && to == StatusQueued:
		rn.done = make(chan struct{})
		s.runsWG.Add(1)
		inflight.Add(1)
		s.cond.Signal()
	case live && to != StatusQueued && to != StatusRunning:
		// A terminal run lets go of its prepared work: the report, span
		// tree, registry and closed journal writer all hang off cfg.
		rn.cfg = core.Config{}
		// The gauge settles before Wait or a batch waiting on the run
		// can return and scrape it.
		inflight.Add(-1)
		close(rn.done)
		rn.done = nil
		s.runsWG.Done()
	}
	// The event log holds the view after the transition; replay is
	// last-wins per id, and s.mu orders one run's records. The record
	// is durable (group-committed) when Append returns. The writer is
	// fail-stop: after an append error the log stops growing and
	// replay falls back to the last durable state, which re-adoption
	// re-executes, so the error is not fatal here.
	if s.events != nil {
		if b, err := json.Marshal(rn.view); err == nil {
			_, _ = s.events.Append(journal.Record{Kind: journal.KindEvent, Note: id, Payload: b}) //rnavet:allow errdrop — fail-stop by design: after an append error the log stops growing and replay falls back to the last durable state (see the comment above)
		}
	}
	return nil
}

// buildConfig decodes a request and prepares its dataset. The
// configuration carries a fresh span tree and metric registry
// (cfg.Obs), so every run it prepares observes only itself.
func buildConfig(req RunRequest) (core.Config, *simdata.Dataset, error) {
	cfg, prof, err := req.Config()
	if err != nil {
		return core.Config{}, nil, err
	}
	// Datasets are immutable through the pipeline, so every submission
	// of the same profile shares one memoized generation.
	ds, err := simdata.GenerateCached(prof)
	if err != nil {
		return core.Config{}, nil, err
	}
	cfg.Obs = obs.New()
	return cfg, ds, nil
}
