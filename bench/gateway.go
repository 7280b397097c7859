package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"rnascale/internal/core"
	"rnascale/internal/gateway"
	"rnascale/internal/obs"
	"rnascale/internal/simdata"
	"rnascale/internal/vclock"
)

const (
	gatewayWorkers = 2
	// gatewayClients never exceeds the sandbox's two cores: the load
	// generator shares them with the server it drives.
	gatewayClients = 2
	pollEvery      = 2 * time.Millisecond
	// acceptDeadline is generous enough that admission always passes;
	// rejectDeadline (virtual seconds) is below any predicted TTC, so
	// admission pricing answers 422.
	acceptDeadline = 1e6
	rejectDeadline = 1
)

// gatewayRequest is the cheapest admissible run: the tiny profile
// through the single-node Trinity baseline.
func gatewayRequest(deadline float64) []byte {
	body, err := json.Marshal(gateway.RunRequest{Profile: "tiny", Assemblers: []string{"trinity"}, DeadlineSeconds: deadline})
	if err != nil {
		panic(err) // a struct of strings and numbers always marshals
	}
	return body
}

// rejected reports whether submission i of this seed's request order
// is one of the ~10% priced out at admission.
func rejected(seed int64, i int) bool {
	r := rng{s: uint64(seed)*0x9E3779B97F4A7C15 + uint64(i)}
	return r.intn(10) == 0
}

// gatewayServer is a durable in-process gateway behind a real HTTP
// listener on the loopback interface.
type gatewayServer struct {
	srv  *gateway.Server
	http *httptest.Server
	dir  string
}

func startGateway(dir string) (*gatewayServer, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	srv := gateway.NewServer(gatewayWorkers)
	if err := srv.EnableJournal(dir); err != nil {
		return nil, err
	}
	return &gatewayServer{srv: srv, http: httptest.NewServer(srv.Handler()), dir: dir}, nil
}

// stop shuts the listener and drains the server; the event log's
// close error is its final group commit's durability outcome.
func (g *gatewayServer) stop() error {
	g.http.Close()
	return g.srv.Close()
}

// submission is what a client saw of one POST /api/runs.
type submission struct {
	rejected bool
	submitMS float64 // POST sent → response read
	doneMS   float64 // POST sent → first poll seeing a terminal status
	pollMS   []float64
	view     gateway.RunView
}

// client is one closed-loop API user: submit, poll until terminal,
// then submit the next.
type client struct {
	base string
	http *http.Client
	tr   *tracer
}

func (c *client) do(method, url string, body []byte) (int, http.Header, []byte, error) {
	req, err := http.NewRequest(method, url, bytes.NewReader(body))
	if err != nil {
		return 0, nil, nil, err
	}
	resp, err := c.http.Do(req)
	if err != nil {
		return 0, nil, nil, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	return resp.StatusCode, resp.Header, data, err
}

// submit performs one submission and checks every response status
// against the one the request must get.
func (c *client) submit(parent int, reject bool) (submission, error) {
	s := submission{rejected: reject}
	deadline, name := float64(acceptDeadline), "submit"
	if reject {
		deadline, name = rejectDeadline, "reject"
	}
	start := now()
	sp := c.tr.begin(parent, "gateway", name)
	status, header, body, err := c.do(http.MethodPost, c.base+"/api/runs", gatewayRequest(deadline))
	c.tr.end(sp)
	s.submitMS = sinceMS(start)
	if err != nil {
		return s, err
	}
	if reject {
		if status != http.StatusUnprocessableEntity || header.Get("Retry-After") != "" {
			return s, fmt.Errorf("infeasible deadline: want 422 without Retry-After, got %d (Retry-After %q): %s", status, header.Get("Retry-After"), body)
		}
		return s, nil
	}
	if status != http.StatusAccepted {
		return s, fmt.Errorf("submit: want 202, got %d: %s", status, body)
	}
	if err := json.Unmarshal(body, &s.view); err != nil {
		return s, fmt.Errorf("submit: %w", err)
	}
	for {
		pause(pollEvery)
		pollStart := now()
		sp := c.tr.begin(parent, "gateway", "poll")
		status, _, body, err := c.do(http.MethodGet, c.base+"/api/runs/"+s.view.ID, nil)
		c.tr.end(sp)
		s.pollMS = append(s.pollMS, sinceMS(pollStart))
		if err != nil {
			return s, err
		}
		if status != http.StatusOK {
			return s, fmt.Errorf("poll %s: want 200, got %d: %s", s.view.ID, status, body)
		}
		s.view = gateway.RunView{}
		if err := json.Unmarshal(body, &s.view); err != nil {
			return s, fmt.Errorf("poll %s: %w", s.view.ID, err)
		}
		switch s.view.Status {
		case gateway.StatusDone:
			s.doneMS = sinceMS(start)
			return s, nil
		case gateway.StatusFailed, gateway.StatusShed:
			return s, fmt.Errorf("run %s ended %s: %s", s.view.ID, s.view.Status, s.view.Error)
		}
	}
}

// viewDigest is the part of a finished run's view that must repeat.
func viewDigest(v gateway.RunView) (string, error) {
	return canonicalJSON(struct {
		Status      gateway.RunStatus `json:"status"`
		Outcome     string            `json:"outcome"`
		TTCSeconds  float64           `json:"ttcSeconds"`
		CostUSD     float64           `json:"costUSD"`
		Stages      map[string]string `json:"stages"`
		Transcripts int               `json:"transcripts"`
	}{v.Status, v.Outcome, v.TTCSeconds, v.CostUSD, v.Stages, v.Transcripts})
}

// burst drives the closed loop: gatewayClients clients take the next
// position of the seed's request order until the budget is spent.
// Returns every submission in completion order and the burst's wall
// milliseconds.
func burst(e *env, tr *tracer, parent int, base string) ([]submission, float64) {
	var (
		next atomic.Int64
		mu   sync.Mutex
		subs []submission
		wg   sync.WaitGroup
	)
	httpClient := &http.Client{}
	defer httpClient.CloseIdleConnections()
	start := now()
	for c := 0; c < gatewayClients; c++ {
		wg.Add(1)
		go func(lane int) {
			defer wg.Done()
			cl := &client{base: base, http: httpClient, tr: tr}
			for {
				i := int(next.Add(1)) - 1
				if !e.more(i, sinceMS(start)) {
					return
				}
				sp := tr.beginLane(parent, lane, "bench", "submission")
				s, err := cl.submit(sp, rejected(e.seed, i))
				tr.end(sp)
				kind, digest := "rejected", `{"status":422}`
				if err == nil && !s.rejected {
					kind = "accepted"
					digest, err = viewDigest(s.view)
				}
				mu.Lock()
				e.check.op(kind, digest, err)
				if err == nil {
					subs = append(subs, s)
				}
				mu.Unlock()
			}
		}(c + 1)
	}
	wg.Wait()
	return subs, sinceMS(start)
}

// doneLatencies are the submit→done milliseconds of the accepted runs.
func doneLatencies(subs []submission) []float64 {
	var ms []float64
	for _, s := range subs {
		if !s.rejected {
			ms = append(ms, s.doneMS)
		}
	}
	return ms
}

func measureGateway(e *env) (measured, error) {
	var m measured
	var g *gatewayServer
	n := 0
	// Set-up is starting a journaled server and taking one run through
	// it; the first pass also generates the tiny dataset, which the
	// process then caches, so the median reports the warm cost.
	setupS, err := medianSetup(9, func() (err error) {
		if g != nil {
			if err := g.stop(); err != nil {
				return err
			}
		}
		n++
		if g, err = startGateway(e.path(fmt.Sprintf("gateway-%d", n))); err != nil {
			return err
		}
		cl := &client{base: g.http.URL, http: g.http.Client()}
		_, err = cl.submit(0, false)
		return err
	})
	if err != nil {
		return m, err
	}
	m.setupS = setupS

	u0 := readUsage()
	subs, wallMS := burst(e, nil, 0, g.http.URL)
	m.since(u0)
	if err := g.stop(); err != nil {
		return m, fmt.Errorf("closing gateway: %w", err)
	}
	m.opMS = doneLatencies(subs)
	if len(m.opMS) == 0 {
		return m, fmt.Errorf("gateway_burst: no run finished")
	}
	// Throughput counts finished runs; allocation and CPU are shared
	// by every submission, rejected ones included.
	m.wallMS, m.costOps = wallMS, len(subs)
	m.notes = map[string]string{
		"ops_per_s":       fmt.Sprintf(" done=%d rejected=%d clients=%d closed-loop", len(m.opMS), len(subs)-len(m.opMS), gatewayClients),
		"cpu_s_per_op":    " per submission",
		"alloc_mb_per_op": " per submission",
	}
	return m, nil
}

// traceGateway traces a shorter burst, scrapes the server's own
// metrics, measures what the journal left on disk, and runs the same
// configuration without the gateway to price its overhead.
func traceGateway(e *env, tr *tracer) (map[string]float64, error) {
	v := map[string]float64{}
	root := tr.begin(0, "bench", e.workload)
	defer tr.end(root)

	g, err := startGateway(e.path("gateway-traced"))
	if err != nil {
		return nil, err
	}
	te := *e
	if !te.smoke {
		te.seconds, te.maxOps = math.Inf(1), 300
	}
	sp := tr.begin(root, "bench", "burst")
	subs, _ := burst(&te, tr, sp, g.http.URL)
	tr.end(sp)

	var submit, reject, poll []float64
	polls := 0
	for _, s := range subs {
		if s.rejected {
			reject = append(reject, s.submitMS)
			continue
		}
		submit = append(submit, s.submitMS)
		poll = append(poll, s.pollMS...)
		polls += len(s.pollMS)
	}
	done := doneLatencies(subs)
	if len(done) == 0 {
		return nil, fmt.Errorf("gateway_burst: no run finished")
	}
	v["gateway.submit_p50_ms"] = median(submit)
	v["gateway.poll_p50_ms"] = median(poll)
	v["gateway.polls_per_run"] = float64(polls) / float64(len(done))
	v["gateway.submit_done_p99_ms"] = percentile(done, 99)
	v["bench.traced_op_ms"] = median(done)
	if len(reject) > 0 {
		v["gateway.reject_p50_ms"] = median(reject)
	}

	var scrape []byte
	cl := &client{base: g.http.URL, http: g.http.Client()}
	v["gateway.metrics_scrape_ms"] = tr.timed(root, "gateway", "metrics_scrape", func() {
		_, _, scrape, err = cl.do(http.MethodGet, g.http.URL+"/api/metrics", nil)
	})
	if err != nil {
		return nil, err
	}
	if count := promValue(scrape, gateway.MetricRunsQueueWait+"_count"); count > 0 {
		v["gateway.queue_wait_mean_ms"] = promValue(scrape, gateway.MetricRunsQueueWait+"_sum") / count * 1000
	}
	if err := g.stop(); err != nil {
		return nil, fmt.Errorf("closing gateway: %w", err)
	}
	if err := journalFootprint(v, g.dir, len(done)); err != nil {
		return nil, err
	}

	direct, err := traceDirect(v, tr, root, e)
	if err != nil {
		return nil, err
	}
	v["gateway.overhead_p50_ms"] = median(done) - direct
	return v, nil
}

// promValue reads one unlabelled sample from a Prometheus exposition.
func promValue(scrape []byte, name string) float64 {
	for _, line := range strings.Split(string(scrape), "\n") {
		if rest, ok := strings.CutPrefix(line, name+" "); ok {
			f, _ := strconv.ParseFloat(strings.TrimSpace(rest), 64)
			return f
		}
	}
	return 0
}

// journalFootprint sizes what the gateway's journaling wrote: per-run
// pipeline journals and the segmented event log.
func journalFootprint(v map[string]float64, dir string, runs int) error {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return err
	}
	var runBytes, eventBytes, segments float64
	for _, ent := range entries {
		info, err := ent.Info()
		if err != nil {
			return err
		}
		switch {
		case filepath.Ext(ent.Name()) != ".journal":
		case strings.HasPrefix(ent.Name(), "gateway-"):
			eventBytes += float64(info.Size())
			segments++
		default:
			runBytes += float64(info.Size())
		}
	}
	v["journal.run_journal_bytes_per_run"] = runBytes / float64(runs)
	v["journal.event_log_bytes_per_run"] = eventBytes / float64(runs)
	v["journal.segments"] = segments
	return nil
}

// traceDirect runs the submissions' configuration straight through
// core.Run, then stage by stage (Trinity and quantification dominate
// it), returning the p50 host milliseconds of the direct run.
func traceDirect(v map[string]float64, tr *tracer, parent int, e *env) (float64, error) {
	ds, err := simdata.GenerateCached(simdata.Tiny())
	if err != nil {
		return 0, err
	}
	config := func() core.Config {
		cfg := core.DefaultConfig()
		cfg.Assemblers = []string{"trinity"}
		cfg.Deadline = acceptDeadline * vclock.Second
		cfg.Obs = obs.New()
		return cfg
	}
	var runs []float64
	var rep *core.Report
	for n := 0; n < 20; n++ {
		runs = append(runs, tr.timed(parent, "core", "run", func() { rep, err = core.Run(ds, config()) }))
		if err != nil {
			return 0, err
		}
	}
	v["core.run_ms"] = median(runs)
	reportCounts(v, rep)
	v["simdata.reads"] = float64(len(ds.Reads.Reads))
	v["core.predict_ms"] = tr.timed(parent, "core", "predict", func() { _, err = core.Predict(ds, config()) })
	if err != nil {
		return 0, err
	}

	_, _, err = stagePipeline(v, tr, parent, ds, config(), rep.KmersUsed)
	return median(runs), err
}
