package gateway

import (
	"encoding/json"
	"fmt"
	"net/http"
	"path/filepath"
	"strconv"

	"rnascale/internal/core"
	"rnascale/internal/journal"
	"rnascale/internal/obs"
	"rnascale/internal/simdata"
)

// eventsPrefix names the gateway's event-log segments inside the
// journal directory (<dir>/gateway-NNNNNN.journal); per-run pipeline
// journals live next to them as <id>.journal. Each event record's
// Note is the run id and its payload the run's RunView after a
// transition; replay is last-wins per id, so the log is a write-ahead
// image of the run table and the bounded queue.
const eventsPrefix = "gateway"

// EnableJournal makes the gateway durable across its own loss: every
// run-state transition is appended to the segmented, hash-chained
// event log under dir, and every run executes under a per-run
// pipeline journal <dir>/<id>.journal. If dir already holds a
// previous gateway's journal, its run table is rebuilt first and
// in-flight work is re-adopted: queued runs are re-enqueued, and runs
// that were mid-flight resume from their pipeline journals (counted
// by MetricRunsResumed) instead of starting over — a torn tail on a
// crashed run's journal is repaired, not fatal. The rebuilt table is
// then compacted into a fresh snapshot segment, so the event log's
// disk footprint resets on every restart instead of growing with the
// gateway's whole history. Call once, before accepting submissions.
func (s *Server) EnableJournal(dir string) error {
	s.mu.Lock()
	rotate := s.rotateEvery
	s.mu.Unlock()
	seg, prior, err := journal.OpenSegmented(dir, eventsPrefix,
		journal.SegmentedOptions{RotateEvery: rotate})
	if err != nil {
		return err
	}

	s.mu.Lock()
	if s.events != nil {
		s.mu.Unlock()
		seg.Close() //rnavet:allow errdrop — error-path cleanup of a log we never wrote to; the enable error wins
		return fmt.Errorf("gateway: journal already enabled")
	}
	if len(s.runs) > 0 {
		s.mu.Unlock()
		seg.Close() //rnavet:allow errdrop — error-path cleanup of a log we never wrote to; the enable error wins
		return fmt.Errorf("gateway: enable the journal before accepting submissions")
	}
	s.journalDir = dir
	s.events = seg

	for _, rec := range prior {
		if rec.Kind != journal.KindEvent || rec.Note == "" {
			continue
		}
		var view RunView
		if err := json.Unmarshal(rec.Payload, &view); err != nil {
			s.events = nil
			s.mu.Unlock()
			seg.Close() //rnavet:allow errdrop — error-path cleanup; the unmarshal error wins and nothing was appended yet
			return fmt.Errorf("gateway: event record for %s: %w", rec.Note, err)
		}
		id := rec.Note
		if _, ok := s.runs[id]; !ok {
			s.runs[id] = &run{}
			s.order = append(s.order, id)
			var n int
			if _, err := fmt.Sscanf(id, "run-%d", &n); err == nil && n > s.nextID {
				s.nextID = n
			}
		}
		s.runs[id].view = view
	}
	var adopted, resumed int
	for _, id := range s.order {
		rn := s.runs[id]
		switch rn.view.Status {
		case StatusQueued, StatusRunning:
		default:
			continue // terminal: history only
		}
		cfg, ds, err := buildConfig(rn.view.Request)
		if err != nil {
			// The request can no longer be rebuilt (e.g. a profile was
			// removed); settle it rather than wedging the queue.
			rn.view.Status = StatusFailed
			rn.view.Error = fmt.Sprintf("re-adoption: %v", err)
			s.logEventLocked(id)
			continue
		}
		cfg.Obs = obs.New()
		rn.obs, rn.cfg, rn.ds = cfg.Obs, cfg, ds
		rn.journalPath = filepath.Join(dir, id+".journal")
		if rn.view.Status == StatusRunning {
			// The previous gateway died with this run in flight; if its
			// pipeline journal survived — even with a crash-torn tail,
			// which the tolerant read accepts and resume repairs —
			// continue from it instead of re-executing completed work.
			if _, err := journal.Inspect(rn.journalPath); err == nil {
				rn.resumeFrom = rn.journalPath
				resumed++
			}
		}
		rn.view.Status = StatusQueued
		rn.view.Error = ""
		rn.enqueuedAt = queueClock()
		s.queue = append(s.queue, id)
		s.runsWG.Add(1)
		adopted++
		s.logEventLocked(id)
	}
	if len(prior) > 0 {
		// Fold the whole inherited history into one snapshot segment:
		// the current view of every run, in table order.
		snapshot := make([]journal.Record, 0, len(s.order))
		for _, id := range s.order {
			b, err := json.Marshal(s.runs[id].view)
			if err != nil {
				continue
			}
			snapshot = append(snapshot, journal.Record{Kind: journal.KindEvent, Note: id, Payload: b})
		}
		if err := seg.Compact(snapshot); err != nil {
			s.events = nil
			s.mu.Unlock()
			seg.Close() //rnavet:allow errdrop — error-path cleanup; the compact error wins and already names the failed log
			return fmt.Errorf("gateway: compact event log: %w", err)
		}
	}
	s.mu.Unlock()

	if adopted > 0 {
		s.runsInflight(adopted)
	}
	if resumed > 0 {
		s.metrics.Counter(obs.MetricRunsResumed,
			"Runs re-adopted from a surviving pipeline journal after gateway loss.", nil).Add(float64(resumed))
	}
	s.cond.Broadcast()
	return nil
}

// logEventLocked appends the run's current view to the event log;
// the record is durable (group-committed) when Append returns.
// Callers hold s.mu, which also orders same-run events for last-wins
// replay. The event writer is fail-stop: after an append error the
// log stops growing and replay falls back to the last durable state,
// which re-adoption re-executes — so errors are not fatal here.
func (s *Server) logEventLocked(id string) {
	if s.events == nil {
		return
	}
	b, err := json.Marshal(s.runs[id].view)
	if err != nil {
		return
	}
	_, _ = s.events.Append(journal.Record{Kind: journal.KindEvent, Note: id, Payload: b}) //rnavet:allow errdrop — fail-stop by design: after an append error the log stops growing and replay falls back to the last durable state (see doc comment)
}

// executeRun runs one pipeline run, honoring the run's journal and
// resume settings: resumeFrom continues an interrupted run's journal
// in place; otherwise journalPath (when set) makes the run resumable.
// A close error on the run's journal fails the run: Close flushes the
// final group commit, so an error there means the journal's tail may
// not be durable and a later resume could replay stale state.
func executeRun(cfg core.Config, ds *simdata.Dataset, journalPath, resumeFrom string) (rep *core.Report, err error) {
	if resumeFrom != "" {
		return core.Resume(ds, cfg, resumeFrom)
	}
	if journalPath != "" {
		w, cerr := journal.Create(journalPath)
		if cerr != nil {
			return nil, cerr
		}
		defer func() {
			if cerr := w.Close(); cerr != nil && err == nil {
				rep, err = nil, fmt.Errorf("close run journal: %w", cerr)
			}
		}()
		cfg.Journal = w
	}
	return core.Run(ds, cfg)
}

// handleResume re-enqueues a failed run to continue from its
// surviving pipeline journal. Only a failed run with an incomplete
// journal is resumable; everything else — still queued or running
// (including a resume already accepted), finished, journal complete,
// or no journal at all — answers 409 Conflict, so a double resume
// cannot duplicate work. The journal is read tolerantly: a crash-torn
// tail does not disqualify a run from resuming (the resume repairs
// it), only a journal with no verifiable prefix at all does.
func (s *Server) handleResume(w http.ResponseWriter, id string) {
	s.mu.Lock()
	rn, ok := s.runs[id]
	if !ok {
		s.mu.Unlock()
		writeErr(w, http.StatusNotFound, "no run %q", id)
		return
	}
	if rn.view.Status != StatusFailed {
		status := rn.view.Status
		s.mu.Unlock()
		writeErr(w, http.StatusConflict, "run %s is %s, not resumable", id, status)
		return
	}
	lg, err := journal.Inspect(rn.journalPath)
	if err != nil {
		s.mu.Unlock()
		writeErr(w, http.StatusConflict, "run %s has no surviving journal", id)
		return
	}
	if lg.Complete() {
		s.mu.Unlock()
		writeErr(w, http.StatusConflict, "run %s's journal is complete; nothing to resume", id)
		return
	}
	cfg, ds, err := buildConfig(rn.view.Request)
	if err != nil {
		s.mu.Unlock()
		writeErr(w, http.StatusInternalServerError, "rebuild request: %v", err)
		return
	}
	cfg.Obs = obs.New()
	rn.obs, rn.cfg, rn.ds = cfg.Obs, cfg, ds
	rn.resumeFrom = rn.journalPath
	rn.view.Status = StatusQueued
	rn.view.Error = ""
	rn.enqueuedAt = queueClock()
	s.queue = append(s.queue, id)
	s.runsWG.Add(1)
	s.logEventLocked(id)
	view := rn.view
	s.mu.Unlock()

	s.runsInflight(1)
	s.metrics.Counter(obs.MetricRunsResumed,
		"Runs re-adopted from a surviving pipeline journal after gateway loss.", nil).Inc()
	s.cond.Signal()
	writeJSON(w, http.StatusAccepted, view)
}

// handleProof serves a run's provenance: the journal's chain
// verification report (records, chain head, Merkle root, first bad
// seq if damaged) plus a Merkle inclusion proof for one record —
// ?seq=N, defaulting to the last record. A client that pins the
// chain head or root when a run finishes can later audit that no
// record was rewritten, without downloading the journal.
func (s *Server) handleProof(w http.ResponseWriter, r *http.Request, id string) {
	s.mu.Lock()
	rn, ok := s.runs[id]
	var path string
	if ok {
		path = rn.journalPath
	}
	s.mu.Unlock()
	if !ok {
		writeErr(w, http.StatusNotFound, "no run %q", id)
		return
	}
	if path == "" {
		writeErr(w, http.StatusConflict, "run %s has no journal (gateway journaling is disabled)", id)
		return
	}
	// One read serves both halves of the answer, so the report and the
	// proof describe the same records even while the run is appending.
	lg, err := journal.Inspect(path)
	if err != nil {
		writeErr(w, http.StatusConflict, "run %s has no verifiable journal: %v", id, err)
		return
	}
	seq := len(lg.Records) - 1
	if qs := r.URL.Query().Get("seq"); qs != "" {
		n, err := strconv.Atoi(qs)
		if err != nil {
			writeErr(w, http.StatusBadRequest, "bad seq %q", qs)
			return
		}
		seq = n
	}
	proof, err := lg.Proof(seq)
	if err != nil {
		writeErr(w, http.StatusBadRequest, "%v", err)
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{"verify": lg.Verified(), "proof": proof})
}
