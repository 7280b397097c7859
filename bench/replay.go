package main

import (
	"fmt"
	"os"
	"sync/atomic"

	"rnascale/internal/core"
	"rnascale/internal/journal"
	"rnascale/internal/simdata"
)

// replaySeed is the state a replay starts from: the dataset, and the
// complete journal of one journaled mamp_bglumae run.
type replaySeed struct {
	ds      *simdata.Dataset
	journal string
	rep     *core.Report
	digest  string
	runMS   float64
}

// seedReplay runs the pipeline once under a journal with default
// options (the write path `rnapipe -journal` uses).
func seedReplay(e *env) (replaySeed, error) {
	s := replaySeed{journal: e.path("seed.journal")}
	var err error
	if s.ds, err = dataset(e.profile(mampBGlumae.profile()), e.seed); err != nil {
		return s, err
	}
	w, err := journal.CreateOptions(s.journal, journal.Options{})
	if err != nil {
		return s, err
	}
	cfg := mampBGlumae.config(e.seed)
	cfg.Journal = w
	start := now()
	s.rep, err = core.Run(s.ds, cfg)
	s.runMS = sinceMS(start)
	if cerr := w.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return s, fmt.Errorf("journaled run: %w", err)
	}
	if s.digest, err = digestReport(s.rep); err != nil {
		return s, err
	}
	// A seeding run that misses the golden is a broken set-up, not a
	// failed operation: there is nothing sound to replay.
	return s, e.check.match("run", s.digest)
}

// replay is the measured operation: chain-verify a fresh copy of the
// journal, then resume it. Nothing is left to execute, so the resume
// rebuilds the whole report from the records alone. A replay that
// goes wrong is a failed operation (rep is then nil); the error
// return is for the benchmark's own I/O.
func (s replaySeed) replay(e *env, tr *tracer, parent int) (verifyMS, resumeMS float64, rep *core.Report, err error) {
	path := e.path("replay.journal")
	if err := copyFile(s.journal, path); err != nil {
		return 0, 0, nil, err
	}
	var vr journal.VerifyResult
	var opErr error
	verifyMS = tr.timed(parent, "journal", "verify", func() { vr, opErr = journal.Verify(path) })
	if opErr == nil && !vr.Clean() {
		opErr = fmt.Errorf("journal does not verify: %v", vr)
	}
	var digest string
	if opErr == nil {
		resumeMS = tr.timed(parent, "core", "resume", func() { rep, opErr = core.Resume(s.ds, mampBGlumae.config(e.seed), path) })
	}
	if opErr == nil {
		digest, opErr = digestReport(rep)
	}
	switch {
	case opErr != nil:
		rep = nil
	case rep.Journal == nil || rep.Journal.UnitsExecuted != 0:
		opErr = fmt.Errorf("resume of a complete journal executed units: %+v", rep.Journal)
	case digest != s.digest:
		opErr = fmt.Errorf("resume digest differs from the journaled run's\n  got  %s\n  want %s", digest, s.digest)
	}
	e.check.op("run", digest, opErr)
	return verifyMS, resumeMS, rep, nil
}

func measureReplay(e *env) (measured, error) {
	var m measured
	start := now()
	s, err := seedReplay(e)
	if err != nil {
		return m, err
	}
	m.setupS = sinceMS(start) / 1000

	u0 := readUsage()
	for n := 0; e.more(n, m.wallMS); n++ {
		verifyMS, resumeMS, _, err := s.replay(e, nil, 0)
		if err != nil {
			return m, err
		}
		m.opMS = append(m.opMS, verifyMS+resumeMS)
		m.wallMS += verifyMS + resumeMS
	}
	m.since(u0)
	return m, nil
}

// traceReplay traces the journaled run that seeds the workload, a few
// replays of it, and the journal's write side in isolation.
func traceReplay(e *env, tr *tracer) (map[string]float64, error) {
	v := map[string]float64{}
	root := tr.begin(0, "bench", e.workload)
	defer tr.end(root)

	sp := tr.begin(root, "core", "run.journaled")
	s, err := seedReplay(e)
	tr.end(sp)
	if err != nil {
		return nil, err
	}
	v["core.run_ms"] = s.runMS
	v["simdata.reads"] = float64(len(s.ds.Reads.Reads))

	var verify, resume []float64
	var rep *core.Report
	for n := 0; n < 5; n++ {
		op := tr.begin(root, "bench", "replay")
		verifyMS, resumeMS, r, err := s.replay(e, tr, op)
		tr.end(op)
		if err != nil {
			return nil, err
		}
		if r == nil {
			return nil, fmt.Errorf("replay %d failed; nothing to trace", n)
		}
		verify, resume, rep = append(verify, verifyMS), append(resume, resumeMS), r
	}
	v["journal.verify_ms"] = median(verify)
	v["core.resume_ms"] = median(resume)
	v["bench.traced_op_ms"] = median(verify) + median(resume)
	v["core.units_replayed"] = float64(rep.Journal.UnitsReplayed)
	v["core.units_executed"] = float64(rep.Journal.UnitsExecuted)
	reportCounts(v, rep)
	exportObs(v, tr, root, rep.Config.Obs)

	var log *journal.Log
	v["journal.open_ms"] = tr.timed(root, "journal", "open", func() { log, err = journal.Open(s.journal) })
	if err != nil {
		return nil, err
	}
	if err := rewriteJournal(v, tr, root, log, e.path("rewrite.journal")); err != nil {
		return nil, err
	}
	info, err := os.Stat(s.journal)
	if err != nil {
		return nil, err
	}
	v["journal.run_journal_bytes_per_run"] = float64(info.Size())
	return v, nil
}

// rewriteJournal appends the run's own records again through a durable
// writer on a real file, counting the fsyncs the group commit issues.
func rewriteJournal(v map[string]float64, tr *tracer, parent int, log *journal.Log, path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	var fsyncs atomic.Int64
	w := journal.NewSyncedWriter(f, func() error { fsyncs.Add(1); return f.Sync() }, journal.Options{})
	v["journal.write_ms"] = tr.timed(parent, "journal", "write", func() {
		for _, rec := range log.Records {
			if _, err = w.Append(rec); err != nil {
				return
			}
		}
		err = w.Close()
	})
	if err != nil {
		return fmt.Errorf("re-appending %d records: %w", len(log.Records), err)
	}
	info, err := f.Stat()
	if err != nil {
		return err
	}
	v["journal.fsyncs"] = float64(fsyncs.Load())
	v["journal.records"] = float64(len(log.Records))
	v["journal.bytes"] = float64(info.Size())
	return nil
}
