package core

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"io"

	"rnascale/internal/detonate"
	"rnascale/internal/faults"
	"rnascale/internal/journal"
	"rnascale/internal/obs"
	"rnascale/internal/pilot"
	"rnascale/internal/simdata"
	"rnascale/internal/vclock"
)

// DriverCrashError is returned by Run when an injected drivercrash
// fault kills the driver process. The run's teardown does NOT happen
// — VMs are left "running" and the report is unfinished — faithfully
// modelling a SIGKILL of the real driver. When the run was journaled,
// the surviving prefix on disk can be continued with Resume.
type DriverCrashError struct {
	// At is the drivercrash rule's virtual time; the crash strikes at
	// the first journal checkpoint at or after it.
	At vclock.Time
}

func (e *DriverCrashError) Error() string {
	return fmt.Sprintf("core: driver crashed at checkpoint >= t=%v (injected drivercrash); resume from the run journal", e.At)
}

// driverCrashPanic unwinds the pipeline out of an arbitrary
// checkpoint; Run recovers it into a DriverCrashError.
type driverCrashPanic struct{ at vclock.Time }

// journalDriftPanic aborts a resume whose replayed execution diverges
// from the journal (corrupted file, or a config that does not match
// the original run). Run recovers it into a plain error.
type journalDriftPanic struct{ msg string }

// JournalStats summarizes a run's write-ahead journal activity.
type JournalStats struct {
	// Resumed is true when the run was continued from a journal prefix.
	Resumed bool
	// RecordsAppended counts records written live by this process;
	// RecordsReplayed counts prefix records consumed during resume.
	// Their sum equals the uninterrupted run's record count.
	RecordsAppended int
	RecordsReplayed int
	// UnitsExecuted counts real work-function executions (one per
	// attempt); UnitsReplayed counts unit completions served from the
	// journal without re-executing any work.
	UnitsExecuted int
	UnitsReplayed int
	// TailRepaired is true when the resume found crash damage at the
	// journal's tail — a torn record or a missing final newline — and
	// repaired it before continuing; TailTruncatedBytes counts the
	// unverifiable bytes dropped (0 when only the newline was
	// restored). The truncated records' work simply re-executes.
	TailRepaired       bool
	TailTruncatedBytes int
}

// unitCodec serializes one unit's outputs into a journal payload and
// replays them back into run state without re-executing the work.
type unitCodec struct {
	encode func(res pilot.WorkResult) ([]byte, error)
	replay func(rec journal.Record, env *pilot.ExecEnv) (pilot.WorkResult, error)
}

// configDigest fingerprints everything a resumed run must share with
// the run that wrote the journal. It is stored in the header record
// and re-verified on resume, so resuming under a drifted config fails
// fast instead of producing a silently different run.
func configDigest(cfg Config, ds *simdata.Dataset) string {
	h := fnv.New64a()
	fmt.Fprintf(h, "%s|%s|%s|%v|%s|%d|%d|%d|%v|%d|%t|%d|%+v|%t|%d",
		ds.Profile.Name, cfg.Scheme, cfg.Pattern, cfg.Assemblers,
		cfg.InstanceType, cfg.AssemblyNodesOverride, cfg.NodesPerMPIJob,
		cfg.ContrailNodes, cfg.Kmers, cfg.MinCoverage, cfg.ConsensusMerge,
		cfg.ParallelPreprocessShards, cfg.Preprocess,
		cfg.EvaluateAgainstTruth, cfg.FaultSeed)
	if cfg.FaultPlan != nil {
		io.WriteString(h, "|"+cfg.FaultPlan.String())
	}
	if cfg.Backends != (StageBackends{}) {
		// Folded in only when set, so digests of pre-backend configs
		// (and their journals) stay valid.
		io.WriteString(h, "|backends:"+cfg.Backends.String())
	}
	if cfg.Deadline > 0 || cfg.CancelAt > 0 || cfg.RetryBudget > 0 || cfg.Breaker != nil {
		// Folded in only when any overload knob is set, so digests of
		// pre-overload configs (and their journals) stay valid.
		fmt.Fprintf(h, "|overload:%v:%v:%d:%v", cfg.Deadline, cfg.CancelAt,
			cfg.RetryBudget, cfg.RetryBudgetRefill)
		if cfg.Breaker != nil {
			fmt.Fprintf(h, ":breaker=%d,%v", cfg.Breaker.Threshold, cfg.Breaker.Cooldown)
		}
	}
	if cfg.ConditionB != nil {
		fmt.Fprintf(h, "|condB:%d:%t:", len(cfg.ConditionB.Reads), cfg.ConditionB.Paired)
		for _, r := range cfg.ConditionB.Reads {
			io.WriteString(h, r.ID)
			h.Write(r.Seq)
		}
	}
	return fmt.Sprintf("%016x", h.Sum64())
}

// runJournal drives the pipeline's write-ahead journal: in a live run
// it appends a record at every checkpoint (stage boundary or unit
// completion); in a resumed run it first consumes the surviving
// prefix — verifying the replayed execution reproduces each record's
// virtual time, accrued cost and stage digest exactly — and then
// switches to appending, so the finished journal is the same record
// sequence an uninterrupted run would have written. It also arms the
// drivercrash fault class against the checkpoints. All methods are
// nil-receiver safe; a nil *runJournal is "not journaling".
type runJournal struct {
	pl       *Pipeline
	w        *journal.Writer
	injector *faults.Injector
	resumed  bool

	// Replay state, built from the resume prefix. Unit records are
	// keyed by stage+unit; stage and lifecycle records by kind+stage.
	pendingUnits     map[string][]journal.Record
	pendingStage     map[string]journal.Record
	pendingHeader    *journal.Record
	pendingComplete  *journal.Record
	pendingCancelled *journal.Record
	pendingCount     int

	codecs map[string]unitCodec
	// unitChains holds each stage's unit records' chain digests, in
	// completion order, for the stage-end digest.
	unitChains map[string][]string
	// armed holds drivercrash times not yet covered by the journal,
	// ascending; the head fires at the first checkpoint at/after it.
	armed []vclock.Time

	stats JournalStats
}

func unitKey(stage, unit string) string { return stage + "\x00" + unit }

func newRunJournal(pl *Pipeline, cfg Config, inj *faults.Injector) *runJournal {
	jr := &runJournal{
		pl:           pl,
		w:            cfg.Journal,
		injector:     inj,
		resumed:      cfg.Resume != nil,
		pendingUnits: map[string][]journal.Record{},
		pendingStage: map[string]journal.Record{},
		codecs:       map[string]unitCodec{},
		unitChains:   map[string][]string{},
	}
	armed := inj.DriverCrashTimes()
	if cfg.Resume != nil {
		if r := cfg.Resume.Repair; r != nil {
			jr.stats.TailRepaired = true
			jr.stats.TailTruncatedBytes = r.TruncatedBytes
		}
		for i := range cfg.Resume.Records {
			rec := cfg.Resume.Records[i]
			switch rec.Kind {
			case journal.KindHeader:
				jr.pendingHeader = &rec
			case journal.KindComplete:
				jr.pendingComplete = &rec
			case journal.KindCancelled:
				jr.pendingCancelled = &rec
			case journal.KindUnit:
				k := unitKey(rec.Stage, rec.Unit)
				jr.pendingUnits[k] = append(jr.pendingUnits[k], rec)
			default:
				jr.pendingStage[rec.Kind+"\x00"+rec.Stage] = rec
			}
			jr.pendingCount++
		}
		// Any drivercrash the surviving journal already covers fired in
		// a previous life of this run: disarm it, or resume would crash
		// at the same checkpoint forever.
		last := cfg.Resume.LastVTime()
		kept := make([]vclock.Time, 0, len(armed))
		for _, at := range armed {
			if float64(at) > last {
				kept = append(kept, at)
			}
		}
		armed = kept
	}
	jr.armed = armed
	return jr
}

// recording reports whether journal records flow (as opposed to a
// journal that exists only to arm drivercrash checkpoints).
func (jr *runJournal) recording() bool {
	return jr != nil && (jr.w != nil || jr.resumed)
}

func (jr *runJournal) isResumed() bool { return jr != nil && jr.resumed }

func (jr *runJournal) drift(format string, args ...any) {
	panic(journalDriftPanic{msg: fmt.Sprintf(format, args...)})
}

// countRecord feeds the journal_records counter; replayed and
// appended records both count, so a resumed run's total matches its
// uninterrupted twin's.
func (jr *runJournal) countRecord() {
	jr.pl.o.Metrics.Counter(obs.MetricJournalRecords,
		"Run journal records, replayed from a surviving prefix or appended live.", nil).Inc()
}

func (jr *runJournal) consumed() {
	jr.pendingCount--
	jr.stats.RecordsReplayed++
	jr.countRecord()
}

// append writes a live record and returns its chain digest (empty
// when there is no writer).
func (jr *runJournal) append(rec journal.Record) string {
	if jr.w != nil {
		stamped, err := jr.w.Append(rec)
		if err != nil {
			jr.drift("append failed: %v", err)
		}
		rec = stamped
	}
	jr.stats.RecordsAppended++
	jr.countRecord()
	return rec.Chain
}

// maybeCrash fires the armed drivercrash rule once the checkpoint's
// virtual time reaches it. The triggering record is already durable,
// so the resume sees everything up to and including this checkpoint.
func (jr *runJournal) maybeCrash(vt float64) {
	if jr == nil || len(jr.armed) == 0 {
		return
	}
	at := jr.armed[0]
	if vt >= float64(at) {
		jr.armed = jr.armed[1:]
		jr.injector.CountInjected(faults.ClassDriverCrash)
		panic(driverCrashPanic{at: at})
	}
}

// verify checks a replayed record against the re-executed run state;
// any mismatch means the journal and the current run are not the same
// simulation.
func (jr *runJournal) verify(rec journal.Record, vt, cost float64, digest string) {
	if rec.VTime != vt || rec.CostUSD != cost {
		jr.drift("record %d (%s %s/%s) was written at t=%v cost=%v but replay reached it at t=%v cost=%v",
			rec.Seq, rec.Kind, rec.Stage, rec.Unit, rec.VTime, rec.CostUSD, vt, cost)
	}
	if digest != "" && rec.Digest != digest {
		jr.drift("record %d (%s %s/%s) artifact digest %s does not match replayed %s",
			rec.Seq, rec.Kind, rec.Stage, rec.Unit, rec.Digest, digest)
	}
}

// header checkpoints the run start. On resume it verifies the journal
// was written by the same configuration and dataset.
func (jr *runJournal) header(digest string, seed uint64, profile string) {
	if jr == nil {
		return
	}
	if jr.recording() {
		if h := jr.pendingHeader; h != nil {
			if h.Digest != digest || h.Seed != seed {
				jr.drift("journal belongs to config %s seed %d, resume attempted with config %s seed %d",
					h.Digest, h.Seed, digest, seed)
			}
			jr.pendingHeader = nil
			jr.consumed()
		} else if jr.resumed {
			jr.drift("resume journal has no header record")
		} else {
			jr.append(journal.Record{Kind: journal.KindHeader, Seed: seed, Digest: digest, Note: profile})
		}
	}
	jr.maybeCrash(float64(jr.pl.clock.Now()))
}

func (jr *runJournal) stageStart(name string) {
	jr.stageBoundary(journal.KindStageStart, name, "", "")
}

// stageEnd checkpoints a stage boundary with the digest of the
// stage's unit records: the SHA-256 of their chain digests in
// completion order, each of which covers its record's payload.
func (jr *runJournal) stageEnd(name, note string) {
	if jr == nil {
		return
	}
	var combined string
	if chains := jr.unitChains[name]; len(chains) > 0 {
		h := sha256.New()
		for _, c := range chains {
			io.WriteString(h, c)
		}
		combined = hex.EncodeToString(h.Sum(nil))
	}
	jr.stageBoundary(journal.KindStageEnd, name, combined, note)
}

// stageBoundary replays or appends one stage-start or stage-end record.
func (jr *runJournal) stageBoundary(kind, name, digest, note string) {
	if jr == nil {
		return
	}
	vt, cost := float64(jr.pl.clock.Now()), jr.pl.provider.TotalCost()
	if jr.recording() {
		key := kind + "\x00" + name
		if rec, ok := jr.pendingStage[key]; ok {
			jr.verify(rec, vt, cost, digest)
			delete(jr.pendingStage, key)
			jr.consumed()
		} else {
			jr.append(journal.Record{Kind: kind, Stage: name, VTime: vt, CostUSD: cost, Digest: digest, Note: note})
		}
	}
	jr.maybeCrash(vt)
}

// cancelled checkpoints a run cut off at its deadline or cancellation
// point. On resume the replayed truncation must land at the same
// virtual time, cost and outcome — the journal of a cancelled run
// resumes to the same truncated report byte-for-byte.
func (jr *runJournal) cancelled(outcome string) {
	if jr == nil {
		return
	}
	vt, cost := float64(jr.pl.clock.Now()), jr.pl.provider.TotalCost()
	if jr.recording() {
		if rec := jr.pendingCancelled; rec != nil {
			jr.pendingCancelled = nil
			jr.verify(*rec, vt, cost, "")
			if rec.Note != outcome {
				jr.drift("cancelled record outcome %q does not match replayed %q", rec.Note, outcome)
			}
			jr.consumed()
		} else {
			jr.append(journal.Record{Kind: journal.KindCancelled, VTime: vt, CostUSD: cost, Note: outcome})
		}
	}
	jr.maybeCrash(vt)
}

// complete records the run's final outcome and, when the run scored
// its transcripts, the DETONATE metrics as the record's payload. It
// runs in Run's deferred epilogue, so invariant violations are
// returned rather than panicked.
func (jr *runJournal) complete(now vclock.Time, cost float64, metrics *detonate.Metrics, runErr error) error {
	if !jr.recording() {
		return nil
	}
	note := "ok"
	if runErr != nil {
		note = runErr.Error()
	}
	vt := float64(now)
	if rec := jr.pendingComplete; rec != nil {
		jr.pendingComplete = nil
		if rec.VTime != vt || rec.CostUSD != cost || rec.Note != note {
			return fmt.Errorf("core: journal: complete record diverged (journal t=%v cost=%v %q, replay t=%v cost=%v %q)",
				rec.VTime, rec.CostUSD, rec.Note, vt, cost, note)
		}
		jr.consumed()
	} else {
		rec := journal.Record{Kind: journal.KindComplete, VTime: vt, CostUSD: cost, Note: note}
		if metrics != nil {
			b, err := json.Marshal(metrics)
			if err != nil {
				return fmt.Errorf("core: journal: complete record: %w", err)
			}
			rec.Payload = b
		}
		jr.append(rec)
	}
	if jr.pendingCount > 0 {
		return fmt.Errorf("core: journal: %d prefix records were never replayed (journal does not match this run)", jr.pendingCount)
	}
	return nil
}

// journaledMetrics returns the DETONATE metrics the journal's complete
// record carries, nil when the run is not resuming a journal that
// holds them.
func (jr *runJournal) journaledMetrics() (*detonate.Metrics, error) {
	if jr == nil || jr.pendingComplete == nil || len(jr.pendingComplete.Payload) == 0 {
		return nil, nil
	}
	var m detonate.Metrics
	if err := json.Unmarshal(jr.pendingComplete.Payload, &m); err != nil {
		return nil, fmt.Errorf("core: journal: complete record: %w", err)
	}
	return &m, nil
}

// unit registers a unit's payload codec and wraps its work function:
// when the journal holds the unit's completion record, the recorded
// outputs are replayed instead of executing the work. The wrapper may
// be invoked once per attempt (retries re-enter it); the record is
// only consumed at the Done checkpoint in unitDone.
func (jr *runJournal) unit(stage, name string, work pilot.WorkFunc, c unitCodec) pilot.WorkFunc {
	if jr == nil {
		return work
	}
	key := unitKey(stage, name)
	jr.codecs[key] = c
	return func(env *pilot.ExecEnv) (pilot.WorkResult, error) {
		if recs := jr.pendingUnits[key]; len(recs) > 0 {
			rec := recs[0]
			res, err := c.replay(rec, env)
			if err != nil {
				return res, fmt.Errorf("core: journal replay of %s/%s: %w", stage, name, err)
			}
			res.Duration = vclock.Duration(rec.DurationSeconds)
			res.PeakMemoryGB = rec.PeakMemoryGB
			return res, nil
		}
		jr.stats.UnitsExecuted++
		return work(env)
	}
}

// replays reports whether the journal holds a unit's completion
// record: every attempt of the unit is then served from it, and its
// work never runs.
func (jr *runJournal) replays(stage, name string) bool {
	return jr != nil && len(jr.pendingUnits[unitKey(stage, name)]) > 0
}

// onUnitDone returns the done callback a stage's unit manager, pilot-
// or function-backed, invokes to checkpoint each unit completion (nil
// when not journaling).
func (jr *runJournal) onUnitDone(stage string) func(u *pilot.Unit, at vclock.Time) {
	if jr == nil {
		return nil
	}
	return func(u *pilot.Unit, at vclock.Time) { jr.unitDone(stage, u, at) }
}

func (jr *runJournal) unitDone(stage string, u *pilot.Unit, at vclock.Time) {
	vt, cost := float64(at), jr.pl.provider.TotalCost()
	key := unitKey(stage, u.Desc.Name)
	if jr.recording() {
		if recs := jr.pendingUnits[key]; len(recs) > 0 {
			rec := recs[0]
			jr.pendingUnits[key] = recs[1:]
			jr.verify(rec, vt, cost, "")
			jr.unitChains[stage] = append(jr.unitChains[stage], rec.Chain)
			jr.stats.UnitsReplayed++
			jr.consumed()
		} else {
			c, ok := jr.codecs[key]
			if !ok {
				jr.drift("unit %s/%s completed without a registered codec", stage, u.Desc.Name)
			}
			payload, err := c.encode(u.Result)
			if err != nil {
				jr.drift("encoding %s/%s outputs: %v", stage, u.Desc.Name, err)
			}
			chain := jr.append(journal.Record{
				Kind: journal.KindUnit, Stage: stage, Unit: u.Desc.Name,
				VTime: vt, CostUSD: cost,
				DurationSeconds: float64(u.Result.Duration),
				PeakMemoryGB:    u.Result.PeakMemoryGB,
				Payload:         payload,
			})
			jr.unitChains[stage] = append(jr.unitChains[stage], chain)
		}
	}
	jr.maybeCrash(vt)
}

// Resume continues an interrupted run from its write-ahead journal.
// cfg and ds must be identical to the original run's (verified via
// the header's config digest); the journal file is continued in
// place, so after a successful resume it holds the same record
// sequence an uninterrupted run would have written. The returned
// report, metrics and Chrome trace are byte-identical to that run's,
// except for the snapshot's Resumed marker.
func Resume(ds *simdata.Dataset, cfg Config, path string) (*Report, error) {
	rep, _, err := ResumePipeline(ds, cfg, path)
	return rep, err
}

// ResumePipeline is Resume exposing the pipeline for trace/metric
// inspection.
func ResumePipeline(ds *simdata.Dataset, cfg Config, path string) (*Report, *Pipeline, error) {
	lg, w, err := journal.Continue(path)
	if err != nil {
		return nil, nil, err
	}
	cfg.Resume = lg
	cfg.Journal = w
	pl := New(cfg)
	rep, err := pl.Run(ds)
	if cerr := w.Close(); cerr != nil && err == nil {
		err = cerr
	}
	return rep, pl, err
}

// JournalStats reports the pipeline's journal activity (zero value
// when the run was not journaled).
func (pl *Pipeline) JournalStats() JournalStats {
	if pl.jr == nil {
		return JournalStats{}
	}
	s := pl.jr.stats
	s.Resumed = pl.jr.resumed
	return s
}
