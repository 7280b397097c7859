package core

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"strings"

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
// the run that wrote the journal: the dataset profile and every value
// field of the config, as SHA-256 over their JSON encoding. It is
// stored in the header record and re-verified on resume, so resuming
// under a drifted config fails fast instead of producing a silently
// different run. The run's handles stay out: Cloud carries a func and
// an injector, and Obs, Journal and Resume are where the run reports,
// not what it runs.
func configDigest(cfg Config, ds *simdata.Dataset) (string, error) {
	cfg.Cloud, cfg.Obs, cfg.Journal, cfg.Resume = nil, nil, nil, nil
	b, err := json.Marshal(struct {
		Profile string
		Config  Config
	}{ds.Profile.Name, cfg})
	if err != nil {
		return "", fmt.Errorf("core: config digest: %w", err)
	}
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:]), nil
}

// runJournal drives the pipeline's write-ahead journal. Every
// checkpoint — header, stage boundary, unit completion, cancellation,
// completion — goes through one step: in a resumed run it first walks
// the surviving prefix with a cursor, requiring each checkpoint to
// reproduce the next prefix record, and past the prefix it appends, so
// the finished journal is the same record sequence an uninterrupted
// run would have written. It also arms the drivercrash fault class
// against the checkpoints. All methods are nil-receiver safe; a nil
// *runJournal is "not journaling".
type runJournal struct {
	pl       *Pipeline
	w        *journal.Writer
	injector *faults.Injector
	resumed  bool

	// prefix is the resume journal's records; those before cursor have
	// been replayed. units maps stage+unit to the prefix position of
	// the unit's record, for looking a unit up before its checkpoint.
	prefix []journal.Record
	cursor int
	units  map[string]int

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
		pl:         pl,
		w:          cfg.Journal,
		injector:   inj,
		resumed:    cfg.Resume != nil,
		units:      map[string]int{},
		codecs:     map[string]unitCodec{},
		unitChains: map[string][]string{},
		armed:      inj.DriverCrashTimes(),
	}
	if cfg.Resume != nil {
		if r := cfg.Resume.Repair; r != nil {
			jr.stats.TailRepaired = true
			jr.stats.TailTruncatedBytes = r.TruncatedBytes
		}
		jr.prefix = cfg.Resume.Records
		for i, rec := range jr.prefix {
			if rec.Kind == journal.KindUnit {
				jr.units[unitKey(rec.Stage, rec.Unit)] = i
			}
		}
		// Any drivercrash the surviving journal already covers fired in
		// a previous life of this run: disarm it, or resume would crash
		// at the same checkpoint forever.
		for last := cfg.Resume.LastVTime(); len(jr.armed) > 0 && float64(jr.armed[0]) <= last; {
			jr.armed = jr.armed[1:]
		}
	}
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

// checkpoint is the one step every checkpoint takes. While the cursor
// is inside the resume prefix, the next prefix record must equal live
// in every header field but Seq and Chain, and it is consumed; the
// payload is not compared, because the chain covers it and a replayed
// unit's outputs were read from it. Past the prefix, live is appended.
// It returns the chain digest of the record at this checkpoint.
func (jr *runJournal) checkpoint(live journal.Record) (string, error) {
	if !jr.recording() {
		return "", nil
	}
	if jr.cursor == len(jr.prefix) {
		return jr.append(live)
	}
	rec := jr.prefix[jr.cursor]
	for _, f := range [...][3]any{
		{"kind", rec.Kind, live.Kind},
		{"stage", rec.Stage, live.Stage},
		{"unit", rec.Unit, live.Unit},
		{"vtime", rec.VTime, live.VTime},
		{"cost", rec.CostUSD, live.CostUSD},
		{"duration", rec.DurationSeconds, live.DurationSeconds},
		{"peak memory", rec.PeakMemoryGB, live.PeakMemoryGB},
		{"seed", rec.Seed, live.Seed},
		{"digest", rec.Digest, live.Digest},
		{"note", rec.Note, live.Note},
	} {
		if f[1] != f[2] {
			return "", fmt.Errorf("record %d (%s) has %s %v, but the replay reached it with %v",
				rec.Seq, strings.TrimRight(rec.Kind+" "+rec.Stage+"/"+rec.Unit, " /"), f[0], f[1], f[2])
		}
	}
	jr.cursor++
	jr.stats.RecordsReplayed++
	jr.countRecord()
	return rec.Chain, nil
}

// append writes a live record and returns its chain digest (empty
// when there is no writer).
func (jr *runJournal) append(rec journal.Record) (string, error) {
	if jr.w != nil {
		stamped, err := jr.w.Append(rec)
		if err != nil {
			return "", fmt.Errorf("append failed: %w", err)
		}
		rec = stamped
	}
	jr.stats.RecordsAppended++
	jr.countRecord()
	return rec.Chain, nil
}

// step checkpoints a record of the running pipeline — a replay that
// diverges from the journal aborts the run — and then lets an armed
// drivercrash fire.
func (jr *runJournal) step(live journal.Record) string {
	chain, err := jr.checkpoint(live)
	if err != nil {
		jr.drift("%v", err)
	}
	jr.maybeCrash(live.VTime)
	return chain
}

// mark steps a record stamped with the pipeline's current virtual time
// and accrued cost.
func (jr *runJournal) mark(rec journal.Record) {
	if jr == nil {
		return
	}
	rec.VTime, rec.CostUSD = float64(jr.pl.clock.Now()), jr.pl.provider.TotalCost()
	jr.step(rec)
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

// header checkpoints the run start. On resume it verifies the journal
// was written by the same configuration and dataset.
func (jr *runJournal) header(digest string, seed uint64, profile string) {
	if jr == nil {
		return
	}
	if _, err := jr.checkpoint(journal.Record{Kind: journal.KindHeader, Seed: seed, Digest: digest, Note: profile}); err != nil {
		jr.drift("journal belongs to config %s, resume attempted with config %s: %v", jr.prefix[0].Digest, digest, err)
	}
	jr.maybeCrash(float64(jr.pl.clock.Now()))
}

func (jr *runJournal) stageStart(name string) {
	jr.mark(journal.Record{Kind: journal.KindStageStart, Stage: name})
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
	jr.mark(journal.Record{Kind: journal.KindStageEnd, Stage: name, Digest: combined, Note: note})
}

// cancelled checkpoints a run cut off at its deadline or cancellation
// point — the journal of a cancelled run resumes to the same truncated
// report byte-for-byte.
func (jr *runJournal) cancelled(outcome string) {
	jr.mark(journal.Record{Kind: journal.KindCancelled, Note: outcome})
}

// complete records the run's final outcome and, when the run scored
// its transcripts, the DETONATE metrics as the record's payload. It
// runs in Run's deferred epilogue, so invariant violations are
// returned rather than panicked.
func (jr *runJournal) complete(now vclock.Time, cost float64, metrics *detonate.Metrics, runErr error) error {
	if !jr.recording() {
		return nil
	}
	rec := journal.Record{Kind: journal.KindComplete, VTime: float64(now), CostUSD: cost, Note: "ok"}
	if runErr != nil {
		rec.Note = runErr.Error()
	}
	if metrics != nil {
		b, err := json.Marshal(metrics)
		if err != nil {
			return fmt.Errorf("core: journal: complete record: %w", err)
		}
		rec.Payload = b
	}
	if _, err := jr.checkpoint(rec); err != nil {
		return fmt.Errorf("core: journal: %w", err)
	}
	if n := len(jr.prefix) - jr.cursor; n > 0 {
		return fmt.Errorf("core: journal: %d prefix records were never replayed (journal does not match this run)", n)
	}
	return nil
}

// journaledMetrics returns the DETONATE metrics the journal's complete
// record carries, nil when the run is not about to replay a complete
// record that holds them.
func (jr *runJournal) journaledMetrics() (*detonate.Metrics, error) {
	if jr == nil || jr.cursor == len(jr.prefix) {
		return nil, nil
	}
	rec := jr.prefix[jr.cursor]
	if rec.Kind != journal.KindComplete || len(rec.Payload) == 0 {
		return nil, nil
	}
	var m detonate.Metrics
	if err := json.Unmarshal(rec.Payload, &m); err != nil {
		return nil, fmt.Errorf("core: journal: complete record: %w", err)
	}
	return &m, nil
}

// replayed returns the journal's record of a unit the cursor has not
// yet reached: the unit's outputs are served from it.
func (jr *runJournal) replayed(stage, name string) (journal.Record, bool) {
	i, ok := jr.units[unitKey(stage, name)]
	if !ok || i < jr.cursor {
		return journal.Record{}, false
	}
	return jr.prefix[i], true
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
	jr.codecs[unitKey(stage, name)] = c
	return func(env *pilot.ExecEnv) (pilot.WorkResult, error) {
		if rec, ok := jr.replayed(stage, name); ok {
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
	if jr == nil {
		return false
	}
	_, ok := jr.replayed(stage, name)
	return ok
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
	name := u.Desc.Name
	live := journal.Record{
		Kind: journal.KindUnit, Stage: stage, Unit: name,
		VTime: float64(at), CostUSD: jr.pl.provider.TotalCost(),
		DurationSeconds: float64(u.Result.Duration),
		PeakMemoryGB:    u.Result.PeakMemoryGB,
	}
	// A replayed unit's outputs are already in its journal record; only
	// executed work is encoded.
	_, replayed := jr.replayed(stage, name)
	if !replayed && jr.recording() {
		c, ok := jr.codecs[unitKey(stage, name)]
		if !ok {
			jr.drift("unit %s/%s completed without a registered codec", stage, name)
		}
		payload, err := c.encode(u.Result)
		if err != nil {
			jr.drift("encoding %s/%s outputs: %v", stage, name, err)
		}
		live.Payload = payload
	}
	if replayed {
		jr.stats.UnitsReplayed++
	}
	jr.unitChains[stage] = append(jr.unitChains[stage], jr.step(live))
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
