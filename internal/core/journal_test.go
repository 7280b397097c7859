package core

import (
	"bytes"
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"regexp"
	"runtime"
	"strconv"
	"strings"
	"testing"

	_ "rnascale/internal/assembler/all"
	"rnascale/internal/cloud"
	"rnascale/internal/faults"
	"rnascale/internal/journal"
	"rnascale/internal/obs"
	"rnascale/internal/simdata"
	"rnascale/internal/sweep"
)

// runArtifacts are the byte-comparable outputs of one run: everything
// the resume contract promises is identical between an interrupted-
// and-resumed run and its uninterrupted twin.
type runArtifacts struct {
	trace    string
	metrics  string
	snapshot string
	summary  string
	timeline string
}

// journalBatch reads the group-commit batch size from JOURNAL_BATCH,
// so `make journal-determinism` can run the kill/resume matrix across
// batch sizes (1 degenerates to fsync-per-append). Empty or invalid
// means the writer's default.
func journalBatch() journal.Options {
	if s := os.Getenv("JOURNAL_BATCH"); s != "" {
		if n, err := strconv.Atoi(s); err == nil {
			return journal.Options{BatchSize: n}
		}
	}
	return journal.Options{}
}

// journalRun executes one journaled pipeline run with a fresh
// observability stack and returns the report, pipeline and error.
func journalRun(t *testing.T, ds *simdata.Dataset, cfg Config, path string) (*Report, *Pipeline, error) {
	t.Helper()
	w, err := journal.CreateOptions(path, journalBatch())
	if err != nil {
		t.Fatalf("create journal: %v", err)
	}
	cfg.Obs = obs.New()
	cfg.Journal = w
	pl := New(cfg)
	rep, rerr := pl.Run(ds)
	if cerr := w.Close(); cerr != nil && rerr == nil {
		rerr = cerr
	}
	return rep, pl, rerr
}

// capture folds a finished run into its comparable artifact bytes.
func capture(t *testing.T, rep *Report, pl *Pipeline) runArtifacts {
	t.Helper()
	var a runArtifacts
	var buf bytes.Buffer
	if err := pl.o.Tracer.WriteChromeTrace(&buf); err != nil {
		t.Fatalf("trace: %v", err)
	}
	a.trace = buf.String()
	buf.Reset()
	if err := pl.o.Metrics.WritePrometheus(&buf); err != nil {
		t.Fatalf("metrics: %v", err)
	}
	a.metrics = buf.String()
	buf.Reset()
	if rep.Snapshot == nil {
		t.Fatal("report has no snapshot")
	}
	if err := rep.Snapshot.WriteJSON(&buf); err != nil {
		t.Fatalf("snapshot: %v", err)
	}
	a.snapshot = buf.String()
	a.summary = rep.Summary()
	a.timeline = rep.Timeline(72)
	return a
}

// chainRE matches a record's hash-chain field, and a stage-end record's
// digest over its units' chain digests, for stripping in journal-body
// comparisons. (It would match the header's config digest too, but
// journalBody drops the header.)
var chainRE = regexp.MustCompile(`,"(chain|digest)":"[0-9a-f]{64}"`)

// journalBody returns a journal file's records after the header, with
// the chain digests stripped. The header is excluded because its
// config digest covers the fault plan string, which legitimately
// differs between a run armed with a drivercrash rule and its
// crash-free twin — and since every record's chain digest folds in
// the previous one, that single header delta cascades into every
// chain value and every stage digest made of them, so those are
// stripped before comparison too.
func journalBody(t *testing.T, path string) string {
	t.Helper()
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("read journal: %v", err)
	}
	lines := strings.SplitN(string(b), "\n", 2)
	if len(lines) != 2 {
		t.Fatalf("journal %s has no records after the header", path)
	}
	return chainRE.ReplaceAllString(lines[1], "")
}

// TestKillAndResumeByteIdentical is the acceptance scenario: run once
// cleanly under a journal, then kill the driver at three injected
// virtual-time points (mid-PA, mid-PB, mid-PC), resume each from its
// surviving journal, and require the resumed run's report, metrics,
// Chrome trace, summary and timeline to be byte-identical to the
// uninterrupted twin's — with zero journaled units re-executed. A
// fourth kill runs Ray beside ABySS and lands in PB between the two
// tools' units at one k, so the resume replays one consumer of that
// k's shared k-mer spectrum and assembles the other live.
func TestKillAndResumeByteIdentical(t *testing.T) {
	ds, err := simdata.GenerateCached(simdata.Tiny())
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()

	// twin is one configuration's uninterrupted run.
	type twin struct {
		cfg                      Config
		want                     runArtifacts
		wantBody                 string
		totalRecords, totalUnits int
		units                    map[string]float64 // PB unit → vtime of its journal record
		pl                       *Pipeline
	}
	cleanRun := func(cfg Config, name string) twin {
		path := filepath.Join(dir, name+".journal")
		clean, pl, err := journalRun(t, ds, cfg, path)
		if err != nil {
			t.Fatalf("clean %s run: %v", name, err)
		}
		if clean.Snapshot.Resumed {
			t.Fatal("uninterrupted run marked resumed")
		}
		if clean.Journal == nil || clean.Journal.Resumed || clean.Journal.RecordsReplayed != 0 {
			t.Fatalf("uninterrupted run journal stats: %+v", clean.Journal)
		}
		lg, err := journal.Open(path)
		if err != nil {
			t.Fatal(err)
		}
		units := map[string]float64{}
		for _, r := range lg.Records {
			if r.Kind == journal.KindUnit && r.Stage == "PB" {
				units[r.Unit] = r.VTime
			}
		}
		return twin{cfg, capture(t, clean, pl), journalBody(t, path),
			clean.Journal.RecordsAppended, clean.Journal.UnitsExecuted, units, pl}
	}
	rayOnly := cleanRun(chaosConfig(), "clean")
	both := chaosConfig()
	both.Assemblers = []string{"ray", "abyss"}
	shared := cleanRun(both, "clean-shared")

	type kill struct {
		name string
		twin twin
		at   float64
		// split names the two PB units, one k's two consumers, of which
		// only the first may be journaled at the kill.
		split [2]string
	}
	var kills []kill
	// Pick one kill point inside each stage off the clean span tree.
	for _, stage := range []string{"PA", "PB", "PC"} {
		sp := rayOnly.pl.o.Tracer.Find(obs.KindStage, stage)
		if sp == nil {
			t.Fatalf("no %s stage span in clean run", stage)
		}
		kills = append(kills, kill{name: "kill-" + stage, twin: rayOnly, at: float64(sp.Start.Add(sp.Duration() / 2))})
	}
	// Kill halfway between the journal records of the k whose Ray and
	// ABySS units finish furthest apart.
	split := kill{name: "kill-PB-shared-k", twin: shared}
	gap := 0.0
	for unit, vt := range shared.units {
		name, k, _ := strings.Cut(unit, "-")
		if name != "ray" {
			continue
		}
		other, ok := shared.units["abyss-"+k]
		if !ok {
			t.Fatalf("clean run journaled %s but not abyss-%s", unit, k)
		}
		first, second := unit, "abyss-"+k
		if other < vt {
			first, second = second, first
		}
		if d := math.Abs(vt - other); d > gap || d == gap && first < split.split[0] {
			gap, split.split, split.at = d, [2]string{first, second}, (vt+other)/2
		}
	}
	if gap == 0 {
		t.Fatal("no k whose Ray and ABySS units finish at different times")
	}
	kills = append(kills, split)

	for _, kill := range kills {
		t.Run(kill.name, func(t *testing.T) {
			want, wantBody := kill.twin.want, kill.twin.wantBody
			totalRecords, totalUnits := kill.twin.totalRecords, kill.twin.totalUnits
			path := filepath.Join(dir, kill.name+".journal")
			cfg := kill.twin.cfg
			plan, err := faults.ParseSpec(fmt.Sprintf("drivercrash:at=%g", kill.at))
			if err != nil {
				t.Fatal(err)
			}
			cfg.FaultPlan = plan
			cfg.FaultSeed = 7

			_, _, err = journalRun(t, ds, cfg, path)
			var dce *DriverCrashError
			if !errors.As(err, &dce) {
				t.Fatalf("run with drivercrash at t=%g returned %v, want DriverCrashError", kill.at, err)
			}
			if float64(dce.At) != kill.at {
				t.Fatalf("crash fired at t=%v, armed for t=%g", dce.At, kill.at)
			}

			lg, err := journal.Open(path)
			if err != nil {
				t.Fatalf("open crashed journal: %v", err)
			}
			if lg.Complete() {
				t.Fatal("crashed journal claims completion")
			}
			survived := len(lg.Records)
			survivedUnits := 0
			for _, r := range lg.Records {
				if r.Kind == journal.KindUnit {
					survivedUnits++
				}
			}
			if survived == 0 || survived >= totalRecords {
				t.Fatalf("crashed journal holds %d records, clean run wrote %d", survived, totalRecords)
			}
			if kill.split[0] != "" {
				journaled := map[string]bool{}
				for _, r := range lg.Records {
					if r.Kind == journal.KindUnit && r.Stage == "PB" {
						journaled[r.Unit] = true
					}
				}
				if !journaled[kill.split[0]] || journaled[kill.split[1]] {
					t.Fatalf("kill at t=%g journaled %s: %v, %s: %v; want only the first",
						kill.at, kill.split[0], journaled[kill.split[0]], kill.split[1], journaled[kill.split[1]])
				}
			}

			cfg.Obs = obs.New()
			rep, pl, err := ResumePipeline(ds, cfg, path)
			if err != nil {
				t.Fatalf("resume: %v", err)
			}

			// Zero re-execution: every journaled unit was replayed, only
			// the remainder ran for real, and the journal-records counter
			// (replayed + appended) matches the uninterrupted twin.
			st := rep.Journal
			if st == nil || !st.Resumed {
				t.Fatalf("resumed run journal stats: %+v", st)
			}
			if st.UnitsReplayed != survivedUnits {
				t.Errorf("replayed %d units, journal held %d", st.UnitsReplayed, survivedUnits)
			}
			if st.UnitsExecuted != totalUnits-survivedUnits {
				t.Errorf("re-executed %d units, want %d", st.UnitsExecuted, totalUnits-survivedUnits)
			}
			if st.RecordsReplayed != survived {
				t.Errorf("replayed %d records, journal held %d", st.RecordsReplayed, survived)
			}
			if st.RecordsReplayed+st.RecordsAppended != totalRecords {
				t.Errorf("replayed %d + appended %d records, clean run wrote %d",
					st.RecordsReplayed, st.RecordsAppended, totalRecords)
			}

			got := capture(t, rep, pl)
			if got.trace != want.trace {
				t.Errorf("Chrome trace differs from uninterrupted run (%d vs %d bytes)", len(got.trace), len(want.trace))
			}
			if got.metrics != want.metrics {
				t.Errorf("metrics differ from uninterrupted run:\n--- resumed\n%s\n--- clean\n%s", got.metrics, want.metrics)
			}
			if got.summary != want.summary {
				t.Errorf("summary differs from uninterrupted run")
			}
			if got.timeline != want.timeline {
				t.Errorf("timeline differs from uninterrupted run")
			}

			// The snapshot's Resumed marker is the one sanctioned delta;
			// with it cleared the snapshots must match byte-for-byte.
			if !rep.Snapshot.Resumed {
				t.Error("resumed run's snapshot lacks the resumed marker")
			}
			rep.Snapshot.Resumed = false
			var buf bytes.Buffer
			if err := rep.Snapshot.WriteJSON(&buf); err != nil {
				t.Fatal(err)
			}
			if buf.String() != want.snapshot {
				t.Errorf("snapshot differs from uninterrupted run beyond the resumed marker:\n--- resumed\n%s\n--- clean\n%s",
					buf.String(), want.snapshot)
			}

			// The continued journal ends up holding the same record
			// sequence the uninterrupted run wrote (header aside — its
			// digest covers the drivercrash rule).
			if body := journalBody(t, path); body != wantBody {
				t.Errorf("final journal body differs from uninterrupted run's")
			}
			final, err := journal.Open(path)
			if err != nil {
				t.Fatal(err)
			}
			if !final.Complete() {
				t.Error("resumed journal lacks the complete record")
			}
		})
	}
}

// TestResumeAfterTornTail is the bugfix acceptance: a crashed run
// whose journal tail is damaged the way real crashes damage it — half
// a record torn off, or the final record's newline lost — must still
// resume to a byte-identical report. The newline-less shape used to
// corrupt the file outright: the old reader accepted the tail as
// valid, and the O_APPEND writer fused the next record onto the same
// line.
func TestResumeAfterTornTail(t *testing.T) {
	ds, err := simdata.GenerateCached(simdata.Tiny())
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	base := chaosConfig()

	clean, plClean, err := journalRun(t, ds, base, filepath.Join(dir, "clean.journal"))
	if err != nil {
		t.Fatalf("clean run: %v", err)
	}
	want := capture(t, clean, plClean)
	wantBody := journalBody(t, filepath.Join(dir, "clean.journal"))

	sp := plClean.o.Tracer.Find(obs.KindStage, "PB")
	if sp == nil {
		t.Fatal("no PB stage span in clean run")
	}
	crashAt := float64(sp.Start.Add(sp.Duration() / 2))

	damage := []struct {
		name      string
		maim      func(t *testing.T, path string)
		truncated bool // expect truncated bytes (vs newline repair)
		recrash   bool // repair re-arms the drivercrash: needs a second resume
	}{
		// The group-commit crash shape: the batch write got its complete
		// lines down plus the start of one more record.
		{"torn-json-tail", func(t *testing.T, path string) {
			f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0o644)
			if err != nil {
				t.Fatal(err)
			}
			defer f.Close()
			if _, err := f.Write([]byte(`{"seq":999,"kind":"unit","vti`)); err != nil {
				t.Fatal(err)
			}
		}, true, false},
		// The fsync raced the crash: the final record's newline never
		// reached disk. This is the shape that used to fuse records.
		{"newline-less-tail", func(t *testing.T, path string) {
			st, err := os.Stat(path)
			if err != nil {
				t.Fatal(err)
			}
			if err := os.Truncate(path, st.Size()-1); err != nil {
				t.Fatal(err)
			}
		}, false, false},
		// Half the final record itself is gone. Repair drops it, which
		// rewinds the journal behind the armed drivercrash time, so the
		// crash faithfully fires once more at the re-reached checkpoint
		// before a second resume completes.
		{"torn-last-record", func(t *testing.T, path string) {
			b, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			// The final record starts at the last header line; no
			// payload line opens with `{"seq":`.
			last := bytes.LastIndex(b, []byte("\n{\"seq\":")) + 1
			keep := last + (len(b)-last)/2
			if err := os.Truncate(path, int64(keep)); err != nil {
				t.Fatal(err)
			}
		}, true, true},
	}
	for _, d := range damage {
		d := d
		t.Run(d.name, func(t *testing.T) {
			path := filepath.Join(dir, d.name+".journal")
			cfg := base
			plan, err := faults.ParseSpec(fmt.Sprintf("drivercrash:at=%g", crashAt))
			if err != nil {
				t.Fatal(err)
			}
			cfg.FaultPlan = plan
			cfg.FaultSeed = 7
			_, _, err = journalRun(t, ds, cfg, path)
			var dce *DriverCrashError
			if !errors.As(err, &dce) {
				t.Fatalf("crash run returned %v, want DriverCrashError", err)
			}
			survived := len(mustInspect(t, path).Records)

			d.maim(t, path)

			cfg.Obs = obs.New()
			rep, pl, err := ResumePipeline(ds, cfg, path)
			if d.recrash {
				if !errors.As(err, &dce) {
					t.Fatalf("resume over %s returned %v, want the re-armed drivercrash", d.name, err)
				}
				cfg.Obs = obs.New()
				rep, pl, err = ResumePipeline(ds, cfg, path)
			}
			if err != nil {
				t.Fatalf("resume over %s: %v", d.name, err)
			}
			st := rep.Journal
			if st == nil || !st.Resumed {
				t.Fatalf("resumed stats: %+v", st)
			}
			if !d.recrash {
				// Single-resume shapes surface the repair in the stats
				// (the re-crash shapes report it on their first, crashed
				// attempt instead).
				if !st.TailRepaired {
					t.Fatalf("resumed stats do not report the tail repair: %+v", st)
				}
				if d.truncated {
					if st.TailTruncatedBytes == 0 {
						t.Errorf("torn tail reported 0 truncated bytes")
					}
					if st.RecordsReplayed != survived {
						t.Errorf("replayed %d records, want %d", st.RecordsReplayed, survived)
					}
				} else if st.TailTruncatedBytes != 0 {
					t.Errorf("newline repair truncated %d bytes", st.TailTruncatedBytes)
				}
			}

			got := capture(t, rep, pl)
			if got.trace != want.trace || got.summary != want.summary || got.timeline != want.timeline {
				t.Error("resumed artifacts differ from uninterrupted run's")
			}
			if got.metrics != want.metrics {
				t.Errorf("metrics differ:\n--- resumed\n%s\n--- clean\n%s", got.metrics, want.metrics)
			}
			if body := journalBody(t, path); body != wantBody {
				t.Error("final journal body differs from uninterrupted run's")
			}
			if vr, err := journal.Verify(path); err != nil || !vr.Clean() {
				t.Errorf("final journal does not verify: %v %s", err, vr)
			}
		})
	}
}

// mustInspect opens a journal tolerantly or fails the test.
func mustInspect(t *testing.T, path string) *journal.Log {
	t.Helper()
	lg, err := journal.Inspect(path)
	if err != nil {
		t.Fatal(err)
	}
	return lg
}

// TestResumeOfCompleteJournal replays a finished journal end to end:
// nothing re-executes, nothing is appended, and the artifacts still
// match the original run.
func TestResumeOfCompleteJournal(t *testing.T) {
	ds, err := simdata.GenerateCached(simdata.Tiny())
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "run.journal")
	cfg := chaosConfig()
	clean, plClean, err := journalRun(t, ds, cfg, path)
	if err != nil {
		t.Fatal(err)
	}
	want := capture(t, clean, plClean)

	cfg.Obs = obs.New()
	rep, pl, err := ResumePipeline(ds, cfg, path)
	if err != nil {
		t.Fatalf("resume of complete journal: %v", err)
	}
	st := rep.Journal
	if st == nil || st.UnitsExecuted != 0 || st.RecordsAppended != 0 {
		t.Fatalf("full replay ran real work: %+v", st)
	}
	if st.RecordsReplayed != clean.Journal.RecordsAppended {
		t.Fatalf("replayed %d records, original wrote %d", st.RecordsReplayed, clean.Journal.RecordsAppended)
	}
	got := capture(t, rep, pl)
	if got.trace != want.trace || got.summary != want.summary {
		t.Error("full replay diverged from original run")
	}
}

// TestResumeRejectsConfigDrift pins the fail-fast on resuming under a
// different configuration than the one that wrote the journal.
func TestResumeRejectsConfigDrift(t *testing.T) {
	ds, err := simdata.GenerateCached(simdata.Tiny())
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "run.journal")
	cfg := chaosConfig()
	if _, _, err := journalRun(t, ds, cfg, path); err != nil {
		t.Fatal(err)
	}

	for _, c := range []struct {
		name  string
		drift func(cfg *Config)
	}{
		{"assemblers", func(cfg *Config) { cfg.Assemblers = []string{"velvet"} }},
		{"retry-PB", func(cfg *Config) { cfg.Retry.PB.MaxRetries = 9 }},
	} {
		t.Run(c.name, func(t *testing.T) {
			drifted := cfg
			c.drift(&drifted)
			drifted.Obs = obs.New()
			_, _, err := ResumePipeline(ds, drifted, path)
			if err == nil || !strings.Contains(err.Error(), "journal belongs to config") {
				t.Fatalf("resume under drifted config returned %v, want config-digest mismatch", err)
			}
		})
	}
}

// TestResumeRefusesForgedPrefix forges one thing in a finished journal
// and rewrites it through a fresh writer, so the hash chain still
// verifies: only replaying the prefix against the re-executed run can
// tell. Every forgery must make the resume fail, naming the first
// forged record's seq.
func TestResumeRefusesForgedPrefix(t *testing.T) {
	ds, err := simdata.GenerateCached(simdata.Tiny())
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()

	// finished is a run's config, its finished journal's records and its
	// own error, which an unforged resume reproduces.
	type finished struct {
		cfg  Config
		recs []journal.Record
		err  string
	}
	finish := func(name string, cfg Config) *finished {
		path := filepath.Join(dir, name+".journal")
		_, _, runErr := journalRun(t, ds, cfg, path)
		lg, err := journal.Open(path)
		if err != nil {
			t.Fatal(err)
		}
		if !lg.Complete() {
			t.Fatalf("%s journal is not finished", name)
		}
		f := &finished{cfg: cfg, recs: lg.Records}
		if runErr != nil {
			f.err = runErr.Error()
		}
		return f
	}
	complete := finish("complete", chaosConfig())
	cutoff := chaosConfig()
	cutoff.CancelAt = cleanChaosTTC(t) / 2
	cancelled := finish("cancelled", cutoff)

	// first returns the index of the first record of kind for which ok
	// holds.
	first := func(t *testing.T, recs []journal.Record, kind string, ok func(i int) bool) int {
		for i, r := range recs {
			if r.Kind == kind && ok(i) {
				return i
			}
		}
		t.Fatalf("journal holds no suitable %s record", kind)
		return -1
	}
	always := func(int) bool { return true }

	for _, c := range []struct {
		name string
		run  *finished
		// forge edits recs in place and returns the index of the first
		// record it changed.
		forge func(t *testing.T, recs []journal.Record) int
	}{
		{"stage-end-digest", complete, func(t *testing.T, recs []journal.Record) int {
			i := first(t, recs, journal.KindStageEnd, func(i int) bool { return recs[i].Digest != "" })
			recs[i].Digest = strings.Repeat("0", len(recs[i].Digest))
			return i
		}},
		{"unit-vtime", complete, func(t *testing.T, recs []journal.Record) int {
			i := first(t, recs, journal.KindUnit, always)
			recs[i].VTime++
			return i
		}},
		{"cancelled-note", cancelled, func(t *testing.T, recs []journal.Record) int {
			i := first(t, recs, journal.KindCancelled, always)
			recs[i].Note = "forged"
			return i
		}},
		{"complete-note", complete, func(t *testing.T, recs []journal.Record) int {
			i := first(t, recs, journal.KindComplete, always)
			recs[i].Note = "forged"
			return i
		}},
		{"header-seed", complete, func(t *testing.T, recs []journal.Record) int {
			recs[0].Seed++
			return 0
		}},
		{"swapped-units", complete, func(t *testing.T, recs []journal.Record) int {
			i := first(t, recs, journal.KindUnit, func(i int) bool {
				return i+1 < len(recs) && recs[i+1].Kind == journal.KindUnit
			})
			recs[i], recs[i+1] = recs[i+1], recs[i]
			return i
		}},
	} {
		t.Run(c.name, func(t *testing.T) {
			recs := append([]journal.Record(nil), c.run.recs...)
			seq := c.forge(t, recs)
			path := rewriteJournal(t, recs)

			cfg := c.run.cfg
			cfg.Obs = obs.New()
			_, _, err := ResumePipeline(ds, cfg, path)
			if err == nil || err.Error() == c.run.err || !strings.Contains(err.Error(), fmt.Sprintf("record %d ", seq)) {
				t.Fatalf("resume of a journal forged at record %d returned %v, want an error naming that record", seq, err)
			}
		})
	}
}

// rewriteJournal writes recs through a fresh writer, which re-chains
// them, and returns the file's path.
func rewriteJournal(t *testing.T, recs []journal.Record) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "forged.journal")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	w := journal.NewWriter(f)
	for _, rec := range recs {
		if _, err := w.Append(rec); err != nil {
			t.Fatal(err)
		}
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	return path
}

// TestRefusedRunJournalResumes: a run refused before its first stage
// still checkpoints its header first, so its journal reads back
// cleanly and resumes to the same refusal.
func TestRefusedRunJournalResumes(t *testing.T) {
	ds, err := simdata.GenerateCached(simdata.Tiny())
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		name   string
		refuse func(cfg *Config)
	}{
		{"unknown-assembler", func(cfg *Config) { cfg.Assemblers = []string{"bogus"} }},
		{"conventional-serverless", func(cfg *Config) { cfg.Pattern, cfg.Backends.PB = Conventional, cloud.Serverless }},
	} {
		t.Run(c.name, func(t *testing.T) {
			cfg := chaosConfig()
			c.refuse(&cfg)
			path := filepath.Join(t.TempDir(), "refused.journal")
			_, _, runErr := journalRun(t, ds, cfg, path)
			if runErr == nil {
				t.Fatal("refused config ran")
			}
			if lg := mustInspect(t, path); lg.Repair != nil || !lg.Complete() {
				t.Fatalf("refused run's journal: repair %v, complete %t", lg.Repair, lg.Complete())
			}
			cfg.Obs = obs.New()
			if _, _, err := ResumePipeline(ds, cfg, path); err == nil || err.Error() != runErr.Error() {
				t.Fatalf("resume of the refused run returned %v, want %v", err, runErr)
			}
		})
	}
}

// TestResumedRefusalReportsForgedComplete: a resume that fails on its
// own still reports a complete record it does not match. The refusal's
// journal has its complete note forged under an intact chain; the
// resume's error is the refusal and the drift, naming the forged seq.
func TestResumedRefusalReportsForgedComplete(t *testing.T) {
	ds, err := simdata.GenerateCached(simdata.Tiny())
	if err != nil {
		t.Fatal(err)
	}
	cfg := chaosConfig()
	cfg.Pattern, cfg.Backends.PB = Conventional, cloud.Serverless
	path := filepath.Join(t.TempDir(), "refused.journal")
	if _, _, err := journalRun(t, ds, cfg, path); !errors.Is(err, errConventionalServerless) {
		t.Fatalf("run returned %v, want the conventional-serverless refusal", err)
	}
	lg, err := journal.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	last := len(lg.Records) - 1
	if lg.Records[last].Kind != journal.KindComplete {
		t.Fatalf("refused run's journal ends in a %s record", lg.Records[last].Kind)
	}
	lg.Records[last].Note = "forged"
	forged := rewriteJournal(t, lg.Records)

	cfg.Obs = obs.New()
	_, _, err = ResumePipeline(ds, cfg, forged)
	if !errors.Is(err, errConventionalServerless) || !strings.Contains(err.Error(), fmt.Sprintf("record %d ", last)) {
		t.Fatalf("resume of the forged refusal returned %v, want the refusal and a drift naming record %d", err, last)
	}
}

// TestDriverCrashWithoutJournal: the fault class works standalone —
// the run dies with a DriverCrashError even when nothing is journaled
// (there is just nothing to resume from).
func TestDriverCrashWithoutJournal(t *testing.T) {
	ds, err := simdata.GenerateCached(simdata.Tiny())
	if err != nil {
		t.Fatal(err)
	}
	cfg := chaosConfig()
	plan, err := faults.ParseSpec("drivercrash:at=1")
	if err != nil {
		t.Fatal(err)
	}
	cfg.FaultPlan = plan
	pl := New(cfg)
	_, err = pl.Run(ds)
	var dce *DriverCrashError
	if !errors.As(err, &dce) {
		t.Fatalf("got %v, want DriverCrashError", err)
	}
}

// TestChaosDriverCrashResumeSoak races driver loss against worker
// faults across seeds: each cell runs under unit flakes, is killed at
// a seed-dependent virtual time, resumed, and must converge on the
// same bytes as its crash-free twin.
func TestChaosDriverCrashResumeSoak(t *testing.T) {
	ds, err := simdata.GenerateCached(simdata.Tiny())
	if err != nil {
		t.Fatal(err)
	}
	seeds := 6
	if testing.Short() {
		seeds = 2
	}
	dir := t.TempDir()
	const workerFaults = "unitflake:p=0.6,n=2"
	type cell struct {
		wantTrace, gotTrace string
		crashed             bool
		stats               JournalStats
	}
	results, mapErr := sweep.Map(seeds, func(i int) (cell, error) {
		seed := uint64(i + 1)
		var c cell

		twin := chaosConfig()
		plan, err := faults.ParseSpec(workerFaults)
		if err != nil {
			return c, err
		}
		twin.FaultPlan = plan
		twin.FaultSeed = seed
		twinPath := filepath.Join(dir, fmt.Sprintf("twin-%d.journal", i))
		_, plTwin, err := journalRun(t, ds, twin, twinPath)
		if err != nil {
			return c, fmt.Errorf("seed %d twin: %w", seed, err)
		}
		var buf bytes.Buffer
		if err := plTwin.o.Tracer.WriteChromeTrace(&buf); err != nil {
			return c, err
		}
		c.wantTrace = buf.String()

		// Kill somewhere in the run; a seed-scaled time keeps the kill
		// point roaming across stages without consulting a real clock.
		crashAt := 400 * float64(i+1)
		cfg := twin
		plan, err = faults.ParseSpec(fmt.Sprintf("%s;drivercrash:at=%g", workerFaults, crashAt))
		if err != nil {
			return c, err
		}
		cfg.FaultPlan = plan
		path := filepath.Join(dir, fmt.Sprintf("crash-%d.journal", i))
		rep, pl, err := journalRun(t, ds, cfg, path)
		var dce *DriverCrashError
		switch {
		case errors.As(err, &dce):
			c.crashed = true
			cfg.Obs = obs.New()
			rep, pl, err = ResumePipeline(ds, cfg, path)
			if err != nil {
				return c, fmt.Errorf("seed %d resume: %w", seed, err)
			}
		case err != nil:
			return c, fmt.Errorf("seed %d crash run: %w", seed, err)
		}
		c.stats = *rep.Journal
		buf.Reset()
		if err := pl.o.Tracer.WriteChromeTrace(&buf); err != nil {
			return c, err
		}
		c.gotTrace = buf.String()
		return c, nil
	}, sweep.Options{Workers: runtime.GOMAXPROCS(0)})
	if mapErr != nil {
		t.Fatal(mapErr)
	}
	var crashed int
	for i, c := range results {
		if c.gotTrace != c.wantTrace {
			t.Errorf("seed %d: resumed trace differs from crash-free twin", i+1)
		}
		if c.crashed {
			crashed++
			if !c.stats.Resumed || c.stats.RecordsReplayed == 0 {
				t.Errorf("seed %d: resume replayed nothing: %+v", i+1, c.stats)
			}
		}
	}
	if crashed == 0 {
		t.Error("no cell actually exercised a driver crash")
	}
	t.Logf("%d/%d cells crashed and resumed", crashed, len(results))
}

// TestResumeTakesJournaledMetrics: a finished run's complete record
// carries its DETONATE scores, and a resume of that journal reports
// them instead of scoring again; a resume whose journal lacks the
// record scores live. Resuming against a dataset whose expression
// weights were dropped tells the two apart: only a live evaluation
// sees the change.
func TestResumeTakesJournaledMetrics(t *testing.T) {
	ds, err := simdata.GenerateCached(simdata.Tiny())
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	cfg := tinyConfig()
	path := filepath.Join(dir, "run.journal")
	orig, _, err := journalRun(t, ds, cfg, path)
	if err != nil {
		t.Fatal(err)
	}
	uniform := *ds
	uniform.Expression = nil
	live, err := Run(&uniform, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if *live.Metrics == *orig.Metrics {
		t.Fatal("dropping the expression weights left the scores unchanged; the test cannot tell a replay from a live evaluation")
	}

	// Everything but the complete record, for the live-scoring resume.
	full, err := journal.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	cut := filepath.Join(dir, "cut.journal")
	w, err := journal.Create(cut)
	if err != nil {
		t.Fatal(err)
	}
	for _, rec := range full.Records[:len(full.Records)-1] {
		if _, err := w.Append(rec); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}

	for _, c := range []struct {
		path string
		want *Report
	}{{path, orig}, {cut, live}} {
		cfg.Obs = obs.New()
		rep, err := Resume(&uniform, cfg, c.path)
		if err != nil {
			t.Fatal(err)
		}
		if rep.Journal.UnitsExecuted != 0 || *rep.Metrics != *c.want.Metrics {
			t.Errorf("%s: resumed with %d units executed and scores %+v, want none executed and %+v",
				filepath.Base(c.path), rep.Journal.UnitsExecuted, *rep.Metrics, *c.want.Metrics)
		}
	}
	if lg, err := journal.Open(cut); err != nil || !lg.Complete() || len(lg.Records[len(lg.Records)-1].Payload) == 0 {
		t.Errorf("the live-scoring resume did not journal its scores in a complete record (%v)", err)
	}
}
