package gateway

import (
	"bytes"
	"io"
	"net/http"
	"path/filepath"
	"runtime"
	"testing"

	"rnascale/internal/core"
	"rnascale/internal/journal"
	"rnascale/internal/obs"
	"rnascale/internal/seq"
	"rnascale/internal/simdata"
)

// getBody returns a GET's status and body.
func getBody(t *testing.T, url string) (int, []byte) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, b
}

// TestFinishedRunServesDirectRunBytes: a finished run serves the bytes
// it rendered when it finished, and they are the transcripts and trace
// of the same request run directly under its own journal.
func TestFinishedRunServesDirectRunBytes(t *testing.T) {
	dir := t.TempDir()
	s, ts := newJournaledServer(t, dir)
	req := RunRequest{Profile: "tiny", Assemblers: []string{"trinity"}, Evaluate: true}
	view := submitRun(t, ts, req)
	s.runsWG.Wait()

	cfg, prof, err := req.Config()
	if err != nil {
		t.Fatal(err)
	}
	ds, err := simdata.GenerateCached(prof)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Obs = obs.New()
	w, err := journal.Create(filepath.Join(t.TempDir(), "direct.journal"))
	if err != nil {
		t.Fatal(err)
	}
	cfg.Journal = w
	rep, err := core.Run(ds, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	var fasta, trace bytes.Buffer
	if err := seq.WriteFasta(&fasta, rep.Transcripts, 80); err != nil {
		t.Fatal(err)
	}
	if err := cfg.Obs.Tracer.WriteChromeTrace(&trace); err != nil {
		t.Fatal(err)
	}
	if fasta.Len() == 0 {
		t.Fatal("the direct run assembled no transcripts")
	}

	for _, c := range []struct {
		sub  string
		want []byte
	}{{"transcripts", fasta.Bytes()}, {"trace", trace.Bytes()}} {
		code, got := getBody(t, ts.URL+"/api/runs/"+view.ID+"/"+c.sub)
		if code != http.StatusOK || !bytes.Equal(got, c.want) {
			t.Errorf("%s of a finished run: %d, %d bytes; want 200 and the direct run's %d bytes",
				c.sub, code, len(got), len(c.want))
		}
	}
}

// TestFinishedRunRetention: a finished run keeps its view and the two
// artifacts it serves, not its report, span tree or journal writer, so
// a burst of journaled runs grows the live heap by a few KiB a run.
// Not parallel: it reads the process-wide heap.
func TestFinishedRunRetention(t *testing.T) {
	s, ts := newJournaledServer(t, t.TempDir())
	req := RunRequest{Profile: "tiny", Assemblers: []string{"trinity"}}
	// Warm-up runs memoize the dataset and the handler's connections.
	for i := 0; i < 4; i++ {
		submitRun(t, ts, req)
	}
	s.runsWG.Wait()
	heap := func() int64 {
		runtime.GC()
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return int64(ms.HeapAlloc)
	}
	before := heap()
	const runs = 32
	for i := 0; i < runs; i++ {
		submitRun(t, ts, req)
	}
	s.runsWG.Wait()
	per := (heap() - before) / runs
	t.Logf("%d bytes of live heap per finished run", per)
	if per > 32<<10 {
		t.Errorf("each finished run holds %d bytes of live heap, want at most 32 KiB", per)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, id := range s.order {
		if rn := s.runs[id]; rn.view.Status != StatusDone || rn.cfg.Obs != nil || rn.cfg.Journal != nil || rn.trace == nil {
			t.Fatalf("run %s: status %s, holds obs %t, journal %t, trace %d bytes; want done with only its trace and transcripts",
				id, rn.view.Status, rn.cfg.Obs != nil, rn.cfg.Journal != nil, len(rn.trace))
		}
	}
}
