package main

import (
	"bytes"
	"crypto/sha256"
	"embed"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"

	"rnascale/internal/core"
	"rnascale/internal/detonate"
	"rnascale/internal/seq"
)

// runDigest is everything about a pipeline run that must not move
// while host time drops: the virtual-time results (the paper's TTC
// and cost), the assembled transcripts and their DETONATE scores.
type runDigest struct {
	Outcome           string            `json:"outcome"`
	TTCSeconds        float64           `json:"ttcSeconds"`
	CostUSD           float64           `json:"costUSD"`
	Stages            []stageDigest     `json:"stages"`
	Kmers             []int             `json:"kmers"`
	Transcripts       int               `json:"transcripts"`
	TranscriptsSHA256 string            `json:"transcriptsSHA256"`
	Detonate          *detonate.Metrics `json:"detonate,omitempty"`
}

type stageDigest struct {
	Name           string  `json:"name"`
	VirtualSeconds float64 `json:"virtualSeconds"`
}

func fastaSHA256(recs []seq.FastaRecord) (string, error) {
	var buf bytes.Buffer
	if err := seq.WriteFasta(&buf, recs, 80); err != nil {
		return "", err
	}
	sum := sha256.Sum256(buf.Bytes())
	return hex.EncodeToString(sum[:]), nil
}

// digestReport renders a report's digest as canonical JSON, the form
// digests are compared and committed in.
func digestReport(rep *core.Report) (string, error) {
	sha, err := fastaSHA256(rep.Transcripts)
	if err != nil {
		return "", err
	}
	d := runDigest{
		Outcome: string(rep.Outcome), TTCSeconds: rep.TTC.Seconds(), CostUSD: rep.CostUSD,
		Kmers: rep.KmersUsed, Transcripts: len(rep.Transcripts), TranscriptsSHA256: sha, Detonate: rep.Metrics,
	}
	for _, st := range rep.Stages {
		d.Stages = append(d.Stages, stageDigest{Name: st.Name, VirtualSeconds: st.Duration().Seconds()})
	}
	return canonicalJSON(d)
}

func canonicalJSON(v any) (string, error) {
	data, err := json.Marshal(v)
	return string(data), err
}

//go:embed golden/*.json
var goldenFS embed.FS

// goldenFile is bench/golden/<workload>.json: the digest of each kind
// of operation the workload performs at seed 0, full scale.
type goldenFile struct {
	Workload   string                     `json:"workload"`
	Seed       int64                      `json:"seed"`
	Operations map[string]json.RawMessage `json:"operations"`
}

// checker does the failure accounting for one run of a workload.
// With a golden (seed 0, full scale) every operation's digest must
// match the committed one; without, the first digest seen for each
// kind of operation becomes the reference, so the check degrades to
// rep-to-rep (and run-vs-resume) equality.
type checker struct {
	workload  string
	want      map[string]string
	hasGolden bool
	attempted int
	failed    int
}

func newChecker(workload string, useGolden bool) (*checker, error) {
	c := &checker{workload: workload, want: map[string]string{}}
	if !useGolden {
		return c, nil
	}
	data, err := goldenFS.ReadFile("golden/" + workload + ".json")
	if err != nil {
		return nil, err
	}
	var g goldenFile
	if err := json.Unmarshal(data, &g); err != nil {
		return nil, fmt.Errorf("golden/%s.json: %w", workload, err)
	}
	for kind, raw := range g.Operations {
		var buf bytes.Buffer
		if err := json.Compact(&buf, raw); err != nil {
			return nil, fmt.Errorf("golden/%s.json: %s: %w", workload, kind, err)
		}
		c.want[kind] = buf.String()
	}
	c.hasGolden = true
	return c, nil
}

// op accounts for one operation: err is its failure, digest its output.
func (c *checker) op(kind, digest string, err error) {
	if err == nil {
		err = c.match(kind, digest)
	}
	c.count(kind, err)
}

// run accounts for one pipeline run by its report's digest.
func (c *checker) run(rep *core.Report, err error) {
	var digest string
	if err == nil {
		digest, err = digestReport(rep)
	}
	c.op("run", digest, err)
}

// count accounts for one operation that has already been judged.
func (c *checker) count(kind string, err error) {
	c.attempted++
	if err != nil {
		c.failed++
		if c.failed <= 5 {
			fmt.Fprintf(os.Stderr, "bench: %s: operation %d (%s) FAILED: %v\n", c.workload, c.attempted, kind, err)
		}
	}
}

// match compares a digest with the reference for its kind.
func (c *checker) match(kind, digest string) error {
	want, ok := c.want[kind]
	if !ok {
		if c.hasGolden {
			return fmt.Errorf("no golden digest for operation kind %q", kind)
		}
		c.want[kind] = digest
		return nil
	}
	if digest != want {
		return fmt.Errorf("digest mismatch\n  got  %s\n  want %s", digest, want)
	}
	return nil
}

// writeGolden commits the reference digests of a run made without a
// golden (the first seen of each kind) as the new golden.
func (c *checker) writeGolden(dir string) error {
	g := goldenFile{Workload: c.workload, Operations: map[string]json.RawMessage{}}
	for kind, d := range c.want {
		g.Operations[kind] = json.RawMessage(d)
	}
	data, err := json.MarshalIndent(g, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, c.workload+".json"), append(data, '\n'), 0o644)
}
