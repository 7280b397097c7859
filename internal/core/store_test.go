package core

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"path/filepath"
	"strings"
	"testing"

	"rnascale/internal/cluster"
	"rnascale/internal/simdata"
)

// storeManifest renders a shared store as sorted "path sha256 size"
// lines — what a stage's pilot would find on its filesystem.
func storeManifest(t *testing.T, s *cluster.SharedStore) string {
	t.Helper()
	var b strings.Builder
	for _, path := range s.List("") {
		data, err := s.Get(path)
		if err != nil {
			t.Fatal(err)
		}
		fmt.Fprintf(&b, "%s %x %d\n", path, sha256.Sum256(data), len(data))
	}
	return b.String()
}

// pilotManifests returns the manifests of a finished run's PA, PB and
// PC pilot stores, in stage order.
func pilotManifests(t *testing.T, pl *Pipeline) []string {
	t.Helper()
	pilots := pl.pm.Pilots()
	if len(pilots) != 3 {
		t.Fatalf("run used %d pilots, want PA, PB, PC", len(pilots))
	}
	var out []string
	for _, p := range pilots {
		out = append(out, storeManifest(t, p.Cluster.Store()))
	}
	return out
}

// TestStoreManifest pins what a run stages on its pilots' shared
// filesystems — no other test reads a staged file, so a missing or
// stale data/clean.k31.sfa would otherwise pass. The manifests were
// recorded before the store started sharing blobs between pilots and
// before Contrail's SFA rendering was hoisted to once per run; they
// must also be what a resume of the run's journal re-stages.
func TestStoreManifest(t *testing.T) {
	ds, err := simdata.GenerateCached(simdata.Tiny())
	if err != nil {
		t.Fatal(err)
	}
	kmers := []int{19, 21, 23, 25, 27, 29, 31}
	// SHA-256 of each stage store's manifest text, PA, PB, PC.
	want := map[MatchingScheme][3]string{
		S1: {"5ce591c996dfc27c02d05c329171165cbd216b08084b38b8e5a23240648b0e44",
			"1425dcaa593a54ff1d358b76d04a410dbd0bd0e194e13cc3c65408714999dc98",
			"a2d13d9c9a3459adec5f5f4a16230c3afe872d0b1500c830e9a05f6ff98fc135"},
		S2: {"5ce591c996dfc27c02d05c329171165cbd216b08084b38b8e5a23240648b0e44",
			"1425dcaa593a54ff1d358b76d04a410dbd0bd0e194e13cc3c65408714999dc98",
			"a2d13d9c9a3459adec5f5f4a16230c3afe872d0b1500c830e9a05f6ff98fc135"},
	}
	for _, scheme := range []MatchingScheme{S1, S2} {
		cfg := DefaultConfig()
		cfg.Assemblers = []string{"ray", "contrail"}
		cfg.Kmers = kmers
		cfg.Scheme = scheme
		path := filepath.Join(t.TempDir(), "run.journal")
		if _, pl, err := journalRun(t, ds, cfg, path); err != nil {
			t.Fatalf("%v: %v", scheme, err)
		} else {
			live := pilotManifests(t, pl)
			for i, m := range live {
				if got := fmt.Sprintf("%x", sha256.Sum256([]byte(m))); got != want[scheme][i] {
					t.Errorf("%v: stage %d store manifest digest %s, want %s:\n%s", scheme, i, got, want[scheme][i], m)
				}
			}

			// The seven SFA conversions are one rendering under seven names.
			pc := pl.pm.Pilots()[2].Cluster.Store()
			first, err := pc.Get(fmt.Sprintf("data/clean.k%d.sfa", kmers[0]))
			if err != nil || len(first) == 0 {
				t.Fatalf("%v: first SFA: %d bytes, %v", scheme, len(first), err)
			}
			for _, k := range kmers[1:] {
				sfa, err := pc.Get(fmt.Sprintf("data/clean.k%d.sfa", k))
				if err != nil || !bytes.Equal(sfa, first) {
					t.Errorf("%v: data/clean.k%d.sfa differs from k%d's (%v)", scheme, k, kmers[0], err)
				}
			}

			_, plResumed, err := ResumePipeline(ds, cfg, path)
			if err != nil {
				t.Fatalf("%v: resume: %v", scheme, err)
			}
			if st := plResumed.JournalStats(); st.UnitsExecuted != 0 {
				t.Fatalf("%v: resume executed %d units", scheme, st.UnitsExecuted)
			}
			for i, m := range pilotManifests(t, plResumed) {
				if m != live[i] {
					t.Errorf("%v: stage %d store differs between the live run and its resume:\nlive:\n%sresumed:\n%s", scheme, i, live[i], m)
				}
			}
		}
	}
}
