package main

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"testing"

	"rnascale/internal/experiments"
)

var update = flag.Bool("update", false, "rewrite golden files")

// TestQuickGolden pins every paper table and figure at quick scale:
// the output of `benchtab -experiment all` must equal
// testdata/quick.golden byte for byte. The full-scale twin,
// testdata/full.golden, is checked by `make paper-pins`. Rewrite the
// golden with -update only for a deliberate change to a paper value.
func TestQuickGolden(t *testing.T) {
	var got bytes.Buffer
	if err := write(&got, "all", experiments.Quick); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join("testdata", "quick.golden")
	if *update {
		if err := os.WriteFile(path, got.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	gotLines, wantLines := bytes.Split(got.Bytes(), []byte("\n")), bytes.Split(want, []byte("\n"))
	if len(gotLines) != len(wantLines) {
		t.Fatalf("%d lines, want %d", len(gotLines), len(wantLines))
	}
	for i := range gotLines {
		if !bytes.Equal(gotLines[i], wantLines[i]) {
			t.Errorf("line %d moved:\n got %s\nwant %s", i+1, gotLines[i], wantLines[i])
		}
	}
}

// TestUnknownExperiment checks that a name outside the table is an
// error that lists the known names, and prints nothing.
func TestUnknownExperiment(t *testing.T) {
	var got bytes.Buffer
	err := write(&got, "fig9", experiments.Quick)
	if err == nil || !bytes.Contains([]byte(err.Error()), []byte("ablations")) {
		t.Fatalf("err = %v, want an error listing the experiments", err)
	}
	if got.Len() != 0 {
		t.Errorf("printed %q before failing", got.String())
	}
}
