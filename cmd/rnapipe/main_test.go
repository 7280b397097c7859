package main

import (
	"bytes"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite golden files")

// TestPlanAndFrontierPins builds rnapipe and pins the stdout of -plan
// and -frontier on the tiny profile for flag sets covering every
// run-describing flag family: scheme, pattern, backends, faults,
// deadline and instance type. Neither mode runs the pipeline, so the
// pins hold what the flags decode to, through the planner's figures.
// Rewrite testdata/pins.golden with -update only for a deliberate
// change to what the flags mean.
func TestPlanAndFrontierPins(t *testing.T) {
	bin := filepath.Join(t.TempDir(), "rnapipe")
	if out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	flagSets := [][]string{
		{},
		{"-scheme", "S1", "-pattern", "static"},
		{"-pattern", "conventional", "-instance-type", "r3.2xlarge"},
		{"-backends", "spot", "-seed", "9"},
		{"-faults", "crash:p=0.1,after=600;slowxfer:x=0.5", "-seed", "7"},
		{"-deadline", "1h30m", "-retry-budget", "4"},
		{"-pattern", "static", "-instance-type", "r3.xlarge", "-assemblers", "ray,velvet", "-contrail-nodes", "8"},
	}
	var got bytes.Buffer
	for _, fs := range flagSets {
		for _, mode := range []string{"-plan", "-frontier"} {
			args := append([]string{"-profile", "tiny", mode}, fs...)
			cmd := exec.Command(bin, args...)
			var stderr bytes.Buffer
			cmd.Stderr = &stderr
			out, err := cmd.Output()
			if err != nil {
				t.Fatalf("rnapipe %s: %v\n%s", strings.Join(args, " "), err, stderr.Bytes())
			}
			fmt.Fprintf(&got, "== rnapipe %s\n%s", strings.Join(args, " "), out)
		}
	}
	path := filepath.Join("testdata", "pins.golden")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), want) {
		t.Errorf("rnapipe output moved; got:\n%s", got.Bytes())
	}
}
