package gateway

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"testing"
)

var update = flag.Bool("update", false, "rewrite golden files")

// TestRequestConfigPins pins, per request, the JSON the pipeline's
// config digest hashes for buildConfig's config: the profile name and
// the Config with its run-local handles (cloud, obs, journal, resume)
// cleared. A drift here moves every journal header written for that
// request, so a resume across the change would be refused. Rewrite
// testdata/request_pins.golden with -update only for a deliberate
// change to what a request decodes to.
func TestRequestConfigPins(t *testing.T) {
	cases := []struct {
		name string
		req  RunRequest
	}{
		{"defaults", RunRequest{}},
		{"S1-static", RunRequest{Profile: "tiny", Scheme: "S1", Pattern: "static"}},
		{"conventional", RunRequest{Profile: "tiny", Scheme: "s2", Pattern: "Conventional"}},
		{"instance-type", RunRequest{Profile: "tiny", Pattern: "static", InstanceType: "r3.xlarge"}},
		{"contrail-nodes", RunRequest{Profile: "tiny", Assemblers: []string{"contrail"}, ContrailNodes: 8}},
		{"evaluate", RunRequest{Profile: "tiny", Assemblers: []string{"velvet", "ray"}, Evaluate: true}},
		{"faults-seed", RunRequest{Profile: "tiny", Faults: "crash:p=0.1,after=600;slowxfer:x=0.5", FaultSeed: 7}},
		{"seed-no-faults", RunRequest{Profile: "tiny", FaultSeed: 7}},
		{"deadline", RunRequest{Profile: "tiny", DeadlineSeconds: 5400}},
		{"retry-budget", RunRequest{Profile: "tiny", RetryBudget: 3}},
		{"cost-priority", RunRequest{Profile: "tiny", MaxCostUSD: 12.5, Priority: 2}},
	}
	var got bytes.Buffer
	for _, tc := range cases {
		cfg, ds, err := buildConfig(tc.req)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		cfg.Cloud, cfg.Obs, cfg.Journal, cfg.Resume = nil, nil, nil, nil
		b, err := json.Marshal(struct {
			Profile string
			Config  any
		}{ds.Profile.Name, cfg})
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		fmt.Fprintf(&got, "%s\t%s\n", tc.name, b)
	}
	path := filepath.Join("testdata", "request_pins.golden")
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
	gotLines, wantLines := bytes.Split(got.Bytes(), []byte("\n")), bytes.Split(want, []byte("\n"))
	if len(gotLines) != len(wantLines) {
		t.Fatalf("%d pinned lines, want %d", len(gotLines), len(wantLines))
	}
	for i := range gotLines {
		if !bytes.Equal(gotLines[i], wantLines[i]) {
			t.Errorf("pin moved:\n got %s\nwant %s", gotLines[i], wantLines[i])
		}
	}
}
