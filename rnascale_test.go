// Integration tests against the public facade — what a downstream
// user of the library actually calls.
package rnascale_test

import (
	"slices"
	"strings"
	"testing"

	"rnascale"
	"rnascale/internal/assembler"
)

func TestPublicQuickstartFlow(t *testing.T) {
	ds, err := rnascale.GenerateDataset(rnascale.ProfileTiny)
	if err != nil {
		t.Fatal(err)
	}
	cfg := rnascale.DefaultConfig()
	cfg.ContrailNodes = 2
	cfg.EvaluateAgainstTruth = true
	rep, err := rnascale.Run(ds, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Transcripts) == 0 || rep.TTC <= 0 || rep.CostUSD <= 0 {
		t.Fatalf("degenerate report: %d transcripts, TTC %v, $%.2f",
			len(rep.Transcripts), rep.TTC, rep.CostUSD)
	}
	if rep.Metrics == nil || rep.Metrics.F1 <= 0 {
		t.Fatal("metrics missing")
	}
	if !strings.Contains(rep.Summary(), "S2") {
		t.Errorf("summary %q", rep.Summary())
	}
}

func TestPublicProfiles(t *testing.T) {
	for _, name := range []rnascale.ProfileName{
		rnascale.ProfileTiny, rnascale.ProfileBGlumae,
		rnascale.ProfilePCrispa, rnascale.ProfileBGlumaePaired,
	} {
		p, err := rnascale.LookupProfile(name)
		if err != nil {
			t.Errorf("%s: %v", name, err)
		}
		if p.GenomeSize <= 0 {
			t.Errorf("%s: empty profile", name)
		}
	}
	if _, err := rnascale.LookupProfile("bogus"); err == nil {
		t.Error("bogus profile resolved")
	}
}

func TestPublicAssemblerList(t *testing.T) {
	names := rnascale.Assemblers()
	want := []string{"abyss", "contrail", "oases", "ray", "trinity", "velvet"}
	if !slices.Equal(names, want) {
		t.Fatalf("assemblers %v, want %v", names, want)
	}
	var registered []string
	for _, a := range assembler.List() {
		registered = append(registered, a.Info().Name)
	}
	if !slices.Equal(names, registered) {
		t.Fatalf("assemblers %v, registry %v", names, registered)
	}
	// Every listed assembler must actually run end-to-end through the
	// pipeline as a single-assembler option.
	ds, err := rnascale.GenerateDataset(rnascale.ProfileTiny)
	if err != nil {
		t.Fatal(err)
	}
	for _, n := range names {
		cfg := rnascale.DefaultConfig()
		cfg.Assemblers = []string{n}
		cfg.ContrailNodes = 2
		rep, err := rnascale.Run(ds, cfg)
		if err != nil {
			t.Errorf("%s: %v", n, err)
			continue
		}
		if len(rep.Transcripts) == 0 {
			t.Errorf("%s: empty assembly", n)
		}
	}
}

func TestPublicSchemeAndPatternConstants(t *testing.T) {
	// The constants must round-trip through their string forms used in
	// reports and CLIs.
	if rnascale.S1.String() != "S1" || rnascale.S2.String() != "S2" {
		t.Error("scheme strings")
	}
	if rnascale.DistributedDynamic.String() != "distributed-dynamic" ||
		rnascale.Conventional.String() != "conventional" ||
		rnascale.DistributedStatic.String() != "distributed-static" {
		t.Error("pattern strings")
	}
}

func TestPublicDatasetGroundTruth(t *testing.T) {
	ds, err := rnascale.GenerateDataset(rnascale.ProfileTiny)
	if err != nil {
		t.Fatal(err)
	}
	if len(ds.Transcripts) == 0 || len(ds.Annotations) != len(ds.Transcripts) {
		t.Fatal("ground truth incomplete")
	}
	if len(ds.Expression) != len(ds.Transcripts) {
		t.Fatal("expression vector mismatched")
	}
}
