package core

import (
	"encoding/json"
	"strings"
	"testing"

	_ "rnascale/internal/assembler/all"
	"rnascale/internal/cloud"
)

func TestParseStageBackends(t *testing.T) {
	cases := []struct {
		in      string
		want    StageBackends
		wantErr bool
	}{
		{in: "", want: StageBackends{}},
		{in: "spot", want: StageBackends{PA: cloud.Spot, PB: cloud.Spot, PC: cloud.Spot}},
		{in: "PA=spot,PB=serverless", want: StageBackends{PA: cloud.Spot, PB: cloud.Serverless}},
		{in: "pb=faas, pc=od", want: StageBackends{PB: cloud.Serverless, PC: cloud.OnDemand}},
		{in: "PA=warp-drive", wantErr: true},
		{in: "PD=spot", wantErr: true},
		{in: "spot,serverless", wantErr: true},
		{in: "PA=spot,PA=od", wantErr: true},
		{in: "pc=spot, PC=spot", wantErr: true},
	}
	for _, c := range cases {
		got, err := ParseStageBackends(c.in)
		if c.wantErr {
			if err == nil {
				t.Errorf("ParseStageBackends(%q) = %v, want error", c.in, got)
			}
			continue
		}
		if err != nil {
			t.Errorf("ParseStageBackends(%q): %v", c.in, err)
			continue
		}
		if got != c.want {
			t.Errorf("ParseStageBackends(%q) = %v, want %v", c.in, got, c.want)
		}
	}
}

// FuzzParseStageBackends holds ParseStageBackends to never panicking
// and to reading back every assignment it accepts from its rendering:
// ParseStageBackends(b.String()) == b.
func FuzzParseStageBackends(f *testing.F) {
	for _, s := range []string{
		"", "spot", "od", "fn", "PA=spot,PB=serverless,PC=od", "pb=faas, pc=od",
		"PA=on-demand,PB=spot,PC=serverless", "PA=spot,PB=serverless",
		// Bad forms.
		"PA=warp-drive", "PD=spot", "spot,serverless", "PA=spot,PA=od", "PA", "=spot", ",", "PA=spot,",
	} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, s string) {
		b, err := ParseStageBackends(s)
		if err != nil {
			return
		}
		back, err := ParseStageBackends(b.String())
		if err != nil || back != b {
			t.Fatalf("%q parsed to %v, whose rendering parses to %v, %v", s, b, back, err)
		}
	})
}

func TestRunAllServerless(t *testing.T) {
	ds := tinyDS(t)
	cfg := tinyConfig()
	cfg.Backends = StageBackends{PA: cloud.Serverless, PB: cloud.Serverless, PC: cloud.Serverless}
	rep, err := Run(ds, cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, stage := range []string{"PA", "PB", "PC"} {
		s, ok := rep.Stage(stage)
		if !ok {
			t.Fatalf("missing stage %s", stage)
		}
		if !strings.HasPrefix(s.Pilot, "faas(") {
			t.Errorf("%s ran on %q, want a function runner", stage, s.Pilot)
		}
	}
	if rep.AssemblyNodes != 0 {
		t.Errorf("serverless PB reports %d assembly nodes, want 0", rep.AssemblyNodes)
	}
	if len(rep.Transcripts) == 0 {
		t.Fatal("no transcripts")
	}
	// The bill is function invocations only — no VM lines beyond the
	// per-tier fn-* entries.
	var fnLines, vmLines int
	for _, l := range rep.Bill {
		if strings.HasPrefix(l.Type, "fn-") {
			fnLines++
		} else {
			vmLines++
		}
	}
	if fnLines == 0 || vmLines != 0 {
		t.Errorf("bill has %d fn lines and %d VM lines, want only fn: %+v", fnLines, vmLines, rep.Bill)
	}
	if rep.CostUSD <= 0 {
		t.Errorf("cost %v", rep.CostUSD)
	}
}

func TestRunMixedBackendBoundaries(t *testing.T) {
	// VM PA under S2 (retained VMs) → serverless PB (retained VMs must
	// terminate: nothing adopts them) → VM PC (fresh boot on spot).
	ds := tinyDS(t)
	cfg := tinyConfig()
	cfg.Scheme = S2
	cfg.Backends = StageBackends{PB: cloud.Serverless, PC: cloud.Spot}
	rep, err := Run(ds, cfg)
	if err != nil {
		t.Fatal(err)
	}
	pb, _ := rep.Stage("PB")
	if !strings.HasPrefix(pb.Pilot, "faas(") {
		t.Errorf("PB ran on %q", pb.Pilot)
	}
	if !strings.Contains(pb.Note, "object store") {
		t.Errorf("PB note lacks the object-store transfer: %q", pb.Note)
	}
	pc, _ := rep.Stage("PC")
	if !strings.HasPrefix(pc.Pilot, "pilot.") {
		t.Errorf("PC ran on %q, want a VM pilot", pc.Pilot)
	}
	var sawSpot bool
	for _, l := range rep.Bill {
		if l.Backend == "spot" {
			sawSpot = true
		}
	}
	if !sawSpot {
		t.Errorf("no spot bill line after a spot PC: %+v", rep.Bill)
	}
	if len(rep.Transcripts) == 0 {
		t.Fatal("no transcripts")
	}
}

func TestRunSpotCheaperThanOnDemand(t *testing.T) {
	ds := tinyDS(t)
	base := tinyConfig()
	repOD, err := Run(ds, base)
	if err != nil {
		t.Fatal(err)
	}
	cfg := tinyConfig()
	cfg.Backends = StageBackends{PA: cloud.Spot, PB: cloud.Spot, PC: cloud.Spot}
	repSpot, err := Run(ds, cfg)
	if err != nil {
		t.Fatal(err)
	}
	// The default market walks well below the on-demand price and this
	// seed triggers no reclaims, so the spot run is a straight discount.
	if repSpot.CostUSD >= repOD.CostUSD {
		t.Errorf("spot $%.2f not cheaper than on-demand $%.2f", repSpot.CostUSD, repOD.CostUSD)
	}
	if len(repSpot.Transcripts) != len(repOD.Transcripts) {
		t.Errorf("spot run changed the biology: %d vs %d transcripts",
			len(repSpot.Transcripts), len(repOD.Transcripts))
	}
}

func TestRunConventionalServerlessRejected(t *testing.T) {
	ds := tinyDS(t)
	cfg := tinyConfig()
	cfg.Pattern = Conventional
	cfg.Backends = StageBackends{PB: cloud.Serverless}
	if _, err := Run(ds, cfg); err == nil || !strings.Contains(err.Error(), "conventional") {
		t.Fatalf("conventional+serverless accepted (err=%v)", err)
	}
}

func TestRunBackendsDeterministic(t *testing.T) {
	ds := tinyDS(t)
	cfg := tinyConfig()
	cfg.Scheme = S2
	cfg.Backends = StageBackends{PA: cloud.Spot, PB: cloud.Serverless, PC: cloud.Spot}
	cfg.FaultSeed = 7
	snap := func() string {
		rep, err := Run(ds, cfg)
		if err != nil {
			t.Fatal(err)
		}
		b, err := json.Marshal(rep)
		if err != nil {
			t.Fatal(err)
		}
		return string(b)
	}
	if a, b := snap(), snap(); a != b {
		t.Error("same-seed backend runs diverged")
	}
}
