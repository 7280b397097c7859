package core

import (
	"encoding/json"
	"reflect"
	"strings"
	"testing"

	_ "rnascale/internal/assembler/all"
	"rnascale/internal/cloud"
	"rnascale/internal/faults"
	"rnascale/internal/simdata"
)

// TestRequestConfig maps each Request field to the Config field it
// sets, over DefaultConfig, and holds every refusal to one error style.
func TestRequestConfig(t *testing.T) {
	plan, err := faults.ParseSpec("crash:p=0.1,after=600")
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name    string
		req     Request
		profile string
		set     func(*Config)
	}{
		{"zero", Request{}, "tiny", func(*Config) {}},
		{"profile", Request{Profile: "pcrispa"}, "pcrispa", func(*Config) {}},
		{"assemblers", Request{Assemblers: []string{"velvet"}}, "tiny", func(c *Config) { c.Assemblers = []string{"velvet"} }},
		{"scheme", Request{Scheme: "s1"}, "tiny", func(c *Config) { c.Scheme = S1 }},
		{"static", Request{Pattern: "static"}, "tiny", func(c *Config) { c.Pattern = DistributedStatic }},
		{"conventional", Request{Pattern: "Conventional"}, "tiny", func(c *Config) { c.Pattern = Conventional }},
		{"instance type", Request{InstanceType: "r3.xlarge"}, "tiny", func(c *Config) { c.InstanceType = "r3.xlarge" }},
		{"contrail nodes", Request{ContrailNodes: 8}, "tiny", func(c *Config) { c.ContrailNodes = 8 }},
		{"mpi nodes", Request{MPINodes: 2}, "tiny", func(c *Config) { c.NodesPerMPIJob = 2 }},
		{"shards", Request{PreprocessShards: 4}, "tiny", func(c *Config) { c.ParallelPreprocessShards = 4 }},
		{"evaluate", Request{Evaluate: true}, "tiny", func(c *Config) { c.EvaluateAgainstTruth = true }},
		{"consensus", Request{Consensus: true}, "tiny", func(c *Config) { c.ConsensusMerge = true }},
		{"deadline", Request{DeadlineSeconds: 5400}, "tiny", func(c *Config) { c.Deadline = 5400 }},
		{"retry budget", Request{RetryBudget: 3}, "tiny", func(c *Config) { c.RetryBudget = 3 }},
		{"backends", Request{Backends: "PB=spot"}, "tiny", func(c *Config) { c.Backends.PB = cloud.Spot }},
		{"faults", Request{Faults: "crash:p=0.1,after=600", FaultSeed: 7}, "tiny", func(c *Config) { c.FaultPlan, c.FaultSeed = plan, 7 }},
		// The seed also drives the spot market, so it applies without faults.
		{"seed", Request{FaultSeed: 9}, "tiny", func(c *Config) { c.FaultSeed = 9 }},
		// Admission-only fields leave the Config alone.
		{"cost and priority", Request{MaxCostUSD: 12.5, Priority: 3}, "tiny", func(*Config) {}},
	}
	for _, tc := range cases {
		cfg, prof, err := tc.req.Config()
		if err != nil {
			t.Errorf("%s: %v", tc.name, err)
			continue
		}
		want := DefaultConfig()
		tc.set(&want)
		if !reflect.DeepEqual(cfg, want) {
			t.Errorf("%s: config\n %+v\nwant\n %+v", tc.name, cfg, want)
		}
		if prof.Name != tc.profile {
			t.Errorf("%s: profile %q, want %q", tc.name, prof.Name, tc.profile)
		}
	}

	refusals := map[string]Request{
		"unknown profile":       {Profile: "nope"},
		"unknown scheme":        {Scheme: "S9"},
		"unknown pattern":       {Pattern: "quantum"},
		"unknown assembler":     {Assemblers: []string{"nope"}},
		"unknown instance type": {InstanceType: "bogus.huge"},
		"negative deadline":     {DeadlineSeconds: -1},
		"negative cost":         {MaxCostUSD: -0.5},
		"negative budget":       {RetryBudget: -1},
		"negative nodes":        {ContrailNodes: -2},
		"negative mpi nodes":    {MPINodes: -1},
		"negative shards":       {PreprocessShards: -1},
		"bad backends":          {Backends: "PD=spot"},
		"bad fault spec":        {Faults: "meteor:p=1"},
	}
	for name, req := range refusals {
		cfg, _, err := req.Config()
		if err == nil {
			t.Errorf("%s: accepted as %+v", name, cfg)
			continue
		}
		if !strings.HasPrefix(err.Error(), "core: request: ") {
			t.Errorf("%s: error %q lacks the request prefix", name, err)
		}
	}
}

// FuzzRequestConfig decodes arbitrary JSON into a Request. Config must
// never panic, and an accepted request must survive a JSON round trip
// as an equal Request with an equal config digest. Config only names a
// profile, so no dataset is generated.
func FuzzRequestConfig(f *testing.F) {
	for _, s := range []string{
		`{}`,
		`{"profile":"tiny","assemblers":["velvet"]}`,
		`{"profile":"bglumae","scheme":"S1","pattern":"static","instanceType":"r3.2xlarge"}`,
		`{"pattern":"conventional","contrailNodes":8,"mpiNodes":2,"preprocessShards":4,"evaluate":true,"consensus":true}`,
		`{"faults":"crash:p=0.1,after=600;slowxfer:x=0.5","faultSeed":7}`,
		`{"deadlineSeconds":5400,"maxCostUSD":12.5,"retryBudget":3,"priority":-2}`,
		`{"backends":"PA=spot,PB=serverless","faultSeed":18446744073709551615}`,
		`{"assemblers":[]}`,
		// Refused forms.
		`{"profile":"nope"}`, `{"scheme":"S9"}`, `{"instanceType":"bogus.huge"}`,
		`{"deadlineSeconds":-1}`, `{"backends":"PD=spot"}`, `{"faults":"slowxfer:x=NaN"}`,
	} {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		var req Request
		if json.Unmarshal(body, &req) != nil {
			return
		}
		cfg, prof, err := req.Config()
		if err != nil {
			return
		}
		b, err := json.Marshal(req)
		if err != nil {
			t.Fatalf("accepted %+v does not encode: %v", req, err)
		}
		var back Request
		if err := json.Unmarshal(b, &back); err != nil || !reflect.DeepEqual(back, req) {
			t.Fatalf("%+v round-trips to %+v, %v", req, back, err)
		}
		backCfg, backProf, err := back.Config()
		if err != nil {
			t.Fatalf("round-tripped %+v refused: %v", back, err)
		}
		digest := func(cfg Config, prof simdata.Profile) string {
			d, err := configDigest(cfg, &simdata.Dataset{Profile: prof})
			if err != nil {
				t.Fatal(err)
			}
			return d
		}
		if digest(cfg, prof) != digest(backCfg, backProf) {
			t.Fatalf("%+v: config digest moved across a JSON round trip", req)
		}
	})
}
