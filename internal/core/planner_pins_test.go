package core

import (
	"fmt"
	"os"
	"strconv"
	"strings"
	"testing"

	"rnascale/internal/seq"
	"rnascale/internal/simdata"
)

const planPinsFile = "testdata/plan_pins.txt"

// planPinConfigs is the planner grid whose predictions are pinned:
// backendCandidates() plus the default-backend configurations of every
// scheme × pattern, for the paper's assembler set and the tiny one,
// with sharded pre-processing and a second condition.
func planPinConfigs() []Config {
	cfgs := backendCandidates()
	var condB seq.ReadSet
	for _, base := range []Config{DefaultConfig(), tinyConfig()} {
		for _, scheme := range []MatchingScheme{S1, S2} {
			for _, pattern := range []WorkflowPattern{Conventional, DistributedStatic, DistributedDynamic} {
				c := base
				c.Scheme, c.Pattern = scheme, pattern
				sharded := c
				sharded.ParallelPreprocessShards = 4
				twoCond := c
				twoCond.ConditionB = &condB
				cfgs = append(cfgs, c, sharded, twoCond)
			}
		}
	}
	return cfgs
}

// planLine renders a plan's numbers with exact float values.
func planLine(p Plan) string {
	exact := func(f float64) string { return strconv.FormatFloat(f, 'g', -1, 64) }
	return fmt.Sprintf("transfer=%s pa=%s pb=%s pc=%s ttc=%s cost=%s nodes=%d type=%s",
		exact(float64(p.Transfer)), exact(float64(p.PA)), exact(float64(p.PB)), exact(float64(p.PC)),
		exact(float64(p.TTC)), exact(p.CostUSD), p.AssemblyNodes, p.InstanceType)
}

// planPins renders every pinned prediction, one line per (profile,
// config).
func planPins() string {
	var b strings.Builder
	for _, prof := range []simdata.Profile{simdata.Tiny(), simdata.BGlumae(), simdata.PCrispa()} {
		ds := &simdata.Dataset{Profile: prof}
		for i, cfg := range planPinConfigs() {
			fmt.Fprintf(&b, "%s #%02d %s/%s %v [%s] shards=%d condB=%t: ", prof.Name, i, cfg.Scheme, cfg.Pattern,
				cfg.Assemblers, cfg.Backends, cfg.ParallelPreprocessShards, cfg.ConditionB != nil)
			p, err := Predict(ds, cfg)
			if err != nil {
				fmt.Fprintf(&b, "error %v\n", err)
				continue
			}
			fmt.Fprintf(&b, "%s\n", planLine(p))
		}
	}
	return b.String()
}

// TestPlanPins holds Predict bit-identical over the planner grid on
// every profile: the gateway prices each submission with it, so a
// moved plan moves an admission decision.
func TestPlanPins(t *testing.T) {
	want, err := os.ReadFile(planPinsFile)
	if err != nil {
		t.Fatal(err)
	}
	wantLines := strings.Split(string(want), "\n")
	gotLines := strings.Split(planPins(), "\n")
	if len(gotLines) != len(wantLines) {
		t.Fatalf("%d plan lines, pinned %d", len(gotLines), len(wantLines))
	}
	for i := range gotLines {
		if gotLines[i] != wantLines[i] {
			t.Errorf("plan moved:\n got %s\nwant %s", gotLines[i], wantLines[i])
		}
	}
}
