package faults

import "testing"

// FuzzParseSpec feeds the fault grammar arbitrary text. Parsing must
// never panic, and an accepted plan must render to a spec that parses
// back to exactly the same rules.
func FuzzParseSpec(f *testing.F) {
	for _, seed := range []string{
		"crash:at=900,vm=2",
		"reclaim:p=0.1,after=300,window=600",
		"bootfail:p=0.05",
		"bootfail:n=2",
		"unitflake:p=0.3,n=1",
		"slowxfer:x=0.5",
		"drivercrash:at=900",
		"crash:at=900;unitflake:p=0.2,n=1",
		"reclaim:p=0.5,notice=0",
		"slowxfer:x=NaN",
		"unitflake:p=NaN",
		"crash:at=Inf",
		"reclaim:p=0.1,window=-5,notice=-1",
		"crash:at=900,vm=-2",
		"unitflake:p=0.3,n=1.5",
		"bootfail:n=1e300",
		" ; crash : at = 1 ;;",
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, spec string) {
		plan, err := ParseSpec(spec)
		if err != nil {
			return
		}
		again, err := ParseSpec(plan.String())
		if err != nil {
			t.Fatalf("%q renders as %q, which does not parse: %v", spec, plan.String(), err)
		}
		if len(again.Rules) != len(plan.Rules) {
			t.Fatalf("%q renders as %q: %d rules, want %d", spec, plan.String(), len(again.Rules), len(plan.Rules))
		}
		for i, r := range plan.Rules {
			if again.Rules[i] != r {
				t.Fatalf("%q renders as %q: rule %d re-parses as %+v, want %+v", spec, plan.String(), i, again.Rules[i], r)
			}
		}
	})
}
