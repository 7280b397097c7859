package core

import (
	"crypto/sha256"
	"fmt"
	"sync/atomic"
	"testing"

	"rnascale/internal/assembler"
	"rnascale/internal/assembler/ray"
	"rnascale/internal/faults"
	"rnascale/internal/obs"
	"rnascale/internal/pilot"
)

// countingRay is Ray registered under another name, counting its
// Assemble calls.
type countingRay struct {
	ray.Ray
	calls atomic.Int64
}

func (c *countingRay) Info() assembler.Info {
	info := c.Ray.Info()
	info.Name = "countray"
	return info
}

func (c *countingRay) Assemble(req assembler.Request) (assembler.Result, error) {
	c.calls.Add(1)
	return c.Ray.Assemble(req)
}

var countRay = &countingRay{}

func init() { assembler.Register(countRay) }

// A unit that loses its node after its work ran comes back for another
// attempt, and the attempt must not assemble again. The plan reclaims
// both of PB's nodes and the first replacement while the two assembly
// units run: two retries, which used to cost two more assemblies. The
// artifacts are pinned to what that run produced before attempts
// shared the assembly.
func TestRetriedUnitAssemblesOnce(t *testing.T) {
	plan, err := faults.ParseSpec("reclaim:at=2760,vm=2;reclaim:at=2760,vm=3;reclaim:at=2760,vm=4")
	if err != nil {
		t.Fatal(err)
	}
	cfg := chaosConfig()
	cfg.Assemblers = []string{"countray"}
	cfg.FaultPlan = plan
	cfg.Obs = obs.New()
	countRay.calls.Store(0)
	rep, pl, _, err := runChaos(t, cfg)
	if err != nil {
		t.Fatalf("storm run did not complete: %v", err)
	}
	if retries := int(pl.Obs().Metrics.Counter(pilot.MetricRetries, "", nil).Value()); retries != 2 {
		t.Fatalf("the storm cost %d retries, want the 2 it was built for", retries)
	}
	if calls, units := countRay.calls.Load(), int64(len(rep.KmersUsed)); calls != units {
		t.Errorf("%d Assemble calls for %d assembly units", calls, units)
	}
	a := capture(t, rep, pl)
	for name, pin := range map[string][2]string{
		"report":  {a.snapshot, "37ae4452112225af37e4d8847f21c107554c8844927e479008fe55f54d2a8871"},
		"metrics": {a.metrics, "514ea00c8df7e9774a32b91ba2f528efa8f4665769f7e858d1a7964aa69c324b"},
		"trace":   {a.trace, "851c98c77b9bd52afd54991e83cc6d42cc954664621b254ffa26f221f02aaf50"},
	} {
		if got := fmt.Sprintf("%x", sha256.Sum256([]byte(pin[0]))); got != pin[1] {
			t.Errorf("%s digest %s, pinned %s", name, got, pin[1])
		}
	}
}
