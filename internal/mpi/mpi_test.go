package mpi

import (
	"fmt"
	"sort"
	"sync"
	"testing"

	"rnascale/internal/vclock"
)

func TestRunValidation(t *testing.T) {
	if _, err := Run(Config{Ranks: 0}, func(c *Comm) error { return nil }); err == nil {
		t.Error("zero ranks accepted")
	}
}

func TestRankAndSize(t *testing.T) {
	var mu sync.Mutex
	seen := map[int]bool{}
	res, err := Run(DefaultConfig(4), func(c *Comm) error {
		if c.Size() != 4 {
			return fmt.Errorf("size %d", c.Size())
		}
		mu.Lock()
		seen[c.Rank()] = true
		mu.Unlock()
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(seen) != 4 {
		t.Errorf("ranks seen: %v", seen)
	}
	if res.Elapsed != 0 {
		t.Errorf("no-op job elapsed %v", res.Elapsed)
	}
}

func TestErrorPropagation(t *testing.T) {
	_, err := Run(DefaultConfig(3), func(c *Comm) error {
		if c.Rank() == 1 {
			return fmt.Errorf("boom")
		}
		return nil
	})
	if err == nil {
		t.Fatal("rank error swallowed")
	}
}

func TestComputeAdvancesOnlyOwnClock(t *testing.T) {
	res, err := Run(DefaultConfig(3), func(c *Comm) error {
		c.Compute(vclock.Duration(c.Rank()) * 10)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Elapsed != 20 {
		t.Errorf("elapsed %v, want 20", res.Elapsed)
	}
	want := []vclock.Duration{0, 10, 20}
	for r, d := range res.PerRank {
		if d != want[r] {
			t.Errorf("rank %d clock %v, want %v", r, d, want[r])
		}
	}
}

func TestComputeUnits(t *testing.T) {
	res, _ := Run(DefaultConfig(1), func(c *Comm) error {
		c.ComputeUnits(500, 100) // 5 seconds
		return nil
	})
	if res.Elapsed != 5 {
		t.Errorf("elapsed %v", res.Elapsed)
	}
}

func TestSendRecvPayloadAndTiming(t *testing.T) {
	cfg := Config{
		Ranks: 2, RanksPerNode: 1,
		Inter: vclock.CommCost{Latency: 1, Bandwidth: 100},
		Intra: vclock.CommCost{},
	}
	res, err := Run(cfg, func(c *Comm) error {
		if c.Rank() == 0 {
			c.Compute(10)
			c.Send(1, "hello", 200) // transfer = 1 + 200/100 = 3s
			return nil
		}
		p, n := c.Recv(0)
		if p.(string) != "hello" || n != 200 {
			return fmt.Errorf("got %v %d", p, n)
		}
		// Receiver idles until arrival at t=13.
		if c.vt != 13 {
			return fmt.Errorf("receiver clock %v, want 13", c.vt)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Elapsed != 13 {
		t.Errorf("elapsed %v, want 13", res.Elapsed)
	}
	if res.Stats.Messages != 1 || res.Stats.BytesSent != 200 {
		t.Errorf("stats %+v", res.Stats)
	}
}

func TestRecvDoesNotRewindClock(t *testing.T) {
	cfg := DefaultConfig(2)
	_, err := Run(cfg, func(c *Comm) error {
		if c.Rank() == 0 {
			c.Send(1, 1, 8)
			return nil
		}
		c.Compute(1000) // receiver is far ahead of the message
		before := c.vt
		c.Recv(0)
		if c.vt != before {
			return fmt.Errorf("clock moved from %v to %v", before, c.vt)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestBarrierSynchronizesClocks(t *testing.T) {
	res, err := Run(DefaultConfig(4), func(c *Comm) error {
		c.Compute(vclock.Duration(c.Rank()) * 5)
		c.Barrier()
		if c.vt < 15 {
			return fmt.Errorf("rank %d clock %v below max", c.Rank(), c.vt)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	// All clocks equal after barrier.
	for _, d := range res.PerRank {
		if d != res.PerRank[0] {
			t.Errorf("clocks diverged: %v", res.PerRank)
		}
	}
}

func TestAllGather(t *testing.T) {
	_, err := Run(DefaultConfig(4), func(c *Comm) error {
		all := c.AllGather(c.Rank()*10, 8)
		if len(all) != 4 {
			return fmt.Errorf("len %d", len(all))
		}
		for i, v := range all {
			if v.(int) != i*10 {
				return fmt.Errorf("slot %d = %v", i, v)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestAllReduce(t *testing.T) {
	_, err := Run(DefaultConfig(4), func(c *Comm) error {
		sum := c.AllReduceInt(int64(c.Rank()+1), func(a, b int64) int64 { return a + b })
		if sum != 10 {
			return fmt.Errorf("sum %d", sum)
		}
		max := c.AllReduceFloat(float64(c.Rank()), func(a, b float64) float64 {
			if a > b {
				return a
			}
			return b
		})
		if max != 3 {
			return fmt.Errorf("max %v", max)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestAlltoAllRedistributes(t *testing.T) {
	_, err := Run(DefaultConfig(3), func(c *Comm) error {
		out := make([]any, 3)
		sizes := make([]int64, 3)
		for d := range out {
			out[d] = fmt.Sprintf("%d->%d", c.Rank(), d)
			sizes[d] = 10
		}
		in := c.AlltoAll(out, sizes)
		for s, v := range in {
			want := fmt.Sprintf("%d->%d", s, c.Rank())
			if v.(string) != want {
				return fmt.Errorf("rank %d from %d: %v want %s", c.Rank(), s, v, want)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestAlltoAllPanicsOnBadShape(t *testing.T) {
	_, err := Run(DefaultConfig(2), func(c *Comm) error {
		defer func() { recover() }()
		if c.Rank() == 0 {
			c.AlltoAll(make([]any, 1), make([]int64, 1)) // panics, recovered
		}
		// Rank 1 must not block forever: use no collective after.
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// The key scale-out property: with fixed total work, adding inter-node
// ranks reduces compute time but adds all-to-all latency, so speedup
// is sublinear and eventually reverses — the paper's Fig. 3 finding.
func TestScaleOutDiminishingReturns(t *testing.T) {
	const totalWork = 1e6 // work units
	const totalBytes = 64e6
	ttc := func(nodes int) vclock.Duration {
		cfg := Config{
			Ranks:        nodes,
			RanksPerNode: 1,
			// High per-peer latency models the aggregated cost of the
			// many small messages DBG halo exchange produces.
			Inter: vclock.CommCost{Latency: 3, Bandwidth: 10e6},
		}
		res, err := Run(cfg, func(c *Comm) error {
			n := c.Size()
			for step := 0; step < 8; step++ {
				c.ComputeUnits(totalWork/float64(n), 1000)
				payloads := make([]any, n)
				sizes := make([]int64, n)
				for d := range sizes {
					sizes[d] = int64(totalBytes / float64(n) / float64(n) / 8)
				}
				c.AlltoAll(payloads, sizes)
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		return res.Elapsed
	}
	t2, t4, t16, t32 := ttc(2), ttc(4), ttc(16), ttc(32)
	if !(t4 < t2) {
		t.Errorf("4 nodes (%v) not faster than 2 (%v)", t4, t2)
	}
	// Parallel efficiency at 16 nodes is well below ideal.
	eff := float64(t2) / float64(t16) / 8
	if eff > 0.8 {
		t.Errorf("efficiency at 16 nodes = %.2f, expected sublinear scaling", eff)
	}
	// Past the sweet spot, adding nodes makes TTC worse.
	if t32 <= t16 {
		t.Errorf("32 nodes (%v) not slower than 16 (%v); latency should dominate", t32, t16)
	}
}

func TestDeterminism(t *testing.T) {
	run := func() (vclock.Duration, string) {
		var mu sync.Mutex
		var events []string
		res, err := Run(DefaultConfig(4), func(c *Comm) error {
			v := c.AllReduceInt(int64(c.Rank()), func(a, b int64) int64 { return a + b })
			c.ComputeUnits(float64(v), 10)
			all := c.AllGather(c.Rank(), 8)
			mu.Lock()
			events = append(events, fmt.Sprintf("r%d:%v:%v", c.Rank(), v, len(all)))
			mu.Unlock()
			c.Barrier()
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		sort.Strings(events)
		return res.Elapsed, fmt.Sprint(events)
	}
	e1, log1 := run()
	for i := 0; i < 10; i++ {
		e2, log2 := run()
		if e1 != e2 || log1 != log2 {
			t.Fatalf("nondeterministic: (%v,%s) vs (%v,%s)", e1, log1, e2, log2)
		}
	}
}

func TestNodeMapping(t *testing.T) {
	cfg := DefaultConfig(8)
	cfg.RanksPerNode = 4
	_, err := Run(cfg, func(c *Comm) error {
		want := c.Rank() / 4
		if c.Node() != want {
			return fmt.Errorf("rank %d on node %d, want %d", c.Rank(), c.Node(), want)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestIntraNodeCheaperThanInter(t *testing.T) {
	base := vclock.CommCost{Latency: 0.1, Bandwidth: 1e6}
	run := func(ranksPerNode int) vclock.Duration {
		cfg := Config{Ranks: 2, RanksPerNode: ranksPerNode, Inter: base,
			Intra: vclock.CommCost{Latency: 0.0001, Bandwidth: 1e9}}
		res, err := Run(cfg, func(c *Comm) error {
			if c.Rank() == 0 {
				c.Send(1, nil, 1e6)
			} else {
				c.Recv(0)
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		return res.Elapsed
	}
	sameNode := run(2)
	crossNode := run(1)
	if sameNode >= crossNode {
		t.Errorf("intra %v not cheaper than inter %v", sameNode, crossNode)
	}
}
