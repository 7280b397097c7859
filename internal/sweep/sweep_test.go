package sweep

import (
	"encoding/json"
	"errors"
	"fmt"
	"reflect"
	"sync/atomic"
	"testing"

	_ "rnascale/internal/assembler/all" // the pipeline cells pick tools by name
	"rnascale/internal/core"
	"rnascale/internal/simdata"
)

// TestMapDeterminismAcrossWorkerCounts is the engine's core contract:
// the same cell list produces byte-identical marshalled results with
// 1, 2 and 8 workers. The cells are real pipeline runs at the tiny
// profile, so this is the determinism the experiment tables lean on.
// Run under -race via `make check`.
func TestMapDeterminismAcrossWorkerCounts(t *testing.T) {
	type cell struct {
		Scheme  core.MatchingScheme
		Pattern core.WorkflowPattern
	}
	cells := []cell{
		{core.S1, core.Conventional},
		{core.S1, core.DistributedDynamic},
		{core.S2, core.DistributedDynamic},
		{core.S2, core.DistributedStatic},
	}
	run := func(workers int) string {
		type result struct {
			TTC         float64 `json:"ttc"`
			CostUSD     float64 `json:"cost"`
			Transcripts int     `json:"transcripts"`
		}
		results, err := Map(len(cells), func(i int) (result, error) {
			ds, err := simdata.GenerateCached(simdata.Tiny())
			if err != nil {
				return result{}, err
			}
			cfg := core.DefaultConfig()
			cfg.Scheme = cells[i].Scheme
			cfg.Pattern = cells[i].Pattern
			cfg.ContrailNodes = 2
			cfg.Assemblers = []string{"velvet"}
			rep, err := core.Run(ds, cfg)
			if err != nil {
				return result{}, err
			}
			return result{rep.TTC.Seconds(), rep.CostUSD, len(rep.Transcripts)}, nil
		}, Options{Workers: workers})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		b, err := json.Marshal(results)
		if err != nil {
			t.Fatal(err)
		}
		return string(b)
	}
	baseline := run(1)
	for _, w := range []int{2, 8} {
		if got := run(w); got != baseline {
			t.Errorf("workers=%d output differs from workers=1:\n%s\nvs\n%s", w, got, baseline)
		}
	}
	if len(baseline) < 10 {
		t.Fatalf("suspiciously small marshalled results: %q", baseline)
	}
}

// TestDatasetCacheSingleGeneration asserts the memoized dataset cache
// generates once per distinct profile under concurrent access, and
// that all callers observe the same shared pointer.
func TestDatasetCacheSingleGeneration(t *testing.T) {
	// A profile distinct from every other test's (its own seed), so
	// the process-wide generation counter attributes cleanly.
	prof := simdata.Tiny()
	prof.Seed = 914207

	before := simdata.CacheGenerations()
	const cells = 32
	ptrs, err := Map(cells, func(i int) (*simdata.Dataset, error) {
		return simdata.GenerateCached(prof)
	}, Options{Workers: 8})
	if err != nil {
		t.Fatal(err)
	}
	for i, p := range ptrs {
		if p == nil {
			t.Fatalf("cell %d: nil dataset", i)
		}
		if p != ptrs[0] {
			t.Errorf("cell %d: distinct dataset pointer — cache did not share", i)
		}
	}
	// Exactly one generation for this profile (other profiles may be
	// generated concurrently by parallel tests, so compare against a
	// second warm pass rather than an absolute count).
	grew := simdata.CacheGenerations() - before
	if grew < 1 {
		t.Fatalf("no generation recorded")
	}
	warm := simdata.CacheGenerations()
	if _, err := simdata.GenerateCached(prof); err != nil {
		t.Fatal(err)
	}
	if d := simdata.CacheGenerations() - warm; d != 0 {
		t.Errorf("warm hit regenerated (%d extra generations)", d)
	}
	// The cached dataset equals a fresh generation (memoization does
	// not change content).
	fresh, err := simdata.Generate(prof)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(fresh.Reads, ptrs[0].Reads) {
		t.Error("cached reads differ from fresh generation")
	}
}

func TestMapReportsLowestIndexError(t *testing.T) {
	boom := errors.New("boom")
	for _, workers := range []int{1, 4} {
		_, err := Map(8, func(i int) (int, error) {
			if i == 6 || i == 3 {
				return 0, fmt.Errorf("cell-%d: %w", i, boom)
			}
			return i, nil
		}, Options{Workers: workers})
		if err == nil || !errors.Is(err, boom) {
			t.Fatalf("workers=%d: err = %v", workers, err)
		}
		if want := "cell 3"; err.Error()[:len(want)] != want {
			t.Errorf("workers=%d: error %q does not name the lowest failing cell", workers, err)
		}
	}
}

func TestCollectCapturesPanics(t *testing.T) {
	for _, workers := range []int{1, 4} {
		out := Collect(5, func(i int) (string, error) {
			if i == 2 {
				panic("cell exploded")
			}
			return fmt.Sprintf("ok-%d", i), nil
		}, Options{Workers: workers})
		for i, o := range out {
			if o.Index != i {
				t.Fatalf("workers=%d: outcome %d has index %d", workers, i, o.Index)
			}
			if i == 2 {
				var pe *PanicError
				if !errors.As(o.Err, &pe) {
					t.Fatalf("workers=%d: cell 2 err = %v, want PanicError", workers, o.Err)
				}
				if pe.Cell != 2 || pe.Value != "cell exploded" || len(pe.Stack) == 0 {
					t.Errorf("workers=%d: panic detail %+v", workers, pe)
				}
				continue
			}
			if o.Err != nil || o.Value != fmt.Sprintf("ok-%d", i) {
				t.Errorf("workers=%d: cell %d = %+v", workers, i, o)
			}
		}
	}
}

// TestProgressTicksExactlyOnce checks the progress counter is
// serialized and deterministic in content: done ticks 1..n once each,
// for any worker count.
func TestProgressTicksExactlyOnce(t *testing.T) {
	for _, workers := range []int{1, 3, 8} {
		var calls []int
		_, err := Map(10, func(i int) (int, error) { return i * i, nil },
			Options{Workers: workers, OnProgress: func(done, total int) {
				if total != 10 {
					t.Fatalf("total = %d", total)
				}
				calls = append(calls, done)
			}})
		if err != nil {
			t.Fatal(err)
		}
		if len(calls) != 10 {
			t.Fatalf("workers=%d: %d progress calls", workers, len(calls))
		}
		for i, d := range calls {
			if d != i+1 {
				t.Fatalf("workers=%d: progress sequence %v", workers, calls)
			}
		}
	}
}

func TestMapEmptyAndOversizedWorkers(t *testing.T) {
	out, err := Map(0, func(i int) (int, error) { return i, nil }, Options{Workers: 16})
	if err != nil || len(out) != 0 {
		t.Fatalf("empty sweep: %v %v", out, err)
	}
	// More workers than cells must not deadlock or duplicate work.
	var ran atomic.Int64
	vals, err := Map(3, func(i int) (int, error) { ran.Add(1); return i, nil }, Options{Workers: 64})
	if err != nil || ran.Load() != 3 {
		t.Fatalf("oversized workers: ran %d cells, err %v", ran.Load(), err)
	}
	if vals[0] != 0 || vals[1] != 1 || vals[2] != 2 {
		t.Fatalf("values %v", vals)
	}
}
