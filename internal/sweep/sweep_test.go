package sweep_test

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
	"rnascale/internal/sweep"
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
		results, err := sweep.Map(len(cells), func(i int) (result, error) {
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
		}, sweep.Options{Workers: workers})
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
	// no other test has generated it.
	prof := simdata.Tiny()
	prof.Seed = 914207

	const cells = 32
	ptrs, err := sweep.Map(cells, func(i int) (*simdata.Dataset, error) {
		return simdata.GenerateCached(prof)
	}, sweep.Options{Workers: 8})
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
	// A warm hit returns the one generated dataset, not a new one.
	if warm, err := simdata.GenerateCached(prof); err != nil {
		t.Fatal(err)
	} else if warm != ptrs[0] {
		t.Error("warm hit regenerated the dataset")
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
		_, err := sweep.Map(8, func(i int) (int, error) {
			if i == 6 || i == 3 {
				return 0, fmt.Errorf("cell-%d: %w", i, boom)
			}
			return i, nil
		}, sweep.Options{Workers: workers})
		if err == nil || !errors.Is(err, boom) {
			t.Fatalf("workers=%d: err = %v", workers, err)
		}
		if want := "cell 3"; err.Error()[:len(want)] != want {
			t.Errorf("workers=%d: error %q does not name the lowest failing cell", workers, err)
		}
	}
}

func TestMapCapturesPanics(t *testing.T) {
	for _, workers := range []int{1, 4} {
		out, err := sweep.Map(5, func(i int) (string, error) {
			if i == 2 {
				panic("cell exploded")
			}
			return fmt.Sprintf("ok-%d", i), nil
		}, sweep.Options{Workers: workers})
		var pe *sweep.PanicError
		if !errors.As(err, &pe) {
			t.Fatalf("workers=%d: err = %v, want PanicError", workers, err)
		}
		if pe.Cell != 2 || pe.Value != "cell exploded" || len(pe.Stack) == 0 {
			t.Errorf("workers=%d: panic detail %+v", workers, pe)
		}
		// Every other cell still ran; the panicking one holds the zero value.
		want := []string{"ok-0", "ok-1", "", "ok-3", "ok-4"}
		if !reflect.DeepEqual(out, want) {
			t.Errorf("workers=%d: values %q, want %q", workers, out, want)
		}
	}
}

func TestMapEmptyAndOversizedWorkers(t *testing.T) {
	out, err := sweep.Map(0, func(i int) (int, error) { return i, nil }, sweep.Options{Workers: 16})
	if err != nil || len(out) != 0 {
		t.Fatalf("empty sweep: %v %v", out, err)
	}
	// More workers than cells must not deadlock or duplicate work.
	var ran atomic.Int64
	vals, err := sweep.Map(3, func(i int) (int, error) { ran.Add(1); return i, nil }, sweep.Options{Workers: 64})
	if err != nil || ran.Load() != 3 {
		t.Fatalf("oversized workers: ran %d cells, err %v", ran.Load(), err)
	}
	if vals[0] != 0 || vals[1] != 1 || vals[2] != 2 {
		t.Fatalf("values %v", vals)
	}
}
