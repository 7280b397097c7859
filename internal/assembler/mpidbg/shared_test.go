package mpidbg_test

import (
	"fmt"
	"reflect"
	"slices"
	"sync"
	"testing"

	"rnascale/internal/assembler"
	"rnascale/internal/assembler/abyss"
	"rnascale/internal/assembler/mpidbg"
	"rnascale/internal/assembler/ray"
	"rnascale/internal/cloud"
	"rnascale/internal/seq"
	"rnascale/internal/simdata"
)

// Ray and ABySS sharing one memo must assemble exactly what each
// computes alone — contigs, TTC, traffic, memory and N50 — on both full
// profiles' cleaned reads at the pipeline's k values and at coverage
// cutoffs 1 to 5, whichever tool reaches a spectrum first and when
// every tool and cutoff at one k asks for it at once. As in PB, one
// memo serves every k, here of both read sets; it counts one spectrum
// per read set and k for the cutoffs at or above 2, and each cutoff-1
// request counts its own. Under the race detector, which makes it too
// slow for one test binary's time limit at three GOMAXPROCS settings,
// it checks each profile's smallest k only.
func TestSharedSpectrumMatchesPrivate(t *testing.T) {
	if testing.Short() {
		t.Skip("full-profile assemblies")
	}
	tools := []assembler.Assembler{&ray.Ray{}, &abyss.ABySS{}}
	cutoffs := []int{1, 2, 3, 4, 5}
	// job is one read set at one k.
	type job struct {
		name  string
		reads []seq.Read
		fs    simdata.FullScaleStats
		k     int
	}
	var jobs []job
	for _, tc := range []struct {
		profile simdata.Profile
		pins    []mpiPin
	}{
		{simdata.PCrispa(), pcrispaPins},
		{simdata.BGlumae(), bglumaePins},
	} {
		reads, fs := cleanedReads(t, tc.profile)
		var ks []int
		for _, pin := range tc.pins {
			if !slices.Contains(ks, pin.k) {
				ks = append(ks, pin.k)
			}
		}
		if raceEnabled {
			ks = ks[:1]
		}
		for _, k := range ks {
			jobs = append(jobs, job{tc.profile.Name, reads, fs, k})
		}
	}
	id := func(j job, a assembler.Assembler, cutoff int) string {
		return fmt.Sprintf("%s k=%d %s cutoff %d", j.name, j.k, a.Info().Name, cutoff)
	}
	assemble := func(j job, a assembler.Assembler, cutoff int, memo *assembler.Memo) assembler.Result {
		res, err := a.Assemble(assembler.Request{
			Reads: j.reads, Params: assembler.Params{K: j.k, MinCoverage: cutoff},
			Nodes: 1, CoresPerNode: cloud.C32XLarge.Cores, FullScale: j.fs, Memo: memo,
		})
		if err != nil {
			t.Errorf("%s: %v", id(j, a, cutoff), err)
		}
		return res
	}
	private := map[string]assembler.Result{}
	for _, j := range jobs {
		for _, a := range tools {
			for _, c := range cutoffs {
				private[id(j, a, c)] = assemble(j, a, c, nil)
			}
		}
	}
	// run assembles every job under one fresh memo, each job's requests
	// through at.
	run := func(mode string, at func(j job, memo *assembler.Memo, got map[string]assembler.Result)) {
		memo, before := &assembler.Memo{}, mpidbg.SpectraCounted()
		got := map[string]assembler.Result{}
		for _, j := range jobs {
			at(j, memo, got)
		}
		for key, want := range private {
			if !reflect.DeepEqual(got[key], want) {
				t.Errorf("%s, %s: differs from its memo-less run", mode, key)
			}
		}
		// One shared spectrum per job, and one for each tool at cutoff 1.
		if counted, want := mpidbg.SpectraCounted()-before, int64(len(jobs)*(1+len(tools))); counted != want {
			t.Errorf("%s: %d spectra counted, want %d", mode, counted, want)
		}
	}
	for mode, order := range map[string][]assembler.Assembler{
		"ray first":   tools,
		"abyss first": {tools[1], tools[0]},
	} {
		run(mode, func(j job, memo *assembler.Memo, got map[string]assembler.Result) {
			for _, c := range cutoffs {
				for _, a := range order {
					got[id(j, a, c)] = assemble(j, a, c, memo)
				}
			}
		})
	}
	run("concurrently", func(j job, memo *assembler.Memo, got map[string]assembler.Result) {
		var mu sync.Mutex
		var wg sync.WaitGroup
		for _, a := range tools {
			for _, c := range cutoffs {
				wg.Add(1)
				go func() {
					defer wg.Done()
					res := assemble(j, a, c, memo)
					mu.Lock()
					got[id(j, a, c)] = res
					mu.Unlock()
				}()
			}
		}
		wg.Wait()
	})
}
