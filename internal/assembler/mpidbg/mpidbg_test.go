package mpidbg

import (
	"math/rand"
	"reflect"
	"slices"
	"sync"
	"testing"

	"rnascale/internal/assembler"
	"rnascale/internal/cloud"
	"rnascale/internal/seq"
	"rnascale/internal/simdata"
	"rnascale/internal/vclock"
)

func testProfile() Profile {
	return Profile{
		Prefix:             "test",
		BasesPerCoreSecond: 1e6,
		SerialFraction:     0.5,
		WireBytesPerBase:   8,
		MinCoverageDefault: 1,
		MemoryFactor:       1,
		Inter:              cloud.InterNode,
	}
}

func testInfo() assembler.Info {
	return assembler.Info{Name: "test-mpi", GraphType: "DBG", Distributed: "MPI", Version: "0"}
}

func shred(rng *rand.Rand, n, readLen, step int) (string, []seq.Read) {
	bases := "ACGT"
	g := make([]byte, n)
	for i := range g {
		g[i] = bases[rng.Intn(4)]
	}
	var reads []seq.Read
	for i := 0; i+readLen <= len(g); i += step {
		reads = append(reads, seq.Read{ID: "r", Seq: g[i : i+readLen]})
	}
	return string(g), reads
}

func TestDistributedEqualsSingleRank(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	_, reads := shred(rng, 600, 40, 1)
	fs := simdata.Tiny().FullScale
	run := func(nodes, cores int) []seq.FastaRecord {
		res, err := Run(assembler.Request{
			Reads: reads, Params: assembler.Params{K: 21, MinCoverage: 1},
			Nodes: nodes, CoresPerNode: cores, FullScale: fs,
		}, testInfo(), testProfile())
		if err != nil {
			t.Fatal(err)
		}
		return res.Contigs
	}
	single := run(1, 1)
	multi := run(4, 4)
	if len(single) != len(multi) {
		t.Fatalf("contig count differs: %d vs %d", len(single), len(multi))
	}
	for i := range single {
		if string(single[i].Seq) != string(multi[i].Seq) {
			t.Fatal("distributed assembly diverges from single-rank result")
		}
	}
}

// Counting every k-mer once, on its owner, from several goroutines at
// once must give each owner exactly the single-threaded count of its
// partition, and the owner's part of the spectrum must be that
// partition's k-mers at or above the floor, sorted by key — on the
// tiny profile's reads and on seeded reads sprinkled with N, at 1, 3, 8
// and 16 ranks and 1, 2 and 5 counting goroutines.
func TestOwnerCountsMatchReference(t *testing.T) {
	ds, err := simdata.Generate(simdata.Tiny())
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(11))
	_, shredded := shred(rng, 3000, 60, 3)
	var withN []seq.Read
	for _, r := range shredded {
		s := append([]byte(nil), r.Seq...)
		for rng.Intn(3) == 0 {
			s[rng.Intn(len(s))] = 'N'
		}
		withN = append(withN, seq.Read{ID: r.ID, Seq: s})
	}
	const minCov = 2
	for name, reads := range map[string][]seq.Read{"tiny": ds.Reads.Reads, "seeded-N": withN} {
		for _, k := range []int{21, 31} {
			coder, err := seq.NewKmerCoder(k)
			if err != nil {
				t.Fatal(err)
			}
			ref := map[seq.Kmer]uint32{}
			for _, r := range reads {
				coder.ForEachCanonical(r.Seq, func(_ int, km seq.Kmer) bool {
					ref[km]++
					return true
				})
			}
			for _, ranks := range []int{1, 3, 8, 16} {
				spec := spectrum(reads, coder, ranks, minCov)
				for _, workers := range []int{1, 2, 5} {
					own := newOwners(reads, k, ranks, workers)
					var wg sync.WaitGroup
					for w := range workers {
						wg.Add(1)
						go func() {
							defer wg.Done()
							own.count(coder, reads[w*len(reads)/workers:(w+1)*len(reads)/workers])
						}()
					}
					wg.Wait()
					counted := 0
					for d, tab := range own.tabs {
						want := 0
						tab.Each(func(_ int, km seq.Kmer, n uint32) {
							counted++
							if ref[km] != n || km.Hash()%uint64(ranks) != uint64(d) {
								t.Fatalf("%s k=%d ranks=%d workers=%d: owner %d holds %v×%d, reference %d (owner %d)",
									name, k, ranks, workers, d, km, n, ref[km], km.Hash()%uint64(ranks))
							}
							if n >= minCov {
								want++
							}
						})
						got := own.survivors(d, minCov)
						if len(got) != want {
							t.Fatalf("%s k=%d ranks=%d workers=%d: owner %d hands over %d survivors, %d reach the cutoff",
								name, k, ranks, workers, d, len(got), want)
						}
						for i, kc := range got {
							if kc.n < minCov || ref[kc.km] != kc.n || (i > 0 && got[i-1].km.Compare(kc.km) >= 0) {
								t.Fatalf("%s k=%d ranks=%d workers=%d: owner %d survivor %d is %v×%d after %v",
									name, k, ranks, workers, d, i, kc.km, kc.n, got[max(i-1, 0)].km)
							}
						}
						if !slices.Equal(got, spec[d]) {
							t.Fatalf("%s k=%d ranks=%d: owner %d's part of the spectrum differs from its survivors", name, k, ranks, d)
						}
					}
					if counted != len(ref) {
						t.Fatalf("%s k=%d ranks=%d workers=%d: owners hold %d k-mers, reference %d", name, k, ranks, workers, counted, len(ref))
					}
				}
			}
		}
	}
}

// Rank 0's merge of the owners' parts yields every k-mer of the
// spectrum once, in ascending order — what the sorted concatenation of
// the parts gives — and leaves the parts, which a memo may share, as
// they were: at 1 to 16 owners, some of them empty, and at none.
func TestMergeOrdersTheSpectrum(t *testing.T) {
	ds, err := simdata.Generate(simdata.Tiny())
	if err != nil {
		t.Fatal(err)
	}
	coder := seq.MustKmerCoder(25)
	merged := func(parts [][]kmerCount) []kmerCount {
		var out []kmerCount
		merge(parts, func(kc kmerCount) { out = append(out, kc) })
		return out
	}
	for _, ranks := range []int{1, 2, 3, 8, 16} {
		for _, floor := range []int{1, 3, 40} {
			spec := spectrum(ds.Reads.Reads[:len(ds.Reads.Reads)/(floor*floor)], coder, ranks, floor)
			var want []kmerCount
			kept := make([][]kmerCount, len(spec))
			for d, part := range spec {
				want = append(want, part...)
				kept[d] = slices.Clone(part)
			}
			slices.SortFunc(want, func(a, b kmerCount) int { return a.km.Compare(b.km) })
			if got := merged(spec); !slices.Equal(got, want) {
				t.Fatalf("ranks=%d floor=%d: merge gives %d k-mers, the sorted parts %d, or another order",
					ranks, floor, len(got), len(want))
			}
			if !reflect.DeepEqual(spec, kept) {
				t.Fatalf("ranks=%d floor=%d: merge changed the parts", ranks, floor)
			}
		}
	}
	if got := merged(nil); got != nil {
		t.Errorf("merge of no parts gave %d k-mers", len(got))
	}
}

// One memo hands each request the spectrum of its own reads, k and
// rank count: read sets that share a first read or a length, ks and
// rank counts each get their own, counted once.
func TestMemoKeysSpectrumByReadsKAndRanks(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	_, reads := shred(rng, 2000, 60, 2)
	sets := [][]seq.Read{reads, reads[:len(reads)-1], reads[1:]}
	memo, before := &assembler.Memo{}, spectra.Load()
	checks := 0
	for range 2 {
		for _, set := range sets {
			for _, k := range []int{21, 25} {
				coder, err := seq.NewKmerCoder(k)
				if err != nil {
					t.Fatal(err)
				}
				for _, ranks := range []int{2, 3} {
					checks++
					got := requestSpectrum(assembler.Request{Reads: set, Memo: memo}, coder, ranks, 3)
					if want := spectrum(set, coder, ranks, sharedFloor); !reflect.DeepEqual(got, want) {
						t.Fatalf("%d reads from %p, k=%d, %d ranks: the memo's spectrum is not theirs", len(set), &set[0], k, ranks)
					}
				}
			}
		}
	}
	// Every check counts its reference spectrum; the memo counts one per
	// key, and the second round asks for each key again.
	if counted := spectra.Load() - before; counted != int64(checks+checks/2) {
		t.Errorf("%d checks over %d keys counted %d spectra, want %d", checks, checks/2, counted, checks+checks/2)
	}
}

func TestSerialFractionFlattensScaling(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	_, reads := shred(rng, 400, 40, 2)
	fs := simdata.PCrispa().FullScale
	speedup := func(serial float64) float64 {
		prof := testProfile()
		prof.SerialFraction = serial
		ttc := func(nodes int) vclock.Duration {
			res, err := Run(assembler.Request{
				Reads: reads, Params: assembler.Params{K: 21, MinCoverage: 1},
				Nodes: nodes, CoresPerNode: 8, FullScale: fs,
			}, testInfo(), prof)
			if err != nil {
				t.Fatal(err)
			}
			return res.TTC
		}
		return float64(ttc(2)) / float64(ttc(16))
	}
	flat := speedup(0.9)
	steep := speedup(0.1)
	if flat >= steep {
		t.Errorf("serial 0.9 speedup %.2f not below serial 0.1 speedup %.2f", flat, steep)
	}
	if flat > 1.5 {
		t.Errorf("serial-dominated profile scaled %.2f×; should be near flat", flat)
	}
}

func TestLargerKCheaperCounting(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	_, reads := shred(rng, 500, 45, 1)
	fs := simdata.PCrispa().FullScale // ReadLen 100 drives the window fraction
	prof := testProfile()
	prof.SerialFraction = 0 // expose the parallel term
	ttcAt := func(k int) float64 {
		res, err := Run(assembler.Request{
			Reads: reads, Params: assembler.Params{K: k, MinCoverage: 1},
			Nodes: 1, CoresPerNode: 8, FullScale: fs,
		}, testInfo(), prof)
		if err != nil {
			t.Fatal(err)
		}
		return res.TTC.Seconds()
	}
	if !(ttcAt(41) < ttcAt(21)) {
		t.Error("larger k (fewer windows) not cheaper")
	}
}

func TestMemoryShrinksWithNodes(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	_, reads := shred(rng, 300, 40, 2)
	fs := simdata.PCrispa().FullScale
	mem := func(nodes int) float64 {
		res, err := Run(assembler.Request{
			Reads: reads, Params: assembler.Params{K: 21, MinCoverage: 1},
			Nodes: nodes, CoresPerNode: 4, FullScale: fs,
		}, testInfo(), testProfile())
		if err != nil {
			t.Fatal(err)
		}
		return res.PeakMemoryGBPerNode
	}
	if !(mem(8) < mem(2)) {
		t.Error("per-node memory not decreasing with nodes")
	}
}

func TestTrafficAccounting(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	_, reads := shred(rng, 300, 40, 2)
	res, err := Run(assembler.Request{
		Reads: reads, Params: assembler.Params{K: 21, MinCoverage: 1},
		Nodes: 2, CoresPerNode: 2, FullScale: simdata.Tiny().FullScale,
	}, testInfo(), testProfile())
	if err != nil {
		t.Fatal(err)
	}
	if res.Messages == 0 || res.BytesSent == 0 {
		t.Errorf("no traffic recorded: %+v", res)
	}
}

func TestNoContigsError(t *testing.T) {
	// Reads too short for k → empty graph → explicit error.
	reads := []seq.Read{{ID: "r", Seq: []byte("ACGTACGTACGTACGTACGT")}}
	_, err := Run(assembler.Request{
		Reads: reads, Params: assembler.Params{K: 31, MinCoverage: 1},
		Nodes: 1, CoresPerNode: 1, FullScale: simdata.Tiny().FullScale,
	}, testInfo(), testProfile())
	if err == nil {
		t.Fatal("empty assembly did not error")
	}
}

func TestValidationPropagates(t *testing.T) {
	_, err := Run(assembler.Request{
		Params: assembler.Params{K: 21}, Nodes: 1, CoresPerNode: 1,
	}, testInfo(), testProfile())
	if err == nil {
		t.Fatal("empty reads accepted")
	}
}

func TestEstimateValidation(t *testing.T) {
	if _, err := Estimate(assembler.Request{Params: assembler.Params{K: 5}, Nodes: 1, CoresPerNode: 1}, testInfo(), testProfile()); err == nil {
		t.Error("bad k accepted")
	}
	if _, err := Estimate(assembler.Request{Params: assembler.Params{K: 21}}, testInfo(), testProfile()); err == nil {
		t.Error("no allocation accepted")
	}
	// Intra-node path (single node) vs inter-node path.
	fs := simdata.PCrispa().FullScale
	single, err := Estimate(assembler.Request{Params: assembler.Params{K: 21}, Nodes: 1, CoresPerNode: 8, FullScale: fs}, testInfo(), testProfile())
	if err != nil {
		t.Fatal(err)
	}
	multi, err := Estimate(assembler.Request{Params: assembler.Params{K: 21}, Nodes: 8, CoresPerNode: 8, FullScale: fs}, testInfo(), testProfile())
	if err != nil {
		t.Fatal(err)
	}
	if single.TTC <= 0 || multi.TTC <= 0 {
		t.Error("non-positive estimates")
	}
}
