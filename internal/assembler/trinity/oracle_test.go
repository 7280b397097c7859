package trinity

import (
	"bytes"
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"strings"
	"testing"

	"rnascale/internal/assembler"
	"rnascale/internal/dbg"
	"rnascale/internal/preprocess"
	"rnascale/internal/seq"
	"rnascale/internal/simdata"
)

// The bodies below are what trinity.go shipped before it counted into
// seq.KmerTable: a Go map of counts and a Go map of visited k-mers.
// They stay here as the oracle the table-based walk is checked against.

// referenceAssemble is Assemble counting into a Go map.
func referenceAssemble(tr *Trinity, req assembler.Request) (assembler.Result, error) {
	if err := req.Validate(tr.Info()); err != nil {
		return assembler.Result{}, err
	}
	p := req.Params.WithDefaults(2)
	coder, err := seq.NewKmerCoder(p.K)
	if err != nil {
		return assembler.Result{}, err
	}
	// Count canonical k-mers.
	counts := make(map[seq.Kmer]uint32)
	for i := range req.Reads {
		coder.ForEachCanonical(req.Reads[i].Seq, func(_ int, c seq.Kmer) bool {
			counts[c]++
			return true
		})
	}
	for km, c := range counts {
		if c < uint32(p.MinCoverage) {
			delete(counts, km)
		}
	}
	res, err := tr.Estimate(req)
	if err != nil {
		return assembler.Result{}, err
	}
	res.Contigs = referenceInchworm(coder, counts, p.MinContigLen)
	res.N50 = dbg.N50(res.Contigs)
	return res, nil
}

// referenceInchworm greedily assembles contigs from the count table.
func referenceInchworm(coder seq.KmerCoder, counts map[seq.Kmer]uint32, minLen int) []seq.FastaRecord {
	// Seeds in decreasing abundance (ties by k-mer order for
	// determinism).
	type seed struct {
		km seq.Kmer
		c  uint32
	}
	seeds := make([]seed, 0, len(counts))
	for km, c := range counts {
		seeds = append(seeds, seed{km, c})
	}
	sort.Slice(seeds, func(a, b int) bool {
		if seeds[a].c != seeds[b].c {
			return seeds[a].c > seeds[b].c
		}
		return seeds[a].km.Less(seeds[b].km)
	})
	used := make(map[seq.Kmer]bool, len(counts))
	lookup := func(km seq.Kmer) (seq.Kmer, uint32, bool) {
		canon, _ := coder.Canonical(km)
		if used[canon] {
			return canon, 0, false
		}
		c, ok := counts[canon]
		return canon, c, ok
	}
	var out []seq.FastaRecord
	for _, sd := range seeds {
		if used[sd.km] {
			continue
		}
		used[sd.km] = true
		// Extend right greedily: best-count neighbour wins, even at
		// branches.
		right := sd.km
		var rightBases []byte
		for {
			var best seq.Kmer
			var bestCanon seq.Kmer
			var bestC uint32
			var bestBase byte
			for _, b := range [4]byte{'A', 'C', 'G', 'T'} {
				next, _ := coder.Next(right, b)
				canon, c, ok := lookup(next)
				if ok && c > bestC {
					best, bestCanon, bestC, bestBase = next, canon, c, b
				}
			}
			if bestC == 0 {
				break
			}
			used[bestCanon] = true
			rightBases = append(rightBases, bestBase)
			right = best
		}
		// Extend left greedily.
		left := sd.km
		var leftBases []byte // reversed order
		for {
			var best seq.Kmer
			var bestCanon seq.Kmer
			var bestC uint32
			var bestBase byte
			for _, b := range [4]byte{'A', 'C', 'G', 'T'} {
				prev, _ := coder.Prev(left, b)
				canon, c, ok := lookup(prev)
				if ok && c > bestC {
					best, bestCanon, bestC, bestBase = prev, canon, c, b
				}
			}
			if bestC == 0 {
				break
			}
			used[bestCanon] = true
			leftBases = append(leftBases, bestBase)
			left = best
		}
		// Assemble: reversed left bases + seed + right bases.
		sq := make([]byte, 0, len(leftBases)+coder.K+len(rightBases))
		for i := len(leftBases) - 1; i >= 0; i-- {
			sq = append(sq, leftBases[i])
		}
		sq = append(sq, coder.Decode(sd.km)...)
		sq = append(sq, rightBases...)
		if len(sq) >= minLen {
			out = append(out, seq.FastaRecord{Seq: sq})
		}
	}
	sort.SliceStable(out, func(a, b int) bool { return len(out[a].Seq) > len(out[b].Seq) })
	for i := range out {
		out[i].ID = contigID(i, len(out[i].Seq))
	}
	return out
}

// checkMatchesReference runs Assemble and referenceAssemble on one
// request and reports the first way their results differ.
func checkMatchesReference(t *testing.T, name string, req assembler.Request) {
	t.Helper()
	tr := &Trinity{}
	want, wantErr := referenceAssemble(tr, req)
	got, gotErr := tr.Assemble(req)
	if fmt.Sprint(gotErr) != fmt.Sprint(wantErr) {
		t.Fatalf("%s: error %v, reference %v", name, gotErr, wantErr)
	}
	if reflect.DeepEqual(got, want) {
		return
	}
	if got.TTC != want.TTC || got.PeakMemoryGBPerNode != want.PeakMemoryGBPerNode {
		t.Errorf("%s: TTC %v memory %v, reference %v %v", name, got.TTC, got.PeakMemoryGBPerNode, want.TTC, want.PeakMemoryGBPerNode)
	}
	if len(got.Contigs) != len(want.Contigs) {
		t.Fatalf("%s: %d contigs, reference %d", name, len(got.Contigs), len(want.Contigs))
	}
	for i := range got.Contigs {
		if got.Contigs[i].ID != want.Contigs[i].ID || string(got.Contigs[i].Seq) != string(want.Contigs[i].Seq) {
			t.Fatalf("%s: contig %d is %s %s, reference %s %s", name, i,
				got.Contigs[i].ID, got.Contigs[i].Seq, want.Contigs[i].ID, want.Contigs[i].Seq)
		}
	}
	t.Fatalf("%s: result %+v, reference %+v", name, got, want)
}

// tiedReads builds reads in which most k-mers tie on count: random
// reads each repeated three times, a genome shredded at every offset
// (its inner k-mers all count readLen-k+1), and low-complexity and
// palindromic repeats that loop back onto themselves.
func tiedReads() []seq.Read {
	rng := rand.New(rand.NewSource(43))
	var reads []seq.Read
	for range 60 {
		s := []byte(randSeq(rng, 40))
		for range 3 {
			reads = append(reads, seq.Read{ID: "x", Seq: s})
		}
	}
	shredInto(&reads, randSeq(rng, 600), 36, 1, 1)
	for _, unit := range []string{"A", "AC", "ACGT", "AATT", "GCGC", "ACGTTGCA"} {
		reads = append(reads, seq.Read{ID: "x", Seq: []byte(strings.Repeat(unit, 64/len(unit)))})
	}
	return reads
}

// cleanedReads returns a profile's reads after the pipeline's
// pre-processing, and the full-scale statistics PB assembles them
// under.
func cleanedReads(t *testing.T, p simdata.Profile) ([]seq.Read, simdata.FullScaleStats) {
	t.Helper()
	ds, err := simdata.Generate(p)
	if err != nil {
		t.Fatal(err)
	}
	cleaned, _ := preprocess.Run(ds.Reads, preprocess.DefaultOptions())
	fs := ds.Profile.FullScale
	fs.SeqDataBytes = fs.PostPreprocessBytes
	return cleaned.Reads, fs
}

// The table-based count and walk must give the map-based reference's
// contigs, IDs, TTC and memory: on tiny at odd and even k (even k has
// palindromic k-mers) and cutoffs 1-3, on bglumae, on pcrispa (whose
// reads carry N), and on reads whose seeds tie on count, where only
// the k-mer order breaks ties.
func TestInchwormMatchesMapReference(t *testing.T) {
	tiny, tinyFS := cleanedReads(t, simdata.Tiny())
	bglumae, bglumaeFS := cleanedReads(t, simdata.BGlumae())
	pcrispa, pcrispaFS := cleanedReads(t, simdata.PCrispa())
	for _, c := range []struct {
		name        string
		reads       []seq.Read
		fs          simdata.FullScaleStats
		ks, cutoffs []int
	}{
		{"tiny", tiny, tinyFS, []int{15, 16, 21, 25, 31, 32, 47, 63}, []int{1, 2, 3}},
		{"bglumae", bglumae, bglumaeFS, []int{35}, []int{2}},
		{"pcrispa", pcrispa, pcrispaFS, []int{32}, []int{2}},
		{"tied", tiedReads(), simdata.Tiny().FullScale, []int{15, 16, 21}, []int{1, 2, 3}},
	} {
		for _, k := range c.ks {
			for _, cutoff := range c.cutoffs {
				checkMatchesReference(t, fmt.Sprintf("%s k=%d cutoff=%d", c.name, k, cutoff), assembler.Request{
					Reads: c.reads, Params: assembler.Params{K: k, MinCoverage: cutoff},
					Nodes: 1, CoresPerNode: 8, FullScale: c.fs,
				})
			}
		}
	}
}

// FuzzInchwormMatchesMap checks the table-based Assemble against the
// map-based reference on arbitrary ACGTN reads (other bytes fold onto
// those five), k and cutoff.
func FuzzInchwormMatchesMap(f *testing.F) {
	f.Add([]byte("ACGTACGTTGCAAGGCTTAACCGGTTACGATCGATCGGATCCATGCA"), uint8(0), uint8(1), uint8(2))
	f.Add([]byte(strings.Repeat("ACGTTGCA", 20)), uint8(1), uint8(0), uint8(1))
	f.Add([]byte(strings.Repeat("GATTACANNACAT", 9)), uint8(6), uint8(2), uint8(0))
	f.Fuzz(func(t *testing.T, data []byte, kSeed, cutoffSeed, copiesSeed uint8) {
		if len(data) == 0 {
			return
		}
		k := 15 + int(kSeed)%(seq.MaxK-14)
		readLen := 16 + int(data[0])%64
		var reads []seq.Read
		for from := 0; from < len(data); from += readLen {
			chunk := data[from:min(from+readLen, len(data))]
			s := make([]byte, len(chunk))
			for i, b := range chunk {
				if s[i] = b; bytes.IndexByte([]byte("ACGTN"), b) < 0 {
					s[i] = "ACGTN"[b%5]
				}
			}
			for range 1 + int(copiesSeed)%3 {
				reads = append(reads, seq.Read{ID: "f", Seq: s})
			}
		}
		checkMatchesReference(t, "fuzz", assembler.Request{
			Reads: reads, Params: assembler.Params{K: k, MinCoverage: 1 + int(cutoffSeed)%3},
			Nodes: 1, CoresPerNode: 8, FullScale: simdata.Tiny().FullScale,
		})
	})
}
