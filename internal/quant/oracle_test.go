package quant

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"rnascale/internal/seq"
	"rnascale/internal/simdata"
)

// referenceAssign is the body assign had before the k-mer table: a map
// from k-mer to transcript list and a fresh vote map per read.
func referenceAssign(coder seq.KmerCoder, transcripts []seq.FastaRecord, reads []seq.Read, minVotes int) ([]int64, int64) {
	index := map[seq.Kmer][]int32{}
	for ti, tx := range transcripts {
		coder.ForEachCanonical(tx.Seq, func(_ int, canon seq.Kmer) bool {
			lst := index[canon]
			if len(lst) == 0 || lst[len(lst)-1] != int32(ti) {
				index[canon] = append(lst, int32(ti))
			}
			return true
		})
	}
	counts := make([]int64, len(transcripts))
	var assigned int64
	for i := range reads {
		votes := map[int32]int{}
		coder.ForEachCanonical(reads[i].Seq, func(_ int, canon seq.Kmer) bool {
			for _, ti := range index[canon] {
				votes[ti]++
			}
			return true
		})
		best, bestVotes := int32(-1), 0
		for ti, v := range votes {
			if v > bestVotes || (v == bestVotes && best >= 0 && ti < best) {
				best, bestVotes = ti, v
			}
		}
		if best >= 0 && bestVotes >= minVotes {
			counts[best]++
			assigned++
		}
	}
	return counts, assigned
}

func checkAssign(t *testing.T, k int, transcripts []seq.FastaRecord, reads []seq.Read, minVotes int) {
	t.Helper()
	coder := seq.MustKmerCoder(k)
	counts, assigned := assign(coder, transcripts, reads, minVotes)
	wantCounts, wantAssigned := referenceAssign(coder, transcripts, reads, minVotes)
	if !slices.Equal(counts, wantCounts) || assigned != wantAssigned {
		t.Fatalf("k=%d minVotes=%d: assigned %d %v, reference %d %v", k, minVotes, assigned, counts, wantAssigned, wantCounts)
	}
}

func randBases(rng *rand.Rand, n int) []byte {
	s := make([]byte, n)
	for i := range s {
		s[i] = "ACGT"[rng.Intn(4)]
	}
	return s
}

func TestAssignMatchesReference(t *testing.T) {
	t.Run("tiny dataset", func(t *testing.T) {
		ds, err := simdata.Generate(simdata.Tiny())
		if err != nil {
			t.Fatal(err)
		}
		for _, minVotes := range []int{1, 3, 40} {
			checkAssign(t, 21, ds.Transcripts, ds.Reads.Reads, minVotes)
		}
	})

	// Transcript families that share most of their k-mers, exact
	// duplicates (every read a tie, won by the lower index), a
	// transcript holding the same k-mers several times, one shorter than
	// k and an empty one; reads off either strand, with N, with
	// substitutions, spanning two family members, and from nowhere.
	t.Run("ties, repeats and N", func(t *testing.T) {
		for seed := int64(0); seed < 20; seed++ {
			rng := rand.New(rand.NewSource(900 + seed))
			k := []int{5, 11, 21, 31}[seed%4]
			var txs [][]byte
			for f := 0; f < 3; f++ {
				base := randBases(rng, 150+rng.Intn(200))
				txs = append(txs, base)
				variant := slices.Clone(base)
				variant[rng.Intn(len(variant))] = 'A'
				txs = append(txs, variant, slices.Clone(base), seq.ReverseComplement(base[10:120]))
			}
			unit := randBases(rng, 40)
			txs = append(txs, slices.Concat(unit, unit, unit), randBases(rng, k-1), nil)
			rng.Shuffle(len(txs), func(i, j int) { txs[i], txs[j] = txs[j], txs[i] })
			transcripts := make([]seq.FastaRecord, len(txs))
			for i, s := range txs {
				transcripts[i] = seq.FastaRecord{ID: fmt.Sprintf("t%d", i), Seq: s}
			}
			var reads []seq.Read
			for i := 0; i < 300; i++ {
				src := txs[rng.Intn(len(txs))]
				r := randBases(rng, 50)
				if len(src) >= 50 && rng.Intn(10) > 0 {
					from := rng.Intn(len(src) - 49)
					r = slices.Clone(src[from : from+50])
				}
				switch rng.Intn(6) {
				case 0:
					r = seq.ReverseComplement(r)
				case 1:
					r[rng.Intn(len(r))] = 'N'
				case 2:
					r[rng.Intn(len(r))] = "ACGT"[rng.Intn(4)]
				case 3: // half from one transcript, half from another
					other := txs[rng.Intn(len(txs))]
					if len(other) >= 25 {
						copy(r[25:], other[:25])
					}
				}
				reads = append(reads, seq.Read{ID: fmt.Sprintf("r%d", i), Seq: r})
			}
			reads = append(reads, seq.Read{ID: "short", Seq: []byte("ACG")}, seq.Read{ID: "allN", Seq: []byte("NNNNNNNNNNNNNNNNNNNNNNNNNNNNNNNNNNNNNNNN")})
			for _, minVotes := range []int{1, 3, 20} {
				checkAssign(t, k, transcripts, reads, minVotes)
			}
		}
	})
}
