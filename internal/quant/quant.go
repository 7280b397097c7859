// Package quant implements the transcript-quantification step of the
// Rnnotator workflow (Fig. 1, step "transcript quantification"):
// reads are pseudo-aligned to the assembled transcripts by shared
// k-mer voting and summarized as counts and TPM, the inputs of the
// optional differential-expression step.
package quant

import (
	"fmt"
	"sort"

	"rnascale/internal/seq"
	"rnascale/internal/simdata"
	"rnascale/internal/vclock"
)

// Options configure the quantifier.
type Options struct {
	// K is the pseudo-alignment k-mer size.
	K int
	// MinVotes is the minimum k-mer votes for an assignment; reads
	// below it are unassigned.
	MinVotes int
}

// DefaultOptions are tuned for 50–100 bp reads.
func DefaultOptions() Options { return Options{K: 21, MinVotes: 3} }

// Abundance is one transcript's quantification.
type Abundance struct {
	ID     string
	Length int
	Count  int64
	TPM    float64
}

// Result is a quantification run.
type Result struct {
	Abundances []Abundance
	// AssignedReads and TotalReads report mapping yield.
	AssignedReads, TotalReads int64
}

// MappingRate reports the fraction of reads assigned.
func (r *Result) MappingRate() float64 {
	if r.TotalReads == 0 {
		return 0
	}
	return float64(r.AssignedReads) / float64(r.TotalReads)
}

// Quantify pseudo-aligns reads against transcripts.
func Quantify(transcripts []seq.FastaRecord, reads []seq.Read, opts Options) (*Result, error) {
	if opts.K < 1 || opts.K > seq.MaxK {
		return nil, fmt.Errorf("quant: k=%d", opts.K)
	}
	if len(transcripts) == 0 {
		return nil, fmt.Errorf("quant: no transcripts")
	}
	if opts.MinVotes < 1 {
		opts.MinVotes = 1
	}
	coder := seq.MustKmerCoder(opts.K)

	// Index: canonical k-mer -> transcript indices (small lists).
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
	votes := map[int32]int{}
	for i := range reads {
		for k := range votes {
			delete(votes, k)
		}
		coder.ForEachCanonical(reads[i].Seq, func(_ int, canon seq.Kmer) bool {
			for _, ti := range index[canon] {
				votes[ti]++
			}
			return true
		})
		// Winner: most votes; deterministic tie-break by index.
		best, bestVotes := int32(-1), 0
		for ti, v := range votes {
			if v > bestVotes || (v == bestVotes && best >= 0 && ti < best) {
				best, bestVotes = ti, v
			}
		}
		if best >= 0 && bestVotes >= opts.MinVotes {
			counts[best]++
			assigned++
		}
	}

	// TPM: rate = count / length; TPM = rate / Σrate × 1e6.
	var rateSum float64
	rates := make([]float64, len(transcripts))
	for i, tx := range transcripts {
		if len(tx.Seq) > 0 {
			rates[i] = float64(counts[i]) / float64(len(tx.Seq))
		}
		rateSum += rates[i]
	}
	res := &Result{TotalReads: int64(len(reads)), AssignedReads: assigned}
	for i, tx := range transcripts {
		tpm := 0.0
		if rateSum > 0 {
			tpm = rates[i] / rateSum * 1e6
		}
		res.Abundances = append(res.Abundances, Abundance{
			ID: tx.ID, Length: len(tx.Seq), Count: counts[i], TPM: tpm,
		})
	}
	sort.SliceStable(res.Abundances, func(a, b int) bool {
		return res.Abundances[a].Count > res.Abundances[b].Count
	})
	return res, nil
}

// CostModel gives the stage's virtual runtime and footprint; the
// post-processing inputs are far smaller than raw data, so a single
// VM suffices (paper: "the data size for these steps is a lot less
// than the original sequencing read data").
type CostModel struct {
	BytesPerCoreSecond float64
	MemBaseGB          float64
	MemPerPostGB       float64 // GB of RSS per GB of post-preprocessing data
}

// DefaultCostModel is calibrated to the sample run's 41-minute
// post-processing stage on one c3.2xlarge.
func DefaultCostModel() CostModel {
	return CostModel{BytesPerCoreSecond: 8.9e3, MemBaseGB: 2.0, MemPerPostGB: 0.3}
}

// Duration reports the post-processing virtual runtime on `cores`.
func (m CostModel) Duration(fs simdata.FullScaleStats, cores int) vclock.Duration {
	if cores <= 0 {
		cores = 1
	}
	return vclock.Duration(float64(fs.PostPreprocessBytes) / (m.BytesPerCoreSecond * float64(cores)))
}

// MemoryGB reports the post-processing footprint — small enough to
// fit any instance type in the catalogue (Table IV's all-O row).
func (m CostModel) MemoryGB(fs simdata.FullScaleStats) float64 {
	return m.MemBaseGB + m.MemPerPostGB*float64(fs.PostPreprocessBytes)/1e9
}
