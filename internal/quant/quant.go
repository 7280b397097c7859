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
	counts, assigned := assign(seq.MustKmerCoder(opts.K), transcripts, reads, opts.MinVotes)

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

// assign gives each read to the transcript most of its k-mers vote for,
// if at least minVotes do, and returns the reads per transcript and
// their total.
func assign(coder seq.KmerCoder, transcripts []seq.FastaRecord, reads []seq.Read, minVotes int) (counts []int64, assigned int64) {
	idx := newIndex(coder, transcripts)
	counts = make([]int64, len(transcripts))
	// votes holds the current read's votes per transcript and touched
	// the transcripts that have any, so clearing costs what was cast.
	votes := make([]int32, len(transcripts))
	var touched []int32
	for i := range reads {
		coder.ForEachCanonical(reads[i].Seq, func(_ int, canon seq.Kmer) bool {
			for _, ti := range idx.lookup(canon) {
				if votes[ti] == 0 {
					touched = append(touched, ti)
				}
				votes[ti]++
			}
			return true
		})
		// Winner: most votes; deterministic tie-break by index.
		best, bestVotes := int32(-1), int32(0)
		for _, ti := range touched {
			if v := votes[ti]; v > bestVotes || (v == bestVotes && ti < best) {
				best, bestVotes = ti, v
			}
			votes[ti] = 0
		}
		touched = touched[:0]
		if best >= 0 && int(bestVotes) >= minVotes {
			counts[best]++
			assigned++
		}
	}
	return counts, assigned
}

// index maps a canonical k-mer to the transcripts that hold it: the
// k-mer's slot in table picks its run of postings, ascending
// transcript indices with none repeated.
type index struct {
	table    *seq.KmerTable // canonical k-mer -> its windows over all transcripts
	runs     []run          // by slot of table
	postings []int32
}

// run is postings[start : start+n].
type run struct{ start, n uint32 }

func newIndex(coder seq.KmerCoder, transcripts []seq.FastaRecord) *index {
	windows := 0
	for _, tx := range transcripts {
		windows += max(len(tx.Seq)-coder.K+1, 0)
	}
	x := &index{table: seq.NewKmerTable(windows), postings: make([]int32, windows)}
	each := func(fn func(ti int32, canon seq.Kmer)) {
		for ti, tx := range transcripts {
			coder.ForEachCanonical(tx.Seq, func(_ int, canon seq.Kmer) bool {
				fn(int32(ti), canon)
				return true
			})
		}
	}
	// One pass counts each k-mer's windows, which bounds its run; the
	// table is then final and slots stay put. A second pass opens a
	// k-mer's run where it first meets the k-mer, so runs lie in
	// transcript order and a read walks them front to back, and fills
	// it, skipping a transcript that holds the k-mer twice.
	each(func(_ int32, canon seq.Kmer) { x.table.Add(canon, 1) })
	x.runs = make([]run, x.table.Slots())
	var next uint32
	each(func(ti int32, canon seq.Kmer) {
		slot := x.table.Find(canon)
		r := &x.runs[slot]
		if r.n == 0 {
			_, windows, _ := x.table.At(slot)
			r.start, next = next, next+windows
		}
		if end := r.start + r.n; r.n == 0 || x.postings[end-1] != ti {
			x.postings[end] = ti
			r.n++
		}
	})
	return x
}

// lookup returns the transcripts that hold the canonical k-mer.
func (x *index) lookup(canon seq.Kmer) []int32 {
	slot := x.table.Find(canon)
	if slot < 0 {
		return nil
	}
	r := x.runs[slot]
	return x.postings[r.start : r.start+r.n]
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
