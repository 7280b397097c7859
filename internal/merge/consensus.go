package merge

import (
	"fmt"
	"sort"

	"rnascale/internal/seq"
)

// This file implements the ensemble/consensus merging direction the
// paper leaves as future work: "there seems to be higher opportunities
// to show better performing MAMP-based methods in the future with
// novel ideas for validating transcripts and properly merging them."
//
// ConsensusMerge validates each contig by cross-assembler k-mer
// support before the ordinary merge: a contig region is *supported*
// when its k-mers occur in the output of at least MinSupport of the
// contributing assemblers. Contigs whose supported fraction falls
// below MinSupportedFrac are dropped — the ensemble-voting idea of
// iMetAMOS-style consensus assembly, which trades a little recall for
// precision on single-tool artifacts.

// ConsensusOptions tune the validation pass.
type ConsensusOptions struct {
	// Merge carries the ordinary merging options.
	Merge Options
	// K is the support-voting k-mer size.
	K int
	// MinSupport is the number of assemblers that must contain a
	// k-mer for it to count as supported.
	MinSupport int
	// MinSupportedFrac drops contigs whose supported k-mer fraction
	// is below this.
	MinSupportedFrac float64
}

// DefaultConsensusOptions require 2-of-N support over 70% of a
// contig.
func DefaultConsensusOptions() ConsensusOptions {
	return ConsensusOptions{
		Merge:            DefaultOptions(),
		K:                25,
		MinSupport:       2,
		MinSupportedFrac: 0.7,
	}
}

// ConsensusStats extends the merge stats with validation counts.
type ConsensusStats struct {
	Stats
	// Validated and Rejected count contigs passing/failing the vote.
	Validated, Rejected int
}

// ConsensusMerge merges one contig set per assembler with
// cross-assembler validation. With fewer than two sets it degrades to
// the plain merge (no vote is possible).
func ConsensusMerge(perAssembler [][]seq.FastaRecord, opts ConsensusOptions) ([]seq.FastaRecord, ConsensusStats, error) {
	if opts.K < 1 || opts.K > seq.MaxK {
		return nil, ConsensusStats{}, fmt.Errorf("merge: consensus k=%d", opts.K)
	}
	if opts.MinSupport < 1 {
		opts.MinSupport = 1
	}
	if len(perAssembler) < 2 || opts.MinSupport < 2 {
		out, st := Merge(perAssembler, opts.Merge)
		return out, ConsensusStats{Stats: st, Validated: st.Output}, nil
	}
	coder, err := seq.NewKmerCoder(opts.K)
	if err != nil {
		return nil, ConsensusStats{}, err
	}
	// Support index: canonical k-mer -> number of assemblers
	// containing it.
	support := map[seq.Kmer]uint8{}
	for _, set := range perAssembler {
		seen := map[seq.Kmer]bool{}
		for _, c := range set {
			coder.ForEachCanonical(c.Seq, func(_ int, canon seq.Kmer) bool {
				if !seen[canon] {
					seen[canon] = true
					support[canon]++
				}
				return true
			})
		}
	}
	var cs ConsensusStats
	validated := make([][]seq.FastaRecord, len(perAssembler))
	for si, set := range perAssembler {
		for _, c := range set {
			var total, supported int
			coder.ForEachCanonical(c.Seq, func(_ int, canon seq.Kmer) bool {
				total++
				if int(support[canon]) >= opts.MinSupport {
					supported++
				}
				return true
			})
			if total == 0 {
				cs.Rejected++
				continue
			}
			if float64(supported)/float64(total) >= opts.MinSupportedFrac {
				validated[si] = append(validated[si], c)
				cs.Validated++
			} else {
				cs.Rejected++
			}
		}
	}
	out, st := Merge(validated, opts.Merge)
	cs.Stats = st
	sort.SliceStable(out, func(a, b int) bool { return len(out[a].Seq) > len(out[b].Seq) })
	return out, cs, nil
}
