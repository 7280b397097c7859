// Differential expression: the optional fourth Rnnotator stage,
// applied "for cases when multiple sample conditions are provided".
//
// Two synthetic conditions are simulated from the same ground-truth
// transcriptome — condition B has two genes perturbed (one induced
// 8×, one repressed 8×). The pipeline assembles a reference from
// condition A, both conditions are quantified against it by k-mer
// pseudo-alignment, and the differential test recovers the perturbed
// genes at 5% FDR.
package main

import (
	"fmt"
	"log"
	"strings"

	"rnascale"
	"rnascale/internal/diffexpr"
	"rnascale/internal/preprocess"
	"rnascale/internal/quant"
	"rnascale/internal/simdata"
)

func main() {
	ds, err := simdata.Generate(simdata.Tiny())
	if err != nil {
		log.Fatal(err)
	}

	// Perturb the two most-expressed genes for condition B.
	exprB := append([]float64(nil), ds.Expression...)
	g1, g2 := topTwo(exprB)
	exprB[g1] *= 8
	exprB[g2] /= 8
	readsB, err := ds.Resample(exprB, ds.Profile.Seed+1)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("condition A: %d reads; condition B: %d reads (gene%d ×8, gene%d ÷8)\n",
		len(ds.Reads.Reads), len(readsB.Reads), g1, g2)

	// Assemble the reference transcriptome from condition A through
	// the full pilot pipeline (single-assembler option for speed).
	cfg := rnascale.DefaultConfig()
	cfg.Assemblers = []string{"velvet"}
	rep, err := rnascale.Run(ds, cfg)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("assembled reference: %d transcripts (pipeline TTC %v)\n\n", len(rep.Transcripts), rep.TTC)

	// Quantify both conditions against the assembled reference.
	cleanA, _ := preprocess.Run(ds.Reads, preprocess.DefaultOptions())
	cleanB, _ := preprocess.Run(readsB, preprocess.DefaultOptions())
	qA, err := quant.Quantify(rep.Transcripts, cleanA.Reads, quant.DefaultOptions())
	if err != nil {
		log.Fatal(err)
	}
	qB, err := quant.Quantify(rep.Transcripts, cleanB.Reads, quant.DefaultOptions())
	if err != nil {
		log.Fatal(err)
	}

	ids := make([]string, len(rep.Transcripts))
	countsA := make([]int64, len(ids))
	countsB := make([]int64, len(ids))
	byID := map[string]int{}
	for i, tx := range rep.Transcripts {
		ids[i] = tx.ID
		byID[tx.ID] = i
	}
	for _, a := range qA.Abundances {
		countsA[byID[a.ID]] = a.Count
	}
	for _, a := range qB.Abundances {
		countsB[byID[a.ID]] = a.Count
	}

	rows, err := diffexpr.Test(ids, countsA, countsB)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("%-24s %8s %8s %8s %10s %4s\n", "transcript", "countA", "countB", "log2FC", "q-value", "sig")
	for i, r := range rows {
		if i >= 8 {
			break
		}
		mark := ""
		if r.Significant {
			mark = "*"
		}
		name := r.ID
		if cut := strings.IndexByte(name, ' '); cut > 0 {
			name = name[:cut]
		}
		fmt.Printf("%-24s %8d %8d %8.2f %10.2e %4s\n", name, r.CountA, r.CountB, r.Log2FC, r.QValue, mark)
	}
	nSig := 0
	for _, r := range rows {
		if r.Significant {
			nSig++
		}
	}
	fmt.Printf("\n%d transcripts differential at 5%% FDR (2 genes were truly perturbed)\n", nSig)
}

// topTwo returns the indices of the two largest expression values.
func topTwo(expr []float64) (int, int) {
	first, second := 0, 1
	if expr[second] > expr[first] {
		first, second = second, first
	}
	for i := 2; i < len(expr); i++ {
		switch {
		case expr[i] > expr[first]:
			first, second = i, first
		case expr[i] > expr[second]:
			second = i
		}
	}
	return first, second
}
