// Package diffexpr implements the optional differential gene
// expression step of the Rnnotator workflow (Fig. 1), applied when
// multiple sample conditions are provided: per-transcript count
// comparison between two conditions with library-size normalization,
// a normal-approximation two-proportion test, and Benjamini–Hochberg
// FDR control.
package diffexpr

import (
	"fmt"
	"math"
	"sort"
)

// The test uses the customary settings.
const (
	// pseudocount stabilizes fold changes of low counts.
	pseudocount = 1
	// fdr is the Benjamini–Hochberg target rate for the Significant
	// flag.
	fdr = 0.05
)

// Row is one transcript's differential-expression result.
type Row struct {
	ID          string
	CountA      int64
	CountB      int64
	Log2FC      float64
	PValue      float64
	QValue      float64
	Significant bool
}

// Test compares two conditions' count vectors (indexed identically).
func Test(ids []string, countsA, countsB []int64) ([]Row, error) {
	if len(ids) == 0 {
		return nil, fmt.Errorf("diffexpr: no transcripts")
	}
	if len(countsA) != len(ids) || len(countsB) != len(ids) {
		return nil, fmt.Errorf("diffexpr: %d ids, %d/%d counts", len(ids), len(countsA), len(countsB))
	}
	var totalA, totalB float64
	for i := range ids {
		if countsA[i] < 0 || countsB[i] < 0 {
			return nil, fmt.Errorf("diffexpr: negative count for %s", ids[i])
		}
		totalA += float64(countsA[i])
		totalB += float64(countsB[i])
	}
	if totalA == 0 || totalB == 0 {
		return nil, fmt.Errorf("diffexpr: a condition has zero total counts")
	}
	scaleA, scaleB := sizeFactors(countsA, countsB, totalA, totalB)

	rows := make([]Row, len(ids))
	for i := range ids {
		a := float64(countsA[i]) * scaleA
		b := float64(countsB[i]) * scaleB
		rows[i] = Row{ID: ids[i], CountA: countsA[i], CountB: countsB[i]}
		rows[i].Log2FC = math.Log2((a + pseudocount) / (b + pseudocount))
		// Two-proportion z-test on normalized counts (Poisson normal
		// approximation): z = (a-b)/sqrt(a+b).
		if a+b > 0 {
			z := (a - b) / math.Sqrt(a+b+2*pseudocount)
			rows[i].PValue = 2 * normalTail(math.Abs(z))
		} else {
			rows[i].PValue = 1
		}
	}
	applyBH(rows)
	// Strongest changes first.
	sort.SliceStable(rows, func(x, y int) bool {
		if rows[x].QValue != rows[y].QValue {
			return rows[x].QValue < rows[y].QValue
		}
		return math.Abs(rows[x].Log2FC) > math.Abs(rows[y].Log2FC)
	})
	return rows, nil
}

// sizeFactors computes DESeq-style median-of-ratios normalization
// multipliers, robust to a few dominant differential transcripts
// (unlike total-count scaling, which lets one strong signal bias
// every other test). Falls back to total-count scaling when too few
// transcripts are expressed in both conditions.
func sizeFactors(countsA, countsB []int64, totalA, totalB float64) (scaleA, scaleB float64) {
	var ra, rb []float64
	for i := range countsA {
		if countsA[i] > 0 && countsB[i] > 0 {
			geo := math.Sqrt(float64(countsA[i]) * float64(countsB[i]))
			ra = append(ra, float64(countsA[i])/geo)
			rb = append(rb, float64(countsB[i])/geo)
		}
	}
	if len(ra) < 3 {
		meanDepth := (totalA + totalB) / 2
		return meanDepth / totalA, meanDepth / totalB
	}
	return 1 / median(ra), 1 / median(rb)
}

// median returns the median of xs (xs is reordered).
func median(xs []float64) float64 {
	sort.Float64s(xs)
	n := len(xs)
	if n%2 == 1 {
		return xs[n/2]
	}
	return (xs[n/2-1] + xs[n/2]) / 2
}

// normalTail is the upper tail P(Z > z) of the standard normal.
func normalTail(z float64) float64 {
	return 0.5 * math.Erfc(z/math.Sqrt2)
}

// applyBH computes Benjamini–Hochberg q-values and sets Significant.
func applyBH(rows []Row) {
	n := len(rows)
	order := make([]int, n)
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool { return rows[order[a]].PValue < rows[order[b]].PValue })
	// q_i = min_{j>=i} p_j * n / j (1-based ranks).
	minSoFar := math.Inf(1)
	qs := make([]float64, n)
	for r := n - 1; r >= 0; r-- {
		q := rows[order[r]].PValue * float64(n) / float64(r+1)
		if q < minSoFar {
			minSoFar = q
		}
		qs[r] = math.Min(minSoFar, 1)
	}
	for r, idx := range order {
		rows[idx].QValue = qs[r]
		rows[idx].Significant = qs[r] <= fdr
	}
}
