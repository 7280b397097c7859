package main

import (
	"math"
	"sort"
)

// percentile returns the p-th percentile (0–100) of vals by linear
// interpolation between closest ranks; NaN for no samples.
func percentile(vals []float64, p float64) float64 {
	if len(vals) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), vals...)
	sort.Float64s(s)
	pos := p / 100 * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func median(vals []float64) float64 { return percentile(vals, 50) }

// tailCandidates are the percentiles a tail may be reported at,
// highest first.
var tailCandidates = []float64{99.9, 99, 95, 90, 80, 75, 50}

// highestPercentile picks the highest candidate percentile that still
// has at least ten of n samples beyond it, and 100 (the maximum) when n
// is too small for any.
func highestPercentile(n int) float64 {
	for _, p := range tailCandidates {
		if float64(n)*(100-p)/100 >= 10-1e-9 { // 100-99.9 is not exact
			return p
		}
	}
	return 100
}

// rng is a splitmix64 generator: the seed-to-inputs function of the
// benchmark (read order, gateway request order).
type rng struct{ s uint64 }

func (r *rng) next() uint64 {
	r.s += 0x9E3779B97F4A7C15
	z := r.s
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return z ^ (z >> 31)
}

func (r *rng) intn(n int) int { return int(r.next() % uint64(n)) }
