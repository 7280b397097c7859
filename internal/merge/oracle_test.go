package merge

import (
	"math/rand"
	"slices"
	"sort"
	"strings"
	"testing"

	"rnascale/internal/seq"
)

// referenceDropContained is the body dropContained had before the seed
// index: every contig searched for in every kept contig, both strands.
func referenceDropContained(pool []string, st *Stats) []string {
	sort.Slice(pool, func(a, b int) bool {
		if len(pool[a]) != len(pool[b]) {
			return len(pool[a]) > len(pool[b])
		}
		return pool[a] < pool[b]
	})
	var kept []string
	for _, c := range pool {
		rc := string(seq.ReverseComplement([]byte(c)))
		contained := false
		for _, k := range kept {
			if strings.Contains(k, c) || strings.Contains(k, rc) {
				contained = true
				break
			}
		}
		if contained {
			st.Contained++
			continue
		}
		kept = append(kept, c)
	}
	return kept
}

// checkDropContained runs both on copies of the pool and compares what
// is kept, in order, and how many were counted as contained.
func checkDropContained(t *testing.T, pool []string) {
	t.Helper()
	var got, want Stats
	kept := dropContained(slices.Clone(pool), &got)
	ref := referenceDropContained(slices.Clone(pool), &want)
	if !slices.Equal(kept, ref) || got != want {
		t.Fatalf("pool of %d: kept %d (%d contained), reference kept %d (%d contained)\npool: %q\nkept: %q\nwant: %q",
			len(pool), len(kept), got.Contained, len(ref), want.Contained, pool, kept, ref)
	}
}

func rcOf(s string) string { return string(seq.ReverseComplement([]byte(s))) }

func TestDropContainedMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	a, b := randSeq(rng, 400), randSeq(rng, 300)
	// Two contigs that share a stretch longer than a seed and then
	// diverge: seed hits that no containment stands behind.
	shared := randSeq(rng, 80)
	left, right := randSeq(rng, 60)+shared+randSeq(rng, 70), randSeq(rng, 90)+shared+randSeq(rng, 40)
	// A contig built of one repeated unit: many postings under few seeds.
	unit := randSeq(rng, seedStep)
	tandem := strings.Repeat(unit, 12)
	hand := map[string][]string{
		"both strands":            {a, a[50:250], rcOf(a[100:350]), b, rcOf(b)[20:200]},
		"equal-length duplicates": {a, a, rcOf(a), b, rcOf(b), b},
		"at either end":           {a, a[:120], a[len(a)-120:], rcOf(a[:120]), rcOf(a[len(a)-120:]), a[1:], a[:len(a)-1]},
		"every offset mod seedStep": func() (p []string) {
			p = append(p, a)
			for off := 0; off < 2*seedStep; off++ {
				p = append(p, a[off:off+100], rcOf(a[off+3:off+103]))
			}
			return p
		}(),
		"shorter than a seed":     {a, a[10:20], rcOf(a[200:231]), a[5 : 5+seedLen], "ACGT", "", randSeq(rng, 12)},
		"shorter than every step": {a, a[7 : 7+seedLen+seedStep-2], a[9 : 9+seedLen+seedStep-1], rcOf(a[30 : 30+seedLen+3])},
		"false seed hits":         {left, right, shared, left[30:150], rcOf(right[60:200]), left[40:140] + "A"},
		"repeats":                 {tandem, tandem[3:100], rcOf(tandem[5:77]), strings.Repeat(unit, 3), unit + unit[:5]},
		"one mismatch":            {a, a[50:150] + "T" + a[151:250], a[50:150] + string(a[150]) + a[151:250]},
		"bytes outside ACGT": {
			a[:100] + "N" + a[101:], a[60:140], a[:100] + "N" + a[101:160], a[90:100] + "N" + a[101:170], a[90:100] + "N" + a[101:130],
			"NNNNNNNNNNNNNNNNNNNNNNNNNNNNNNNNNNNNNNNNNNNNNNNNNNNNNNNNNNNN", "NNNNNNNNNNNNNNNNNNNNNNNNNNNNNNNNNNNNNNNNNNNNNNNNNNNN",
			strings.ToLower(a[200:300]), a[200:300],
		},
		"longer than any kept": {a[:100], a},
		"empty pool":           {},
	}
	for name, pool := range hand {
		t.Run(name, func(t *testing.T) { checkDropContained(t, pool) })
	}

	t.Run("random pools", func(t *testing.T) {
		for seed := int64(0); seed < 40; seed++ {
			rng := rand.New(rand.NewSource(500 + seed))
			var sources, pool []string
			for i := 0; i < 2+rng.Intn(4); i++ {
				sources = append(sources, randSeq(rng, 80+rng.Intn(400)))
			}
			pool = append(pool, sources...)
			for i := 0; i < 10+rng.Intn(40); i++ {
				src := sources[rng.Intn(len(sources))]
				from := rng.Intn(len(src))
				c := src[from : from+rng.Intn(len(src)-from+1)]
				switch rng.Intn(6) {
				case 0:
					c = rcOf(c)
				case 1: // breaks the containment, or does not
					if len(c) > 0 {
						at := rng.Intn(len(c))
						c = c[:at] + string("ACGTN"[rng.Intn(5)]) + c[at+1:]
					}
				case 2: // sticks out past the end of its source
					c += randSeq(rng, 1+rng.Intn(5))
				}
				pool = append(pool, c)
			}
			checkDropContained(t, pool)
		}
	})
}

// FuzzDropContained cuts a pool out of the fuzzer's bytes: contigs over
// a five-letter alphabet, so that containments, reverse complements,
// repeats and N all occur.
func FuzzDropContained(f *testing.F) {
	f.Add([]byte("0123012301230123012301230123012301230123012301230123\xff01230123012301230123012301230123012301230123\xff3210"))
	f.Add([]byte("00112233001122330011223300112233001122330011223300112233\xff4\xff\xff0011223300112233001122330011223300112233"))
	f.Fuzz(func(t *testing.T, data []byte) {
		var pool []string
		for _, part := range strings.Split(string(data), "\xff") {
			c := []byte(part)
			for i := range c {
				c[i] = "ACGTN"[c[i]%5]
			}
			pool = append(pool, string(c))
			// A contig alone is never contained: give each a slice of
			// itself, forward or reversed by its length's parity.
			if cut := c[len(c)/4 : len(c)-len(c)/8]; len(c)%2 == 0 {
				pool = append(pool, string(cut))
			} else {
				pool = append(pool, rcOf(string(cut)))
			}
		}
		var got, want Stats
		kept := dropContained(slices.Clone(pool), &got)
		ref := referenceDropContained(slices.Clone(pool), &want)
		if !slices.Equal(kept, ref) || got != want {
			t.Fatalf("kept %q (%d contained), reference %q (%d contained)", kept, got.Contained, ref, want.Contained)
		}
	})
}
