// Package merge combines contig sets from multiple k-mer assemblies
// (and, for the MAMP option, multiple assemblers) into one
// non-redundant transcript set — the role VMATCH and Minimus2 play in
// Rnnotator's post-processing ("assembled contigs from different
// k-mer assemblies are then processed for identifying overlaps and
// merged").
//
// Two passes run to a fixed point:
//
//   - containment removal: a contig equal to, or wholly contained in,
//     another contig (either strand) is dropped (the VMATCH role);
//   - overlap joining: contigs sharing a unique, exact suffix–prefix
//     overlap of at least MinOverlap bases are spliced together (the
//     Minimus2 role).
package merge

import (
	"fmt"
	"sort"
	"strings"

	"rnascale/internal/seq"
)

// Options tune the merger.
type Options struct {
	// MinOverlap is the minimum exact suffix–prefix overlap to join
	// two contigs.
	MinOverlap int
	// MaxRounds bounds the join iterations.
	MaxRounds int
}

// DefaultOptions mirror Minimus2-style defaults (40 bp overlap).
func DefaultOptions() Options {
	return Options{MinOverlap: 40, MaxRounds: 8}
}

// Stats reports what the merger did.
type Stats struct {
	Input       int
	Contained   int
	Joined      int
	Output      int
	InputBases  int64
	OutputBases int64
}

// String renders a compact report.
func (s Stats) String() string {
	return fmt.Sprintf("merge: %d -> %d contigs (%d contained, %d joins, %d -> %d bases)",
		s.Input, s.Output, s.Contained, s.Joined, s.InputBases, s.OutputBases)
}

// Merge combines the contig sets.
func Merge(sets [][]seq.FastaRecord, opts Options) ([]seq.FastaRecord, Stats) {
	if opts.MinOverlap <= 0 {
		opts.MinOverlap = DefaultOptions().MinOverlap
	}
	if opts.MaxRounds <= 0 {
		opts.MaxRounds = DefaultOptions().MaxRounds
	}
	var pool []string
	var st Stats
	for _, set := range sets {
		for _, c := range set {
			pool = append(pool, string(c.Seq))
			st.InputBases += int64(len(c.Seq))
		}
	}
	st.Input = len(pool)

	pool = dropContained(pool, &st)
	for round := 0; round < opts.MaxRounds; round++ {
		joined, n := joinOverlaps(pool, opts.MinOverlap)
		st.Joined += n
		pool = joined
		if n == 0 {
			break
		}
		pool = dropContained(pool, &st)
	}

	// Deterministic output: longest first, ties lexicographic.
	sort.Slice(pool, func(a, b int) bool {
		if len(pool[a]) != len(pool[b]) {
			return len(pool[a]) > len(pool[b])
		}
		return pool[a] < pool[b]
	})
	out := make([]seq.FastaRecord, len(pool))
	for i, s := range pool {
		out[i] = seq.FastaRecord{
			ID:  fmt.Sprintf("transcript%05d len=%d", i, len(s)),
			Seq: []byte(s),
		}
		st.OutputBases += int64(len(s))
	}
	st.Output = len(out)
	return out, st
}

// dropContained removes contigs contained in a longer (or equal,
// later-sorted) contig on either strand.
func dropContained(pool []string, st *Stats) []string {
	// Sort longest first so containment checks only look at longer
	// predecessors.
	sort.Slice(pool, func(a, b int) bool {
		if len(pool[a]) != len(pool[b]) {
			return len(pool[a]) > len(pool[b])
		}
		return pool[a] < pool[b]
	})
	// Room for every window the whole pool could file: past the first
	// round little of a pool is contained, so little of it goes unused.
	windows := 0
	for _, c := range pool {
		windows += len(c)/seedStep + 1
	}
	idx := seedIndex{
		coder: seq.MustKmerCoder(seedLen),
		heads: seq.NewKmerTable(windows),
		posts: make([]seedPosting, 0, windows),
	}
	for _, c := range pool {
		if idx.contains(c) {
			st.Contained++
			continue
		}
		idx.keep(c)
	}
	return idx.kept
}

// A seedIndex files kept contigs under seeds of seedLen bases — 32, the
// most one word of 2-bit codes holds, so that few seeds outside a true
// containment repeat (paralogs apart) — taken at every seedStep-th
// position. A contig needs seedLen+seedStep-1 = 47 bases to be looked
// up through the index; assemblers emit contigs of 2k bases or more, so
// at k >= 24 (every k of the two benchmark profiles) all of them are.
const (
	seedLen  = 32
	seedStep = 16
)

// seedIndex answers whether a contig is a substring of a kept contig
// or of its reverse complement, exactly. The windows of a kept contig
// that start at a multiple of seedStep are filed under the canonical
// form of their 2-bit code. Wherever a contig lies in a kept one, on
// either strand, one of its first seedStep windows falls on such a
// position: looking all of them up and comparing the whole contig at
// each hit, on both strands, finds every containment and accepts
// nothing else.
type seedIndex struct {
	coder seq.KmerCoder
	kept  []string
	heads *seq.KmerTable // canonical seed -> 1 + its first posting in posts
	posts []seedPosting
}

// seedPosting is one filed window of a kept contig; next chains the
// postings of one seed and is -1 at the end.
type seedPosting struct{ contig, pos, next int32 }

// keep adds c to the kept contigs and files its windows.
func (x *seedIndex) keep(c string) {
	contig := int32(len(x.kept))
	x.kept = append(x.kept, c)
	x.coder.ForEachCanonical([]byte(c), func(pos int, seed seq.Kmer) bool {
		if pos%seedStep != 0 {
			return true
		}
		p := seedPosting{contig, int32(pos), -1}
		if slot := x.heads.Find(seed); slot < 0 {
			x.heads.Add(seed, uint32(len(x.posts)+1))
		} else {
			// The head stays where the table points; p goes in behind it.
			_, head, _ := x.heads.At(slot)
			p.next, x.posts[head-1].next = x.posts[head-1].next, int32(len(x.posts))
		}
		x.posts = append(x.posts, p)
		return true
	})
}

// contains reports whether c or its reverse complement is a substring
// of a kept contig.
func (x *seedIndex) contains(c string) bool {
	rc := string(seq.ReverseComplement([]byte(c)))
	found, windows := false, 0
	x.coder.ForEachCanonical([]byte(c[:min(len(c), seedLen+seedStep-1)]), func(off int, seed seq.Kmer) bool {
		windows++
		found = x.at(seed, off, c, rc)
		return !found
	})
	if found || windows == seedStep {
		return found
	}
	// c is shorter than seedStep windows, or one of them has a byte
	// outside ACGT and so no code: a kept contig holding c would have
	// left the matching window unfiled.
	for _, k := range x.kept {
		if strings.Contains(k, c) || strings.Contains(k, rc) {
			return true
		}
	}
	return false
}

// at reports whether a kept contig holds c, or its reverse complement
// rc, where a window filed under seed — c's window at off — puts it.
func (x *seedIndex) at(seed seq.Kmer, off int, c, rc string) bool {
	slot := x.heads.Find(seed)
	if slot < 0 {
		return false
	}
	_, head, _ := x.heads.At(slot)
	for p := int32(head) - 1; p >= 0; p = x.posts[p].next {
		k, pos := x.kept[x.posts[p].contig], int(x.posts[p].pos)
		// Forward, c starts off bases before the window; reversed, it
		// ends off bases after it.
		if from := pos - off; from >= 0 && from+len(c) <= len(k) && k[from:from+len(c)] == c {
			return true
		}
		if to := pos + seedLen + off; to <= len(k) && to >= len(c) && k[to-len(c):to] == rc {
			return true
		}
	}
	return false
}

// joinOverlaps splices contig pairs sharing a unique exact
// suffix–prefix overlap of at least minOv bases, considering both
// orientations of the partner. The longest overlap wins; ambiguous
// overlaps (two possible partners at the same length) leave the
// contig untouched, as Minimus2 does at repeat boundaries. Returns
// the new pool and the number of joins performed.
func joinOverlaps(pool []string, minOv int) ([]string, int) {
	type anchor struct {
		idx int
		rc  bool
	}
	// Index every contig's first minOv bases, forward and RC.
	prefix := map[string][]anchor{}
	rcs := make([]string, len(pool))
	for i, c := range pool {
		if len(c) < minOv {
			continue
		}
		rcs[i] = string(seq.ReverseComplement([]byte(c)))
		prefix[c[:minOv]] = append(prefix[c[:minOv]], anchor{i, false})
		prefix[rcs[i][:minOv]] = append(prefix[rcs[i][:minOv]], anchor{i, true})
	}
	used := make([]bool, len(pool))
	var out []string
	joins := 0
	for i, c := range pool {
		if used[i] || len(c) < minOv {
			continue
		}
		// Scan overlap start positions from longest overlap to the
		// minimum; the anchor is the first minOv bases of the overlap.
		var partner int = -1
		var partnerSeq string
		ambiguous := false
		for p := 0; p+minOv <= len(c) && partner < 0 && !ambiguous; p++ {
			ov := len(c) - p
			for _, a := range prefix[c[p:p+minOv]] {
				if a.idx == i || used[a.idx] {
					continue
				}
				d := pool[a.idx]
				if a.rc {
					d = rcs[a.idx]
				}
				// Full overlap check: c's suffix from p must equal d's
				// prefix, and d must extend past the overlap.
				if len(d) <= ov || c[p:] != d[:ov] {
					continue
				}
				if partner >= 0 {
					ambiguous = true
					break
				}
				partner = a.idx
				partnerSeq = d
			}
		}
		if partner < 0 || ambiguous {
			continue
		}
		ov := 0
		// Recompute the overlap length for the chosen partner (the
		// scan guarantees c's suffix equals partnerSeq's prefix).
		for p := 0; p+minOv <= len(c); p++ {
			l := len(c) - p
			if l < len(partnerSeq) && c[p:] == partnerSeq[:l] {
				ov = l
				break
			}
		}
		if ov == 0 {
			continue
		}
		merged := c + partnerSeq[ov:]
		used[i] = true
		used[partner] = true
		out = append(out, merged)
		joins++
	}
	for i, c := range pool {
		if !used[i] {
			out = append(out, c)
		}
	}
	return out, joins
}
