package preprocess

import (
	"bytes"
	"fmt"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"rnascale/internal/seq"
	"rnascale/internal/simdata"
)

func read(id, bases string, quals ...int) seq.Read {
	r := seq.Read{ID: id, Seq: []byte(bases)}
	if len(quals) > 0 {
		r.Qual = make([]byte, len(quals))
		for i, q := range quals {
			r.Qual[i] = seq.PhredToByte(q)
		}
	}
	return r
}

func TestTrimQuality(t *testing.T) {
	rs := seq.ReadSet{Reads: []seq.Read{
		read("r1", "ACGTACGT", 30, 30, 30, 30, 30, 30, 5, 5),
	}}
	opts := DefaultOptions()
	opts.MinLength = 4
	out, st := Run(rs, opts)
	if len(out.Reads) != 1 {
		t.Fatalf("reads out: %d", len(out.Reads))
	}
	if got := string(out.Reads[0].Seq); got != "ACGTAC" {
		t.Errorf("trimmed to %q", got)
	}
	if st.TrimmedBases != 2 {
		t.Errorf("trimmed %d bases", st.TrimmedBases)
	}
	if len(out.Reads[0].Qual) != 6 {
		t.Error("qualities not trimmed with bases")
	}
}

func TestDropShort(t *testing.T) {
	rs := seq.ReadSet{Reads: []seq.Read{
		read("short", "ACG", 30, 30, 30),
		read("long", strings.Repeat("ACGT", 10)),
	}}
	out, st := Run(rs, DefaultOptions())
	if len(out.Reads) != 1 || out.Reads[0].ID != "long" {
		t.Errorf("kept %v", out.Reads)
	}
	if st.DroppedShort != 1 {
		t.Errorf("dropped short %d", st.DroppedShort)
	}
}

func TestDropNRich(t *testing.T) {
	rs := seq.ReadSet{Reads: []seq.Read{
		read("nrich", strings.Repeat("N", 20)+strings.Repeat("A", 20)),
		read("clean", strings.Repeat("ACGT", 10)),
	}}
	out, st := Run(rs, DefaultOptions())
	if len(out.Reads) != 1 || out.Reads[0].ID != "clean" {
		t.Errorf("kept %v", out.Reads)
	}
	if st.DroppedNRich != 1 {
		t.Errorf("dropped N-rich %d", st.DroppedNRich)
	}
}

func TestDedup(t *testing.T) {
	dup := strings.Repeat("ACGT", 10)
	rs := seq.ReadSet{Reads: []seq.Read{
		read("a", dup), read("b", dup), read("c", strings.Repeat("TTTT", 10)),
	}}
	out, st := Run(rs, DefaultOptions())
	if len(out.Reads) != 2 {
		t.Errorf("kept %d reads", len(out.Reads))
	}
	if st.DroppedDup != 1 {
		t.Errorf("dup drops %d", st.DroppedDup)
	}
	opts := DefaultOptions()
	opts.Dedup = false
	out, _ = Run(rs, opts)
	if len(out.Reads) != 3 {
		t.Error("dedup off still dropped")
	}
}

func TestPairedDropsWholeFragment(t *testing.T) {
	long := strings.Repeat("ACGT", 15)
	rs := seq.ReadSet{Paired: true, Reads: []seq.Read{
		read("f1/1", long), read("f1/2", "ACG", 30, 30, 30), // mate 2 too short
		read("f2/1", long), read("f2/2", long),
	}}
	out, st := Run(rs, DefaultOptions())
	if len(out.Reads) != 2 {
		t.Fatalf("kept %d reads, want the one intact pair", len(out.Reads))
	}
	if !out.Paired {
		t.Error("pairing flag lost")
	}
	if st.DroppedShort != 2 {
		t.Errorf("dropped short %d, want 2 (whole fragment)", st.DroppedShort)
	}
	if err := out.Validate(); err != nil {
		t.Error(err)
	}
}

func TestPairedDedupFragmentLevel(t *testing.T) {
	a := strings.Repeat("ACGT", 12)
	b := strings.Repeat("GGCC", 12)
	rs := seq.ReadSet{Paired: true, Reads: []seq.Read{
		read("f1/1", a), read("f1/2", b),
		read("f2/1", a), read("f2/2", b), // exact duplicate fragment
		read("f3/1", b), read("f3/2", a), // different order → kept
	}}
	out, st := Run(rs, DefaultOptions())
	if len(out.Reads) != 4 {
		t.Errorf("kept %d reads", len(out.Reads))
	}
	if st.DroppedDup != 2 {
		t.Errorf("dup drops %d", st.DroppedDup)
	}
}

func TestStatsString(t *testing.T) {
	rs := seq.ReadSet{Reads: []seq.Read{read("a", strings.Repeat("ACGT", 10))}}
	_, st := Run(rs, DefaultOptions())
	s := st.String()
	if !strings.Contains(s, "1 -> 1 reads") {
		t.Errorf("stats string %q", s)
	}
}

func TestRunOnSyntheticDataset(t *testing.T) {
	ds, err := simdata.Generate(simdata.Tiny())
	if err != nil {
		t.Fatal(err)
	}
	out, st := Run(ds.Reads, DefaultOptions())
	if st.OutputReads == 0 {
		t.Fatal("all reads filtered")
	}
	keep := float64(st.OutputReads) / float64(st.InputReads)
	if keep < 0.5 {
		t.Errorf("kept only %.0f%% of healthy synthetic reads", 100*keep)
	}
	if st.OutputBases > st.InputBases {
		t.Error("bases grew")
	}
	if err := out.Validate(); err != nil {
		t.Error(err)
	}
}

// TestRunNeverWritesInput: Run trims by re-slicing and filters by
// copying read headers, never writing the read set it is given, so a
// caller may pass a set it shares (the pipeline's single PA shard is
// the dataset's own reads).
func TestRunNeverWritesInput(t *testing.T) {
	ds, err := simdata.GenerateCached(simdata.Tiny())
	if err != nil {
		t.Fatal(err)
	}
	in := ds.Reads
	in.Reads = append(in.Reads[:len(in.Reads):len(in.Reads)],
		read("lowq/1", "ACGTACGT", 30, 30, 30, 30, 30, 2, 2, 2), read("lowq/2", strings.Repeat("N", 40)))
	want := make([]seq.Read, len(in.Reads))
	for i, r := range in.Reads {
		want[i] = seq.Read{ID: r.ID, Seq: bytes.Clone(r.Seq), Qual: bytes.Clone(r.Qual)}
	}
	for _, opts := range []Options{DefaultOptions(), {TrimQuality: 40, MinLength: 1, MaxNFraction: 1}} {
		if _, st := Run(in, opts); st.OutputReads == 0 {
			t.Fatal("all reads filtered")
		}
		if !reflect.DeepEqual(in.Reads, want) {
			t.Fatalf("Run(%+v) wrote into its input", opts)
		}
	}
}

func TestKmerPlan(t *testing.T) {
	ks := KmerPlan(50, 50)
	if len(ks) < 3 {
		t.Errorf("plan for 50 bp: %v", ks)
	}
	for i, k := range ks {
		if k%2 == 0 {
			t.Errorf("even k %d", k)
		}
		if i > 0 && ks[i] <= ks[i-1] {
			t.Errorf("non-increasing plan %v", ks)
		}
		if k >= 50 {
			t.Errorf("k %d >= read length", k)
		}
	}
	// Degenerate input still yields one usable k.
	ks = KmerPlan(8, 36)
	if len(ks) != 1 || ks[0] < 15 {
		t.Errorf("degenerate plan %v", ks)
	}
	// k never exceeds the codec's MaxK.
	for _, k := range KmerPlan(200, 200) {
		if k > seq.MaxK {
			t.Errorf("k %d beyond MaxK", k)
		}
	}
}

func TestCostModelCalibration(t *testing.T) {
	m := DefaultCostModel()
	// Sample run: 4.4 GB paired on 8 cores ≈ 44 min.
	fs := simdata.BGlumaePaired().FullScale
	d := m.Duration(fs, 8)
	if d < 35*60 || d > 55*60 {
		t.Errorf("4.4GB/8-core duration %v, want ≈44m", d)
	}
	// Table IV memory: B. Glumae fits 16 GB, P. Crispa does not.
	if got := m.MemoryGB(simdata.BGlumae().FullScale); got > 16 {
		t.Errorf("B. Glumae preprocess memory %.1f GB must fit c3.2xlarge", got)
	}
	if got := m.MemoryGB(simdata.PCrispa().FullScale); got <= 16 {
		t.Errorf("P. Crispa preprocess memory %.1f GB must exceed c3.2xlarge", got)
	}
	if got := m.MemoryGB(simdata.PCrispa().FullScale); got > 61 {
		t.Errorf("P. Crispa preprocess memory %.1f GB must fit r3.2xlarge", got)
	}
	// More cores, faster.
	if m.Duration(fs, 16) >= m.Duration(fs, 8) {
		t.Error("duration not decreasing in cores")
	}
	if m.Duration(fs, 0) <= 0 {
		t.Error("zero cores must fall back to one")
	}
}

// runMapReference is Run as it was before the fragment table: the same
// filters, with duplicates found by a map keyed on each surviving
// fragment's sequences. TestDedupMatchesMapReference holds Run to it.
func runMapReference(rs seq.ReadSet, opts Options) (seq.ReadSet, Stats) {
	st := Stats{InputReads: len(rs.Reads), InputBases: rs.TotalBases()}
	stride := 1
	if rs.Paired {
		stride = 2
	}
	reads := make([]seq.Read, 0, len(rs.Reads))
	var seen map[string]bool
	if opts.Dedup {
		seen = make(map[string]bool, len(rs.Reads)/stride)
	}
	var key []byte
	for i := 0; i+stride <= len(rs.Reads); i += stride {
		n := len(reads)
		reads = reads[:n+stride]
		ok := true
		for j, r := range rs.Reads[i : i+stride] {
			tr := trimRead(r, opts.TrimQuality)
			st.TrimmedBases += int64(len(r.Seq) - len(tr.Seq))
			if len(tr.Seq) < opts.MinLength {
				st.DroppedShort += stride
				ok = false
				break
			}
			if frac := float64(seq.CountN(tr.Seq)) / float64(len(tr.Seq)); frac > opts.MaxNFraction {
				st.DroppedNRich += stride
				ok = false
				break
			}
			reads[n+j] = tr
		}
		if !ok {
			reads = reads[:n]
			continue
		}
		if opts.Dedup {
			key = key[:0]
			for _, r := range reads[n:] {
				key = append(key, r.Seq...)
				key = append(key, '|')
			}
			if seen[string(key)] {
				st.DroppedDup += stride
				reads = reads[:n]
				continue
			}
			seen[string(key)] = true
		}
	}
	out := seq.ReadSet{Paired: rs.Paired}
	if len(reads) > 0 {
		out.Reads = reads[:len(reads):len(reads)]
	}
	st.OutputReads = len(out.Reads)
	st.OutputBases = out.TotalBases()
	if st.OutputReads > 0 {
		st.MeanReadLen = float64(st.OutputBases) / float64(st.OutputReads)
	}
	return out, st
}

// dupHeavyReads draws n reads from a small pool of sequences, so exact
// duplicates are common, and varies them the ways the filters see:
// a low-quality 3' tail of random bases that trimming cuts back to a
// pooled sequence, N-rich reads, and reads too short to keep.
func dupHeavyReads(seed int64, n int) []seq.Read {
	r := rand.New(rand.NewSource(seed))
	bases := func(k int, alphabet string) []byte {
		b := make([]byte, k)
		for i := range b {
			b[i] = alphabet[r.Intn(len(alphabet))]
		}
		return b
	}
	pool := make([][]byte, 12)
	for i := range pool {
		pool[i] = bases(20+r.Intn(40), "ACGT")
	}
	reads := make([]seq.Read, n)
	for i := range reads {
		s := bytes.Clone(pool[r.Intn(len(pool))])
		switch r.Intn(6) {
		case 0: // N-rich
			for j := range s {
				if r.Intn(4) == 0 {
					s[j] = 'N'
				}
			}
		case 1: // short
			s = s[:r.Intn(len(s))]
		}
		q := bytes.Repeat([]byte{seq.PhredToByte(35)}, len(s))
		if r.Intn(3) == 0 { // a low-quality tail trimming removes
			tail := r.Intn(8) + 1
			s = append(s, bases(tail, "ACGTN")...)
			q = append(q, bytes.Repeat([]byte{seq.PhredToByte(r.Intn(15))}, tail)...)
		}
		reads[i] = seq.Read{ID: fmt.Sprintf("r%d", i), Seq: s, Qual: q}
	}
	return reads
}

// TestDedupMatchesMapReference: over seeded single and paired read sets
// rich in exact duplicates, duplicates trimming makes equal, N-rich
// and short fragments, and the tiny profile's reads, Run keeps the
// same reads in the same order with the same Stats as the map-keyed
// reference, under stock and loosened filters.
func TestDedupMatchesMapReference(t *testing.T) {
	ds, err := simdata.GenerateCached(simdata.Tiny())
	if err != nil {
		t.Fatal(err)
	}
	names, sets := []string{"tiny"}, []seq.ReadSet{ds.Reads}
	for seed := int64(1); seed <= 6; seed++ {
		reads := dupHeavyReads(seed, 200+int(seed)*150)
		names = append(names, fmt.Sprintf("single/%d", seed), fmt.Sprintf("paired/%d", seed))
		sets = append(sets, seq.ReadSet{Reads: reads}, seq.ReadSet{Paired: true, Reads: reads})
	}
	loose := Options{TrimQuality: 10, MinLength: 5, MaxNFraction: 0.5, Dedup: true}
	for i, rs := range sets {
		name := names[i]
		for _, opts := range []Options{DefaultOptions(), loose} {
			got, gotSt := Run(rs, opts)
			want, wantSt := runMapReference(rs, opts)
			if !reflect.DeepEqual(got, want) || gotSt != wantSt {
				t.Errorf("%s %+v: %d reads %+v, reference %d reads %+v",
					name, opts, len(got.Reads), gotSt, len(want.Reads), wantSt)
			}
			if opts == loose && gotSt.DroppedDup == 0 {
				t.Errorf("%s: no duplicates dropped; the set exercises nothing", name)
			}
		}
	}
}
