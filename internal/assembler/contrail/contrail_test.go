package contrail

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"reflect"
	"runtime"
	"strconv"
	"strings"
	"testing"

	"rnascale/internal/assembler"
	"rnascale/internal/cloud"
	"rnascale/internal/mapreduce"
	"rnascale/internal/preprocess"
	"rnascale/internal/seq"
	"rnascale/internal/simdata"
)

func TestRecordRoundtrip(t *testing.T) {
	rec := record{seq: "ACGTACG", count: 42, l: "AC", r: "T"}
	back, err := parseRecord(rec.marshal())
	if err != nil || back != rec {
		t.Fatalf("roundtrip: %+v %v", back, err)
	}
	for _, bad := range []string{"", "a|b", "seq|notanumber|A|C", "a|1|A|C|extra"} {
		if _, err := parseRecord(bad); err == nil {
			t.Errorf("parsed %q", bad)
		}
	}
}

func TestAddBase(t *testing.T) {
	s := addBase("", 'T')
	s = addBase(s, 'A')
	s = addBase(s, 'T') // duplicate
	if s != "AT" {
		t.Errorf("addBase gave %q", s)
	}
}

func TestCanonString(t *testing.T) {
	if canonString("TTT") != "AAA" {
		t.Error("TTT should canonicalize to AAA")
	}
	if canonString("AAA") != "AAA" {
		t.Error("AAA is already canonical")
	}
	if canonString("ACG") != "ACG" { // RC is CGT > ACG
		t.Error("ACG canonical")
	}
}

// Compression must preserve the k-mer content of the graph: merging
// chains never invents or loses sequence.
func TestCompressionPreservesKmerContent(t *testing.T) {
	const k = 15
	genome := "ACGTTGCAATCGGCTAAGCTTACGGATCCTTAGGCAACTGGATCCATGCA"
	var input []mapreduce.KV
	for i := 0; i+29 <= len(genome); i += 2 {
		input = append(input, mapreduce.KV{Key: "r", Value: genome[i : i+29]})
	}
	kmersOf := func(kvs []mapreduce.KV) map[string]bool {
		out := map[string]bool{}
		for _, kv := range kvs {
			s := kv.Value
			if i := strings.IndexByte(s, '|'); i >= 0 {
				s = s[:i]
			}
			for j := 0; j+k <= len(s); j++ {
				out[canonString(s[j:j+k])] = true
			}
		}
		return out
	}
	// Assemble the reads and verify the contigs cover the same k-mers
	// as the raw input — compression must neither invent nor lose
	// sequence.
	reads := make([]seq.Read, len(input))
	for i, kv := range input {
		reads[i] = seq.Read{ID: "r", Seq: []byte(kv.Value)}
	}
	fs := simdata.Tiny().FullScale
	res, err := (&Contrail{}).Assemble(assembler.Request{
		Reads: reads, Params: assembler.Params{K: k, MinCoverage: 1, MinContigLen: k},
		Nodes: 2, CoresPerNode: 2, FullScale: fs,
	})
	if err != nil {
		t.Fatal(err)
	}
	var contigKVs []mapreduce.KV
	for _, c := range res.Contigs {
		contigKVs = append(contigKVs, mapreduce.KV{Key: c.ID, Value: string(c.Seq)})
	}
	want := kmersOf(input)
	got := kmersOf(contigKVs)
	missing := 0
	for km := range want {
		if !got[km] {
			missing++
		}
	}
	// Unitig breakpoints at branches may drop a few boundary k-mers,
	// but the bulk must survive.
	if float64(missing) > 0.1*float64(len(want)) {
		t.Errorf("%d of %d k-mers missing after compression", missing, len(want))
	}
	for km := range got {
		if !want[km] {
			t.Errorf("invented k-mer %s", km)
		}
	}
}

func TestCompressionRoundMergesChains(t *testing.T) {
	// A single linear chain: after the coin-flip rounds the record
	// count must drop substantially.
	const k = 15
	genome := "ACGTTGCAATCGGCTAAGCTTACGGATCCTTAGGCAACTG"
	var reads []seq.Read
	for i := 0; i+24 <= len(genome); i++ {
		reads = append(reads, seq.Read{ID: "r", Seq: []byte(genome[i : i+24])})
	}
	res, err := (&Contrail{}).Assemble(assembler.Request{
		Reads: reads, Params: assembler.Params{K: k, MinCoverage: 1, MinContigLen: 2 * k},
		Nodes: 1, CoresPerNode: 4, FullScale: simdata.Tiny().FullScale,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Contigs) != 1 {
		t.Fatalf("linear chain gave %d contigs", len(res.Contigs))
	}
	got := string(res.Contigs[0].Seq)
	rc := string(seq.ReverseComplement([]byte(got)))
	if got != genome && rc != genome {
		t.Errorf("contig %q does not reconstruct the chain", got)
	}
}

func TestNCheckToggle(t *testing.T) {
	reads := []seq.Read{{ID: "n", Seq: []byte("ACGTNACGTACGTACGTACGTACG")}}
	fs := simdata.Tiny().FullScale
	req := assembler.Request{Reads: reads, Params: assembler.Params{K: 15, MinCoverage: 1},
		Nodes: 1, CoresPerNode: 1, FullScale: fs}
	if _, err := (&Contrail{}).Assemble(req); err == nil {
		t.Error("N reads accepted with check on")
	}
	// AllowN tolerates the read (windows with N are skipped; assembly
	// may legitimately still fail for lack of contigs).
	if _, err := (&Contrail{AllowN: true}).Assemble(req); err != nil &&
		!strings.Contains(err.Error(), "no contigs") {
		t.Errorf("AllowN: unexpected error %v", err)
	}
}

// Under AllowN an ambiguous base must not reach the graph: no window
// spans it, and it never lands in a neighbour's edge set (it used to,
// as a NUL from the complement lookup). Every byte the build and
// compression jobs emit is a base, a digit, a separator or a tag.
func TestAllowNKeepsRecordsClean(t *testing.T) {
	const k = 5
	reads := []seq.Read{
		{ID: "mid", Seq: []byte("ACGTTNGCATG")},  // both stretches long enough to window
		{ID: "edge", Seq: []byte("NACGTTGN")},    // N as the only neighbour on each side
		{ID: "short", Seq: []byte("ACGNNACNGT")}, // no stretch reaches k
		{ID: "clean", Seq: []byte("ACGTTGCATG")},
	}
	e, err := mapreduce.NewEngine(mapreduce.DefaultConfig(2))
	if err != nil {
		t.Fatal(err)
	}
	out, _, err := buildGraph(e, reads, seq.MustKmerCoder(k), 1, 4)
	if err != nil {
		t.Fatal(err)
	}
	for r := 0; r < 2; r++ {
		res, err := e.Run(compressionJob(k, r, 4), out)
		if err != nil {
			t.Fatal(err)
		}
		out = res.Output
	}
	if len(out) == 0 {
		t.Fatal("no records")
	}
	for _, kv := range out {
		if i := strings.IndexFunc(kv.Key+kv.Value, func(r rune) bool { return !strings.ContainsRune("ACGT0123456789| NODEREQ", r) }); i >= 0 {
			t.Errorf("record %q holds byte %q", kv, (kv.Key + kv.Value)[i])
		}
	}
}

// splitParseRecord is the strings.Split parser the index-based one
// replaced, kept as its oracle.
func splitParseRecord(s string) (record, error) {
	parts := strings.Split(s, "|")
	if len(parts) != 4 {
		return record{}, fmt.Errorf("contrail: bad record %q", s)
	}
	n, err := strconv.ParseInt(parts[1], 10, 64)
	if err != nil {
		return record{}, fmt.Errorf("contrail: bad count in %q", s)
	}
	return record{seq: parts[0], count: n, l: parts[2], r: parts[3]}, nil
}

// FuzzParseRecord: the parser accepts and rejects exactly what the
// strings.Split version did, with the same fields and the same error
// text, and marshal is its inverse.
func FuzzParseRecord(f *testing.F) {
	for _, s := range []string{
		"ACGTACG|42|AC|T", "ACG|1||", "|0||", "NODE ACG|7|A|", // well-formed
		"", "a|b", "a|1|A", "a|1|A|C|extra", "||||", // 1-, 2-, 3- and 5-field
		"seq|notanumber|A|C", "seq||A|C", "seq|1.5|A|C", "seq|99999999999999999999|A|C", // bad counts
		"seq|+5|A|C", "seq|-3|A|C", "seq|007|A|C", // counts ParseInt takes but marshal would not write
	} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, s string) {
		got, err := parseRecord(s)
		want, werr := splitParseRecord(s)
		if (err == nil) != (werr == nil) || got != want || (err != nil && err.Error() != werr.Error()) {
			t.Fatalf("parseRecord(%q) = %+v, %v; the split parser gives %+v, %v", s, got, err, want, werr)
		}
		if err != nil {
			return
		}
		if strings.Contains(got.r, "|") || strings.Contains(got.seq+got.l, "|") {
			t.Fatalf("parseRecord(%q) left a separator in a field: %+v", s, got)
		}
		if back, err := parseRecord(got.marshal()); err != nil || back != got {
			t.Fatalf("parseRecord(marshal(%+v)) = %+v, %v", got, back, err)
		}
	})
}

// bglumaePins are Assemble's results on the bglumae profile's N-free
// cleaned reads at 16 nodes × C32XLarge.Cores, recorded on the commit
// before the flat-run shuffle and the allocation-lean codec landed.
// The record lengths are the virtual-time cost model, so the TTCs pin
// the wire format byte for byte; the digest covers every contig ID
// and sequence over all seven k.
var bglumaePins = []struct {
	k, contigs int
	ttc        string
}{
	{35, 97, "3923.895888852"},
	{37, 95, "3919.930289987"},
	{39, 94, "3921.595547806"},
	{41, 78, "3922.238844840"},
	{43, 79, "3916.284144739"},
	{45, 66, "3908.029341168"},
	{47, 50, "3913.527360995"},
}

const bglumaeContigsSHA256 = "38c5c3eefcfd247672674996c433135612df969bad7f27171299e538efa97b2a"

func TestBGlumaePins(t *testing.T) {
	if testing.Short() {
		t.Skip("seven full-profile assemblies")
	}
	ds, err := simdata.Generate(simdata.BGlumae())
	if err != nil {
		t.Fatal(err)
	}
	cleaned, _ := preprocess.Run(ds.Reads, preprocess.DefaultOptions())
	var reads []seq.Read
	for _, r := range cleaned.Reads {
		if seq.CountN(r.Seq) == 0 {
			reads = append(reads, r)
		}
	}
	fs := ds.Profile.FullScale
	fs.SeqDataBytes = fs.PostPreprocessBytes
	h := sha256.New()
	for _, pin := range bglumaePins {
		res, err := (&Contrail{}).Assemble(assembler.Request{
			Reads: reads, Params: assembler.Params{K: pin.k},
			Nodes: 16, CoresPerNode: cloud.C32XLarge.Cores, FullScale: fs,
		})
		if err != nil {
			t.Fatalf("k=%d: %v", pin.k, err)
		}
		if got := fmt.Sprintf("%.9f", res.TTC.Seconds()); len(res.Contigs) != pin.contigs || got != pin.ttc {
			t.Errorf("k=%d: %d contigs, TTC %s s; want %d, %s", pin.k, len(res.Contigs), got, pin.contigs, pin.ttc)
		}
		for _, c := range res.Contigs {
			fmt.Fprintf(h, "%s\n%s\n", c.ID, c.Seq)
		}
	}
	if got := hex.EncodeToString(h.Sum(nil)); got != bglumaeContigsSHA256 {
		t.Errorf("contigs digest %s, want %s", got, bglumaeContigsSHA256)
	}
}

// roundRecords is the per-round instrument of the compression chain:
// how many records a round takes in, the k-mer positions they hold,
// Σ len(seq) − (k−1)·records (a merge of two records keeps it), and
// how many of their seqs start with the "NODE " tag.
type roundRecords struct {
	records, kmers, tagged int
}

func measureRound(t *testing.T, k int, kvs []mapreduce.KV) roundRecords {
	t.Helper()
	var m roundRecords
	for _, kv := range kvs {
		rec, err := parseRecord(kv.Value)
		if err != nil {
			t.Fatalf("unparsable record %q: %v", kv.Value, err)
		}
		m.records++
		m.kmers += len(rec.seq) - (k - 1)
		if strings.HasPrefix(rec.seq, "NODE ") {
			m.tagged++
		}
	}
	return m
}

// The compression rounds as shipped merge in round 0 only. Every
// record a round emits carries a "NODE " tag that the next round's map
// does not strip, so from round 1 on every record's seq starts with the
// tag, no anchor matches, and the record count never drops again: the
// finalize job's graph pass does all the joining. Every round keeps
// the k-mer positions but for the tag, 5 bytes more per record. This
// pins that behaviour on the tiny profile; the fix turns it into the
// conservation law.
func TestCompressionRoundsAfterTheFirstMergeNothing(t *testing.T) {
	ds, err := simdata.Generate(simdata.Tiny())
	if err != nil {
		t.Fatal(err)
	}
	cleaned, _ := preprocess.Run(ds.Reads, preprocess.DefaultOptions())
	reads := seq.NFree(cleaned.Reads)
	const k, reducers = 25, 4
	e, err := mapreduce.NewEngine(mapreduce.DefaultConfig(2))
	if err != nil {
		t.Fatal(err)
	}
	run := func(job mapreduce.Job, in []mapreduce.KV) []mapreduce.KV {
		res, err := e.Run(job, in)
		if err != nil {
			t.Fatalf("%s: %v", job.Name, err)
		}
		return res.Output
	}
	out, _, err := buildGraph(e, reads, seq.MustKmerCoder(k), 2, reducers)
	if err != nil {
		t.Fatal(err)
	}
	// rounds[r] is what compression round r takes in; the last entry
	// is what the finalize job gets.
	rounds := []roundRecords{measureRound(t, k, out)}
	for r := 0; r < compressionRounds; r++ {
		out = run(compressionJob(k, r, reducers), out)
		rounds = append(rounds, measureRound(t, k, out))
	}
	for r, m := range rounds {
		t.Logf("round %d takes in %d records, %d k-mer positions, %d tagged", r, m.records, m.kmers, m.tagged)
	}
	if rounds[0].records == 0 || rounds[0].tagged != 0 {
		t.Fatalf("round 0 takes in %d records, %d of them tagged; want some, none tagged", rounds[0].records, rounds[0].tagged)
	}
	for r := 1; r < len(rounds); r++ {
		cur, prev := rounds[r], rounds[r-1]
		if cur.tagged != cur.records {
			t.Errorf("round %d: %d of %d records start with the NODE tag, want all", r, cur.tagged, cur.records)
		}
		if r >= 2 && cur.records < prev.records {
			t.Errorf("round %d merged: %d records after %d", r-1, cur.records, prev.records)
		}
		if want := prev.kmers + 5*cur.records; cur.kmers != want {
			t.Errorf("round %d: %d k-mer positions, want %d: round %d's %d and one tag per record", r, cur.kmers, want, r-1, prev.kmers)
		}
	}
}

// The typed build folds lowercase (soft-masked) bases into uppercase
// k-mers, as seq.KmerCoder does for every other assembler: a read and
// its lowercase twin build the same nodes.
func TestLowercaseReadBuildsUppercaseNodes(t *testing.T) {
	const k = 7
	upper := []byte("ACGTTGCAATCGGNCTAAGCTTACGG")
	e, err := mapreduce.NewEngine(mapreduce.DefaultConfig(2))
	if err != nil {
		t.Fatal(err)
	}
	build := func(s []byte) mapreduce.TypedResult[seq.Kmer, node] {
		res, err := mapreduce.RunTyped(e, buildJob(seq.MustKmerCoder(k), 3), []seq.Read{{ID: "r", Seq: s}})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	want := build(upper)
	got := build(bytes.ToLower(upper))
	if len(want.Output) == 0 || !reflect.DeepEqual(got, want) {
		t.Errorf("lowercase read built %+v, uppercase %+v", got, want)
	}
}

// On the tiny profile the typed build allocates 39 bytes per emitted
// window: the spilled 24-byte node, and a share of the fold index, the
// folded partition runs and the job output. Before the reduce folded
// each k-mer's nodes, it allocated 79, with 32-byte nodes and a
// partition run record per window; the text build allocated 169, a
// marshalled string per window on top. The bound, 15 % over the typed
// figure, keeps both from creeping back.
func TestTypedBuildBytesPerWindow(t *testing.T) {
	ds, err := simdata.Generate(simdata.Tiny())
	if err != nil {
		t.Fatal(err)
	}
	reads := seq.NFree(ds.Reads.Reads)
	const k = 25
	windows := 0
	for _, r := range reads {
		windows += max(0, len(r.Seq)-k+1)
	}
	e, err := mapreduce.NewEngine(mapreduce.DefaultConfig(2))
	if err != nil {
		t.Fatal(err)
	}
	job := buildJob(seq.MustKmerCoder(k), 4)
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	res, err := mapreduce.RunTyped(e, job, reads)
	runtime.ReadMemStats(&after)
	if err != nil || len(res.Output) == 0 {
		t.Fatalf("%d nodes, %v", len(res.Output), err)
	}
	perWindow := float64(after.TotalAlloc-before.TotalAlloc) / float64(windows)
	t.Logf("%d windows, %d nodes, %.1f bytes per window", windows, len(res.Output), perWindow)
	if perWindow > 45 {
		t.Errorf("the build allocated %.1f bytes per window, want ≤ 45", perWindow)
	}
}
