package core

import (
	"bytes"
	"fmt"
	"math/rand"
	"path/filepath"
	"reflect"
	"testing"

	_ "rnascale/internal/assembler/all"
	"rnascale/internal/journal"
	"rnascale/internal/obs"
	"rnascale/internal/preprocess"
	"rnascale/internal/seq"
	"rnascale/internal/simdata"
)

// seededBases draws n bases from ACGTN.
func seededBases(rng *rand.Rand, n int) []byte {
	b := make([]byte, n)
	for i := range b {
		b[i] = "ACGTN"[rng.Intn(5)]
	}
	return b
}

// payloadShapes builds the PA and PB payloads the codec tests use,
// over seeded reads and contigs: paired mate IDs, IDs with spaces,
// reads without qualities, contig IDs carrying assembler annotations,
// and empty shards and contig sets.
func payloadShapes() ([]paPayload, []pbPayload) {
	rng := rand.New(rand.NewSource(29))
	var reads []seq.Read
	for f := 0; f < 40; f++ {
		for _, mate := range []string{"/1", "/2"} {
			n := 20 + rng.Intn(60)
			r := seq.Read{ID: fmt.Sprintf("bglumae_frag%05d%s", f, mate), Seq: seededBases(rng, n)}
			switch f % 4 {
			case 0: // FASTA-derived: no qualities
			case 1:
				r.ID = fmt.Sprintf("SRR%d.%d HWI-ST:%d length=%d", 1000+f, f, rng.Intn(9), n)
				fallthrough
			default:
				r.Qual = make([]byte, n)
				for i := range r.Qual {
					r.Qual[i] = seq.PhredToByte(rng.Intn(42))
				}
			}
			reads = append(reads, r)
		}
	}
	stats := preprocess.Stats{InputReads: 91, OutputReads: len(reads), InputBases: 7001,
		OutputBases: 5003, TrimmedBases: 17, DroppedDup: 2, MeanReadLen: 5003.0 / 80}
	pa := []paPayload{
		{Shard: 0, Reads: reads, Paired: true, Stats: stats},
		{Shard: 2, Reads: reads[3:4], Stats: preprocess.Stats{InputReads: 1}},
		{Shard: 1, Paired: true},
	}

	var contigs []seq.FastaRecord
	for i := 0; i < 25; i++ {
		n := 30 + rng.Intn(1200)
		contigs = append(contigs, seq.FastaRecord{
			ID:  fmt.Sprintf("abyss_contig%05d len=%d cov=%.1f", i, n, 2+rng.Float64()*20),
			Seq: seededBases(rng, n),
		})
	}
	pb := []pbPayload{
		{Contigs: contigs, TTCSeconds: 1234.5625, PeakMemoryGBPerNode: 3.75,
			Messages: 812, BytesSent: 1 << 33, N50: 1175},
		{Contigs: contigs[:1], TTCSeconds: 60},
		{TTCSeconds: 0.1},
	}
	return pa, pb
}

// TestJournalPayloadRoundTrip holds the PA and PB payload codecs to
// exact inverses over payloadShapes.
func TestJournalPayloadRoundTrip(t *testing.T) {
	pa, pb := payloadShapes()
	for _, p := range pa {
		b, err := encodePA(p)
		if err != nil {
			t.Fatal(err)
		}
		got, err := decodePA(b)
		if err != nil {
			t.Fatalf("shard %d: decode: %v", p.Shard, err)
		}
		if !reflect.DeepEqual(got, p) {
			t.Fatalf("shard %d (%d reads) did not round-trip:\n got  %+v\n want %+v", p.Shard, len(p.Reads), got, p)
		}
	}
	for _, p := range pb {
		b, err := encodePB(p)
		if err != nil {
			t.Fatal(err)
		}
		got, err := decodePB(b)
		if err != nil {
			t.Fatalf("%d contigs: decode: %v", len(p.Contigs), err)
		}
		if !reflect.DeepEqual(got, p) {
			t.Fatalf("%d contigs did not round-trip:\n got  %+v\n want %+v", len(p.Contigs), got, p)
		}
	}
}

// checkCuts decodes prefixes of a canonical payload e whose records
// are `lines` lines each, cut on both sides of the newline ending each
// of its first 16 and last 8 lines. A prefix that ends inside the meta
// line or inside a record is truncated and must be refused. One that
// ends on a record boundary is itself a well-formed payload with fewer
// records, so when accepted it must decode to prefix(n), the first n
// records.
func checkCuts(t *testing.T, e []byte, lines int, decode func([]byte) (any, error), prefix func(n int) any) {
	t.Helper()
	meta := bytes.IndexByte(e, '\n') + 1
	total, line := bytes.Count(e, []byte{'\n'}), 0
	for j, c := range e {
		if c != '\n' {
			continue
		}
		if line++; line > 16 && line <= total-8 {
			continue
		}
		for _, k := range []int{j, j + 1} {
			cut := e[:k]
			nl := bytes.Count(cut[min(meta, k):], []byte{'\n'})
			boundary := k >= meta && (k == meta || cut[k-1] == '\n') && nl%lines == 0
			got, err := decode(cut)
			switch {
			case !boundary && err == nil:
				t.Fatalf("truncated at byte %d of %d: accepted", k, len(e))
			case boundary && err == nil && !reflect.DeepEqual(got, prefix(nl/lines)):
				t.Fatalf("cut after record %d (byte %d of %d) decoded to other records", nl/lines, k, len(e))
			}
		}
	}
}

// FuzzDecodePA holds decodePA to never panicking, to refusing
// truncated payloads and reads whose qualities mis-declare the
// sequence length, and to being encodePA's exact inverse on every
// payload it accepts: decode(encode(decode(b))) == decode(b).
func FuzzDecodePA(f *testing.F) {
	pa, _ := payloadShapes()
	for _, p := range pa {
		b, err := encodePA(p)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(b)
	}
	f.Add([]byte("{}\n@r\nACG\n+\nII\n"))            // qualities one short
	f.Add([]byte("{}\n@r\nACG\n+\nIIII\n"))          // qualities one over
	f.Add([]byte("{\"noQual\":[1]}\n@r\nA\n+\nI\n")) // strips a read that is not there
	f.Add([]byte("{\"shard\":3}\n@r\nA\n+\nI"))      // final newline cut
	f.Fuzz(func(t *testing.T, b []byte) {
		p, err := decodePA(b)
		if err != nil {
			return
		}
		for i, r := range p.Reads {
			if r.Qual != nil && len(r.Qual) != len(r.Seq) {
				t.Fatalf("read %d: accepted %d qualities for %d bases", i, len(r.Qual), len(r.Seq))
			}
		}
		e, err := encodePA(p)
		if err != nil {
			t.Fatalf("accepted payload does not re-encode: %v", err)
		}
		q, err := decodePA(e)
		if err != nil {
			t.Fatalf("re-encoded payload refused: %v", err)
		}
		if !reflect.DeepEqual(q, p) {
			t.Fatalf("decode(encode(decode(b))) != decode(b):\n got  %+v\n want %+v", q, p)
		}
		checkCuts(t, e, 4, func(c []byte) (any, error) { return decodePA(c) }, func(n int) any {
			want := p
			want.Reads = nil
			if n > 0 {
				want.Reads = p.Reads[:n]
			}
			return want
		})
	})
}

// FuzzDecodePB holds decodePB to never panicking, to refusing
// truncated payloads (a cut meta line, a header without its sequence
// line, a missing final newline), and to being encodePB's exact
// inverse on every payload it accepts.
func FuzzDecodePB(f *testing.F) {
	_, pb := payloadShapes()
	for _, p := range pb {
		b, err := encodePB(p)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(b)
	}
	f.Add([]byte("{\"ttcSeconds\":1}\n>c\n"))     // header without its sequence line
	f.Add([]byte("{\"ttcSeconds\":1}\n>c\nACGT")) // final newline cut
	f.Add([]byte("{\"ttcSec"))                    // meta line cut
	f.Fuzz(func(t *testing.T, b []byte) {
		p, err := decodePB(b)
		if err != nil {
			return
		}
		e, err := encodePB(p)
		if err != nil {
			t.Fatalf("accepted payload does not re-encode: %v", err)
		}
		q, err := decodePB(e)
		if err != nil {
			t.Fatalf("re-encoded payload refused: %v", err)
		}
		if !reflect.DeepEqual(q, p) {
			t.Fatalf("decode(encode(decode(b))) != decode(b):\n got  %+v\n want %+v", q, p)
		}
		checkCuts(t, e, 2, func(c []byte) (any, error) { return decodePB(c) }, func(n int) any {
			want := p
			want.Contigs = nil
			if n > 0 {
				want.Contigs = p.Contigs[:n]
			}
			return want
		})
	})
}

// TestResumedReadsAreReadOnly cuts a journal after PA and resumes it,
// so PB and PC execute on the replayed reads; the journal bytes those
// reads were decoded from must come through the run unchanged.
func TestResumedReadsAreReadOnly(t *testing.T) {
	ds, err := simdata.GenerateCached(simdata.Tiny())
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	cfg := tinyConfig()
	if _, _, err := journalRun(t, ds, cfg, filepath.Join(dir, "full.journal")); err != nil {
		t.Fatal(err)
	}
	full, err := journal.Open(filepath.Join(dir, "full.journal"))
	if err != nil {
		t.Fatal(err)
	}
	cut := filepath.Join(dir, "cut.journal")
	w, err := journal.Create(cut)
	if err != nil {
		t.Fatal(err)
	}
	for _, rec := range full.Records {
		if _, err := w.Append(rec); err != nil {
			t.Fatal(err)
		}
		if rec.Kind == journal.KindStageEnd && rec.Stage == "PA" {
			break
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}

	lg, w, err := journal.Continue(cut)
	if err != nil {
		t.Fatal(err)
	}
	before := make([][]byte, len(lg.Records))
	for i, rec := range lg.Records {
		before[i] = bytes.Clone(rec.Payload)
	}
	cfg.Obs = obs.New()
	cfg.Resume, cfg.Journal = lg, w
	rep, err := New(cfg).Run(ds)
	if cerr := w.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		t.Fatal(err)
	}
	if st := rep.Journal; st.UnitsReplayed != preprocessShards(cfg) || st.UnitsExecuted == 0 {
		t.Fatalf("resume after PA replayed %d and executed %d units, want the PA shards replayed and the rest executed",
			st.UnitsReplayed, st.UnitsExecuted)
	}
	for i, rec := range lg.Records {
		if !bytes.Equal(rec.Payload, before[i]) {
			t.Fatalf("record %d (%s %s/%s): the run wrote into the journal bytes it replayed", i, rec.Kind, rec.Stage, rec.Unit)
		}
	}
}
