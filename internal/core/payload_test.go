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

// TestJournalPayloadRoundTrip holds the PA and PB payload codecs to
// exact inverses over seeded reads and contigs: paired mate IDs, IDs
// with spaces, reads without qualities, contig IDs carrying assembler
// annotations, and empty shards and contig sets.
func TestJournalPayloadRoundTrip(t *testing.T) {
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
	for _, p := range []paPayload{
		{Shard: 0, Reads: reads, Paired: true, Stats: stats},
		{Shard: 2, Reads: reads[3:4], Stats: preprocess.Stats{InputReads: 1}},
		{Shard: 1, Paired: true},
	} {
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

	var contigs []seq.FastaRecord
	for i := 0; i < 25; i++ {
		n := 30 + rng.Intn(1200)
		contigs = append(contigs, seq.FastaRecord{
			ID:  fmt.Sprintf("abyss_contig%05d len=%d cov=%.1f", i, n, 2+rng.Float64()*20),
			Seq: seededBases(rng, n),
		})
	}
	for _, p := range []pbPayload{
		{Contigs: contigs, TTCSeconds: 1234.5625, PeakMemoryGBPerNode: 3.75,
			Messages: 812, BytesSent: 1 << 33, N50: 1175},
		{Contigs: contigs[:1], TTCSeconds: 60},
		{TTCSeconds: 0.1},
	} {
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
