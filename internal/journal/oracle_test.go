package journal

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"testing"
)

// The reference reader the single-pass scanner is held to: a plain
// decoding of the record format that copies every payload out of the
// buffer, materialises each hashed body and hashes it with one-shot
// sha256.Sum256 calls, and takes the Merkle leaves afterwards by
// re-marshalling every record with an encoder of its own (refHeader).
// Headers decode into the package's header type, so a JSON error reads
// the same in both.

func refLeaf(head, payload []byte) [sha256.Size]byte {
	return sha256.Sum256(append(append([]byte{0x00}, head...), payload...))
}

func refLink(prev, leaf [sha256.Size]byte) [sha256.Size]byte {
	return sha256.Sum256(append(prev[:], leaf[:]...))
}

// refHeader marshals a record's chainless header without the package's
// header type: the record on its own (Payload is no JSON field, Chain
// is emptied) with payloadBytes appended as its last field.
func refHeader(rec Record) ([]byte, error) {
	rec.Chain = ""
	b, err := json.Marshal(rec)
	if err != nil || len(rec.Payload) == 0 {
		return b, err
	}
	return fmt.Appendf(b[:len(b)-1], `,"payloadBytes":%d}`, len(rec.Payload)), nil
}

// refStore renders a chainless header and payload as the writer
// stores them after a record whose chain digest is prev, and returns
// the stored bytes and the new chain digest.
func refStore(head, payload []byte, prev [sha256.Size]byte) ([]byte, [sha256.Size]byte) {
	chain := refLink(prev, refLeaf(head, payload))
	out := fmt.Appendf(bytes.Clone(head[:len(head)-1]), `,"chain":"%x"}`+"\n", chain)
	if len(payload) > 0 {
		out = append(append(out, payload...), '\n')
	}
	return out, chain
}

// refSplitChain cuts a stored header line into its chainless header
// and its chain digest.
func refSplitChain(line []byte) (head []byte, chain string, ok bool) {
	const suffixLen = len(`,"chain":""}`) + sha256.Size*2
	if len(line) < suffixLen {
		return nil, "", false
	}
	tail := line[len(line)-suffixLen:]
	if !bytes.HasPrefix(tail, []byte(`,"chain":"`)) || !bytes.HasSuffix(tail, []byte(`"}`)) {
		return nil, "", false
	}
	chain = string(tail[len(`,"chain":"`) : len(tail)-len(`"}`)])
	return append(bytes.Clone(line[:len(line)-suffixLen]), '}'), chain, true
}

// refRecord is one record as the reference reads it.
type refRecord struct {
	rec          Record
	n            int // bytes the record spans
	unterminated bool
	chain        [sha256.Size]byte
}

func refVerifyRecord(b []byte, idx int, prev [sha256.Size]byte) (refRecord, error) {
	fail := func(format string, args ...any) (refRecord, error) {
		return refRecord{}, fmt.Errorf("journal: record %d"+format, append([]any{idx}, args...)...)
	}
	line, rest, complete := bytes.Cut(b, []byte("\n"))
	if len(line) == 0 {
		return fail(": blank line")
	}
	var r refRecord
	hd := header{Record: &r.rec}
	if err := json.Unmarshal(line, &hd); err != nil {
		return fail(": %w", err)
	}
	if r.rec.Seq != idx {
		return fail(" carries seq %d", r.rec.Seq)
	}
	head, chain, ok := refSplitChain(line)
	if !ok {
		return fail(" has no chain digest")
	}
	pb := hd.PayloadBytes
	switch {
	case pb < 0:
		return fail(" declares a negative payload length %d", pb)
	case pb == 0:
		r.n, r.unterminated = len(line), !complete
		if complete {
			r.n++
		}
	case !complete || len(rest) < pb:
		return fail(" payload runs past the end of the journal (%d bytes declared, %d present)", pb, len(rest))
	default:
		r.rec.Payload = bytes.Clone(rest[:pb])
		after := rest[pb:]
		r.n = len(line) + 1 + pb
		switch {
		case len(after) == 0:
			r.unterminated = true
		case after[0] != '\n':
			return fail(" payload is not newline-terminated")
		default:
			r.n++
		}
	}
	r.chain = refLink(prev, refLeaf(head, r.rec.Payload))
	if want := hex.EncodeToString(r.chain[:]); chain != want {
		return fail(" chain digest does not verify (stored %.12s…, computed %.12s…): record tampered, reordered or torn",
			chain, want)
	}
	r.rec.Chain = chain
	return r, nil
}

type refScanResult struct {
	recs           []Record
	ends           []int // offset just past each record
	goodEnd        int
	missingNewline bool
	reason         string
	total          int
}

func refScan(b []byte) refScanResult {
	res := refScanResult{total: len(b)}
	prev := sha256.Sum256([]byte(Schema + "/chain-seed"))
	for res.goodEnd < len(b) {
		r, err := refVerifyRecord(b[res.goodEnd:], len(res.recs), prev)
		if err != nil {
			res.reason = err.Error()
			break
		}
		res.recs = append(res.recs, r.rec)
		res.goodEnd += r.n
		res.ends = append(res.ends, res.goodEnd)
		res.missingNewline = r.unterminated
		prev = r.chain
	}
	return res
}

// refVerify is Verify over bytes.
func refVerify(t testing.TB, b []byte) (VerifyResult, []Record) {
	t.Helper()
	res := refScan(b)
	vr := VerifyResult{
		Records:        len(res.recs),
		BadSeq:         -1,
		TrailingBytes:  res.total - res.goodEnd,
		MissingNewline: res.missingNewline,
		ChainHead:      ChainSeed(),
	}
	if res.goodEnd < res.total {
		vr.BadSeq = len(res.recs)
		vr.Reason = res.reason
	}
	leaves := make([][sha256.Size]byte, len(res.recs))
	for i, rec := range res.recs {
		head, err := refHeader(rec)
		if err != nil {
			t.Fatalf("record %d: re-marshal: %v", i, err)
		}
		leaves[i] = refLeaf(head, rec.Payload)
		vr.ChainHead = rec.Chain
	}
	root := merkleRoot(leaves)
	vr.Root = hex.EncodeToString(root[:])
	return vr, res.recs
}

// agree holds the scanner to the reference on one input: the same
// verified prefix (count, byte length, records deeply equal — so every
// aliased payload carries the bytes the reference copied), the same
// damage report, chain head and Merkle root. canonical says every
// record that can verify was written by a Writer, so re-marshalling a
// record reproduces its stored header and the two definitions of a
// leaf (stored bytes, re-marshalled record) must give one root. The
// bytes are then written to file and streamed through Verify
// (agreeVerify).
func agree(t testing.TB, file, what string, b []byte, canonical bool) {
	t.Helper()
	want, wantRecs := refVerify(t, b)
	lg, goodEnd, bad := scan(b)
	got := lg.Verified()
	if len(b)-goodEnd != want.TrailingBytes || (bad != nil) != (want.BadSeq >= 0) {
		t.Fatalf("%s: scan stopped at byte %d (%v), reference left %d trailing bytes (bad seq %d)",
			what, goodEnd, bad, want.TrailingBytes, want.BadSeq)
	}
	if !canonical {
		want.Root = got.Root
	}
	if got != want {
		t.Fatalf("%s: verify result\n got  %+v\n want %+v", what, got, want)
	}
	if len(lg.Records) != len(wantRecs) || (len(wantRecs) > 0 && !reflect.DeepEqual(lg.Records, wantRecs)) {
		t.Fatalf("%s: records differ from the reference's\n got  %+v\n want %+v", what, lg.Records, wantRecs)
	}
	agreeVerify(t, file, what, b, lg, bad)
}

// agreeVerify writes b to file and holds Verify, which streams it, to
// the slice scan of b (lg, ended by bad) and to Inspect: the same
// report, field for field, or the same legacy-format refusal. Verify
// runs at its own read buffer and at one that takes at least 64 fills
// to read b, down to bufio's smallest, which splits payloads across
// fills and, on small inputs, header lines too.
func agreeVerify(t testing.TB, file, what string, b []byte, lg *Log, bad error) {
	t.Helper()
	if err := os.WriteFile(file, b, 0o644); err != nil {
		t.Fatal(err)
	}
	want := lg.Verified()
	for _, size := range []int{verifyBuffer, max(16, len(b)/64)} {
		got, err := verify(file, size)
		switch {
		case errors.Is(bad, errLegacy):
			if !errors.Is(err, errLegacy) {
				t.Fatalf("%s: Verify (%d-byte buffer) of a legacy journal says %v, %+v", what, size, err, got)
			}
		case err != nil || got != want:
			t.Fatalf("%s: Verify (%d-byte buffer) differs from the scan (%v)\n got  %+v\n want %+v", what, size, err, got, want)
		}
	}
	if inspected, err := Inspect(file); (err == nil) != (lg.usable("", bad) == nil) || (err == nil && inspected.Verified() != want) {
		t.Fatalf("%s: Inspect (%v) differs from the scan (%v)", what, err, lg.usable("", bad))
	}
}

// agreeRecord holds verifyRecord to the reference on the record at the
// start of b under a given predecessor chain: same verdict, same words,
// same record and extent.
func agreeRecord(t testing.TB, what string, b []byte, idx int, prev [sha256.Size]byte) {
	t.Helper()
	want, wantErr := refVerifyRecord(b, idx, prev)
	v := newVerifier()
	v.prev = prev
	rec, _, n, unterminated, err := v.verifyRecord(b, idx)
	if (err == nil) != (wantErr == nil) || (err != nil && err.Error() != wantErr.Error()) {
		t.Fatalf("%s: verifyRecord says %v, reference %v", what, err, wantErr)
	}
	if !reflect.DeepEqual(rec, want.rec) || n != want.n || unterminated != want.unterminated {
		t.Fatalf("%s: records differ\n got  %+v (%d bytes, unterminated %t)\n want %+v (%d bytes, unterminated %t)",
			what, rec, n, unterminated, want.rec, want.n, want.unterminated)
	}
}

// rechain rewrites every record's chain digest so the chain verifies
// over whatever the records now say — what an adversary who can
// rewrite a whole journal would do — letting mutated content reach the
// decode, seq and framing checks behind the chain check. A header
// line's declared payload is carried along when it fits; a line too
// short to carry a chain is left alone.
func rechain(b []byte) []byte {
	var out []byte
	prev := sha256.Sum256([]byte(Schema + "/chain-seed"))
	for len(b) > 0 {
		line, rest, complete := bytes.Cut(b, []byte("\n"))
		var hd struct {
			PayloadBytes int `json:"payloadBytes"`
		}
		var payload []byte
		if json.Unmarshal(line, &hd) == nil && complete && hd.PayloadBytes > 0 && hd.PayloadBytes <= len(rest) {
			payload, rest = rest[:hd.PayloadBytes], rest[hd.PayloadBytes:]
		}
		if head, _, ok := refSplitChain(line); ok {
			prev = refLink(prev, refLeaf(head, payload))
			line = fmt.Appendf(head[:len(head)-1], `,"chain":"%x"}`, prev)
		}
		out = append(out, line...)
		if complete {
			out = append(out, '\n')
		}
		out = append(out, payload...)
		b = rest
	}
	return out
}

// realJournal returns the journal of a real pipeline run, so the
// reader is exercised on production bytes — a 160 KB pre-processing
// payload of FASTQ, Contrail contig sets, stage brackets:
//
//	rnapipe -profile tiny -assemblers contrail -evaluate=false -journal internal/journal/testdata/tiny-contrail.journal
func realJournal(t testing.TB) []byte {
	t.Helper()
	b, err := os.ReadFile(filepath.Join("testdata", "tiny-contrail.journal"))
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// recordEnds returns the offset just past each record of an intact
// journal.
func recordEnds(t testing.TB, b []byte) []int {
	t.Helper()
	res := refScan(b)
	if res.goodEnd != len(b) {
		t.Fatalf("journal does not verify: %s", res.reason)
	}
	return res.ends
}

// editRecord replaces old with new in the header line of record i and
// rechains the journal, so the edit reaches the checks behind the
// chain.
func editRecord(t testing.TB, b []byte, i int, old, new string) []byte {
	t.Helper()
	start := 0
	if i > 0 {
		start = recordEnds(t, b)[i-1]
	}
	end := start + bytes.IndexByte(b[start:], '\n')
	if !bytes.Contains(b[start:end], []byte(old)) {
		t.Fatalf("record %d header has no %s", i, old)
	}
	line := bytes.Replace(b[start:end], []byte(old), []byte(new), 1)
	return rechain(append(append(bytes.Clone(b[:start]), line...), b[end:]...))
}

// payloadBytesEdits are header edits that mis-declare the payload
// length of a record carrying a payload of n bytes: negative, beyond
// any buffer, one byte short of its newline, over it, and past the end
// of the journal.
func payloadBytesEdits(n int) map[string][2]string {
	field := func(v string) string { return `"payloadBytes":` + v }
	was := field(fmt.Sprint(n))
	return map[string][2]string{
		"negative payloadBytes":      {was, field("-1")},
		"huge payloadBytes":          {was, field("9223372036854775807")},
		"overflowing payloadBytes":   {was, field("92233720368547758070")},
		"payloadBytes one short":     {was, field(fmt.Sprint(n - 1))},
		"payloadBytes one over":      {was, field(fmt.Sprint(n + 1))},
		"payloadBytes past the end":  {was, field(fmt.Sprint(n + 1000))},
		"payloadBytes zero":          {was, field("0")},
		"duplicate payloadBytes":     {was, field("3") + "," + was},
		"case-folded payloadBytes":   {was, `"PAYLOADBYTES":` + fmt.Sprint(n)},
		"whitespace in payloadBytes": {was, `"payloadBytes" : ` + fmt.Sprint(n)},
	}
}

// TestScanMatchesReference is the differential oracle for the
// single-pass reader. On a small journal it is exhaustive: every
// single-byte XOR under three masks — bare, and with the chain
// recomputed so the mutation reaches the checks behind it — and every
// truncation point. On a journal with pipeline-sized payloads the
// exhaustive sweep is quadratic, so it takes a seeded sample of byte
// positions plus every record boundary and its neighbours.
func TestScanMatchesReference(t *testing.T) {
	path, _ := writeFixture(t, 6)
	small, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	file := filepath.Join(t.TempDir(), "scan.journal")
	agree(t, file, "small intact", small, true)
	for i := range small {
		for _, mask := range []byte{0x01, 0x20, 0x80} {
			mut := bytes.Clone(small)
			mut[i] ^= mask
			agree(t, file, fmt.Sprintf("small byte %d ^ %#x", i, mask), mut, true)
			agree(t, file, fmt.Sprintf("small byte %d ^ %#x rechained", i, mask), rechain(mut), false)
		}
		agree(t, file, fmt.Sprintf("small truncated to %d", i), small[:i], true)
	}

	// Shapes no single flip reaches: blank lines, mis-declared payload
	// lengths, a duplicated key, case-folded keys, unknown fields,
	// whitespace — each with a chain that verifies, so acceptance is
	// decided by the decode, seq and framing checks.
	ends := recordEnds(t, small)
	shapes := map[string][]byte{
		"blank line":         rechain(append(append(bytes.Clone(small[:ends[1]]), '\n'), small[ends[1]:]...)),
		"leading blank line": append([]byte("\n"), small...),
		"duplicate seq":      editRecord(t, small, 2, `"seq":2`, `"seq":7,"seq":2`),
		"case-folded chain":  editRecord(t, small, 2, `"kind":`, `"CHAIN":"x","kind":`),
		"unknown field":      editRecord(t, small, 2, `"kind":`, `"extra":[1,{"a":null}],"kind":`),
		"inline payload":     editRecord(t, small, 2, `"kind":`, `"payload":{"unit":2},"kind":`),
		"top-level null":     rechain(append(append(bytes.Clone(small[:ends[1]]), "null\n"...), small[ends[2]:]...)),
		"top-level array":    rechain(append(append(bytes.Clone(small[:ends[1]]), "[]\n"...), small[ends[2]:]...)),
		"empty object":       rechain(append(append(bytes.Clone(small[:ends[1]]), "{}\n"...), small[ends[2]:]...)),
		"not a header":       rechain(bytes.Clone(small[ends[0]:])),
		"only newlines":      []byte("\n\n"),
		"empty":              nil,
	}
	for name, e := range payloadBytesEdits(len(`{"unit":2}`)) {
		shapes[name] = editRecord(t, small, 2, e[0], e[1])
	}
	for name, e := range payloadBytesEdits(len(`{"unit":5}`)) {
		shapes[name+", last record"] = editRecord(t, small, 5, e[0], e[1])
	}
	for name, b := range shapes {
		agree(t, file, name, b, false)
	}

	// A legacy journal, whole and cut inside its first line, is refused
	// by Verify as by the scan.
	legacy, err := os.ReadFile(filepath.Join("testdata", "tiny-contrail.v2.journal"))
	if err != nil {
		t.Fatal(err)
	}
	for _, b := range [][]byte{legacy, legacy[:bytes.IndexByte(legacy, '\n')]} {
		lg, _, bad := scan(b)
		if !errors.Is(bad, errLegacy) {
			t.Fatalf("scan of a %d-byte legacy journal: %v", len(b), bad)
		}
		agreeVerify(t, file, fmt.Sprintf("legacy journal, %d bytes", len(b)), b, lg, bad)
	}

	// The real journal: whole-journal agreement at every record
	// boundary, header newline and their neighbours, flipped and
	// truncated. Inside records a flip can only change the verdict on
	// the record it lands in — the intact pass has covered everything
	// before it — so the ≈2 000 sampled flips are checked record
	// against record under the true predecessor chain, and drawn per
	// record so the pre-processing payload does not take most of them.
	real := realJournal(t)
	agree(t, file, "real intact", real, true)
	ends = recordEnds(t, real)
	mut := bytes.Clone(real)
	rng := rand.New(rand.NewSource(2121))
	prev := chainSeed()
	for idx, off := range append([]int{0}, ends[:len(ends)-1]...) {
		end := ends[idx]
		nl := off + bytes.IndexByte(real[off:], '\n')
		for _, p := range []int{off - 1, off, off + 1, nl - 1, nl, nl + 1, end - 2, end - 1, end} {
			if p < 0 || p >= len(real) {
				continue
			}
			mut[p] ^= 0x04
			agree(t, file, fmt.Sprintf("real byte %d flipped", p), mut, true)
			mut[p] ^= 0x04
			agree(t, file, fmt.Sprintf("real truncated to %d", p), real[:p], true)
		}
		for n := 0; n < 2000/len(ends); n++ {
			p, mask := off+rng.Intn(end-off), byte(1)<<rng.Intn(8)
			mut[p] ^= mask
			what := fmt.Sprintf("real record %d byte %d ^ %#x", idx, p-off, mask)
			agreeRecord(t, what, mut[off:], idx, prev)
			if n%16 == 0 {
				lg, _, bad := scan(mut)
				agreeVerify(t, file, what, mut, lg, bad)
			}
			mut[p] ^= mask
		}
		r, err := refVerifyRecord(real[off:], idx, prev)
		if err != nil {
			t.Fatal(err)
		}
		prev = r.chain
	}
}

// TestPayloadAliasesReadBuffer pins the zero-copy contract: a record's
// payload is a sub-slice of the bytes that were scanned, capped at its
// own end, and reading a journal costs a small multiple of its size
// however large its payloads are. Verify, which streams, costs a
// constant: its read buffer and per-record state, on the real journal
// as on one whose single payload is 4 MiB.
func TestPayloadAliasesReadBuffer(t *testing.T) {
	b := realJournal(t)
	lg, goodEnd, bad := scan(b)
	if bad != nil || goodEnd != len(b) {
		t.Fatalf("scan: %v at byte %d", bad, goodEnd)
	}
	payloads := 0
	for i, rec := range lg.Records {
		if len(rec.Payload) == 0 {
			continue
		}
		payloads++
		off := bytes.Index(b, rec.Payload)
		if off < 0 || &b[off] != &rec.Payload[0] {
			t.Fatalf("record %d payload is a copy, not a sub-slice of the read buffer", i)
		}
		if cap(rec.Payload) != len(rec.Payload) {
			t.Fatalf("record %d payload can grow into the bytes after it", i)
		}
	}
	if payloads == 0 {
		t.Fatal("fixture has no payloads")
	}
	dir := t.TempDir()
	path := filepath.Join(dir, "run.journal")
	if err := os.WriteFile(path, b, 0o644); err != nil {
		t.Fatal(err)
	}
	big := filepath.Join(dir, "big.journal")
	w, err := Create(big)
	if err != nil {
		t.Fatal(err)
	}
	for i, payload := range [][]byte{nil, bytes.Repeat([]byte("ACGT"), 1<<20), []byte(`{"unit":2}`)} {
		rec := Record{Kind: KindUnit, Stage: "PA", Unit: fmt.Sprint(i), Payload: payload}
		if i == 0 {
			rec = Record{Kind: KindHeader}
		}
		if _, err := w.Append(rec); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	const verifyLimit = verifyBuffer + 32<<10
	for _, c := range []struct {
		read       func(string) error
		name, path string
		limit      int
	}{
		{func(p string) error { _, err := Verify(p); return err }, "Verify", path, verifyLimit},
		{func(p string) error { _, err := Verify(p); return err }, "Verify", big, verifyLimit},
		{func(p string) error { _, err := Inspect(p); return err }, "Inspect", path, len(b) * 3 / 2},
		{func(p string) error { _, err := Open(p); return err }, "Open", path, len(b) * 3 / 2},
	} {
		const runs = 4
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := 0; i < runs; i++ {
			if err := c.read(c.path); err != nil {
				t.Fatal(err)
			}
		}
		runtime.ReadMemStats(&after)
		if got := int((after.TotalAlloc - before.TotalAlloc) / runs); got > c.limit {
			t.Errorf("%s of %s allocated %d bytes, want ≤ %d", c.name, filepath.Base(c.path), got, c.limit)
		}
	}
}

// scanSeeds are the journal readers' fuzz seeds: a small journal, whole
// and torn; production bytes cut to a size the fuzzer can mutate
// usefully (the real journal's first four records and a torn 2 KB of
// its pre-processing record); and mis-declared payload lengths on a
// middle and on the last record.
func scanSeeds(f *testing.F) [][]byte {
	path, _ := writeFixture(f, 4)
	small, err := os.ReadFile(path)
	if err != nil {
		f.Fatal(err)
	}
	real := realJournal(f)
	seeds := [][]byte{small, small[:len(small)-9], real[:recordEnds(f, real)[3]+2048]}
	for _, i := range []int{2, 3} {
		for _, e := range payloadBytesEdits(len(fmt.Sprintf(`{"unit":%d}`, i))) {
			seeds = append(seeds, editRecord(f, small, i, e[0], e[1]))
		}
	}
	return seeds
}

// FuzzScan throws arbitrary bytes at the reader, bare and with the
// chain recomputed over them (so mutated content gets past the chain
// check to the decode, seq and framing checks): it must never panic
// and never return a record the reference reader rejects (agree
// demands the identical verified prefix).
func FuzzScan(f *testing.F) {
	for _, b := range scanSeeds(f) {
		f.Add(b)
	}
	file := filepath.Join(f.TempDir(), "fuzz.journal")
	f.Fuzz(func(t *testing.T, b []byte) {
		agree(t, file, "fuzz input", b, false)
		agree(t, file, "fuzz input, rechained", rechain(b), false)
	})
}

// FuzzContinue holds the tolerant opens to the strict reader on
// arbitrary journal files, bare and rechained (see FuzzScan).
func FuzzContinue(f *testing.F) {
	f.Add(realJournal(f))
	for _, b := range scanSeeds(f) {
		f.Add(b)
	}
	path := filepath.Join(f.TempDir(), "fuzz.journal")
	f.Fuzz(func(t *testing.T, b []byte) {
		continueTwice(t, path, b)
		continueTwice(t, path, rechain(b))
	})
}

// continueTwice writes b to path and opens it tolerantly. Inspect and
// Continue must agree, and keep exactly the records a strict Read of
// the prefix Continue leaves on disk returns; a second Continue must
// repair nothing, change no byte and read the same records.
func continueTwice(t *testing.T, path string, b []byte) {
	t.Helper()
	if err := os.WriteFile(path, b, 0o644); err != nil {
		t.Fatal(err)
	}
	inspected, ierr := Inspect(path)
	first, w, err := Continue(path)
	if (ierr == nil) != (err == nil) {
		t.Fatalf("Inspect says %v, Continue %v", ierr, err)
	}
	if err != nil {
		return // no verifiable prefix: nothing to continue
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	kept, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	strict, err := Read(bytes.NewReader(kept))
	if err != nil {
		t.Fatalf("strict Read refuses the prefix Continue kept: %v", err)
	}
	if !reflect.DeepEqual(inspected.Repair, first.Repair) ||
		!reflect.DeepEqual(inspected.Records, strict.Records) || !reflect.DeepEqual(first.Records, strict.Records) {
		t.Fatalf("Inspect (%d records, %v) and Continue (%d records, %v) differ from a strict Read of the kept prefix (%d records)",
			len(inspected.Records), inspected.Repair, len(first.Records), first.Repair, len(strict.Records))
	}
	second, w, err := Continue(path)
	if err != nil {
		t.Fatalf("second Continue: %v", err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	after, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if second.Repair != nil || !bytes.Equal(kept, after) || !reflect.DeepEqual(first.Records, second.Records) {
		t.Fatalf("Continue is not idempotent: second repair %v, %d -> %d bytes, %d -> %d records",
			second.Repair, len(kept), len(after), len(first.Records), len(second.Records))
	}
}
