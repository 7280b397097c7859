package journal

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"strings"
	"testing"
)

// The reader this package shipped before the single-pass scanner,
// kept verbatim as the reference the new one is held to: a line is
// unmarshalled into a Record (payload copied), its body is
// materialised by splitChain and hashed by chainNext, and the Merkle
// leaves are taken afterwards by re-marshalling every record.

func refDigest(b []byte) string {
	h := fnv.New64a()
	h.Write(b)
	return fmt.Sprintf("%016x", h.Sum64())
}

func refChainNext(prev string, body []byte) string {
	h := sha256.New()
	h.Write([]byte(prev))
	h.Write([]byte{'\n'})
	h.Write(body)
	return hex.EncodeToString(h.Sum(nil))
}

func refSpliceChain(body []byte, chain string) []byte {
	line := make([]byte, 0, len(body)+len(chain)+12)
	line = append(line, body[:len(body)-1]...)
	line = append(line, `,"chain":"`...)
	line = append(line, chain...)
	line = append(line, '"', '}', '\n')
	return line
}

func refSplitChain(line []byte) (body []byte, chain string, ok bool) {
	const suffixLen = len(`,"chain":""}`) + sha256.Size*2
	if len(line) < suffixLen {
		return nil, "", false
	}
	tail := line[len(line)-suffixLen:]
	if !bytes.HasPrefix(tail, []byte(`,"chain":"`)) || !bytes.HasSuffix(tail, []byte(`"}`)) {
		return nil, "", false
	}
	chain = string(tail[len(`,"chain":"`) : len(tail)-len(`"}`)])
	body = append(make([]byte, 0, len(line)-suffixLen+1), line[:len(line)-suffixLen]...)
	return append(body, '}'), chain, true
}

func refVerifyLine(line []byte, idx int, prev string) (Record, error) {
	var rec Record
	if err := json.Unmarshal(line, &rec); err != nil {
		return rec, fmt.Errorf("journal: record %d: %w", idx, err)
	}
	if rec.Seq != idx {
		return rec, fmt.Errorf("journal: record %d carries seq %d", idx, rec.Seq)
	}
	if len(rec.Payload) > 0 {
		if got := refDigest(rec.Payload); got != rec.Digest {
			return rec, fmt.Errorf("journal: record %d payload digest %s does not match stored %s",
				idx, got, rec.Digest)
		}
	}
	body, chain, ok := refSplitChain(line)
	if !ok {
		return rec, fmt.Errorf("journal: record %d has no chain digest", idx)
	}
	if want := refChainNext(prev, body); chain != want {
		return rec, fmt.Errorf("journal: record %d chain digest does not verify (stored %.12s…, computed %.12s…): record tampered, reordered or torn",
			idx, chain, want)
	}
	return rec, nil
}

type refScanResult struct {
	recs           []Record
	goodEnd        int
	missingNewline bool
	reason         string
	total          int
}

func refScan(b []byte) refScanResult {
	res := refScanResult{total: len(b)}
	prev := ChainSeed()
	off := 0
	for off < len(b) {
		nl := bytes.IndexByte(b[off:], '\n')
		var line []byte
		complete := nl >= 0
		if complete {
			line = b[off : off+nl]
		} else {
			line = b[off:]
		}
		if len(line) == 0 {
			res.reason = fmt.Sprintf("record %d: blank line", len(res.recs))
			return res
		}
		rec, err := refVerifyLine(line, len(res.recs), prev)
		if err != nil {
			res.reason = err.Error()
			return res
		}
		res.recs = append(res.recs, rec)
		prev = rec.Chain
		if complete {
			off += nl + 1
		} else {
			off = len(b)
			res.missingNewline = true
		}
		res.goodEnd = off
	}
	return res
}

func refLeaves(recs []Record) ([][sha256.Size]byte, error) {
	out := make([][sha256.Size]byte, len(recs))
	for i, rec := range recs {
		body, err := chainBody(rec)
		if err != nil {
			return nil, fmt.Errorf("journal: record %d: re-marshal: %w", i, err)
		}
		out[i] = leafHash(body)
	}
	return out, nil
}

// refVerify is the old Verify over bytes.
func refVerify(t testing.TB, b []byte) (VerifyResult, []Record) {
	t.Helper()
	res := refScan(b)
	vr := VerifyResult{
		Records:       len(res.recs),
		BadSeq:        -1,
		TrailingBytes: res.total - res.goodEnd,
		ChainHead:     ChainSeed(),
	}
	if res.goodEnd < res.total {
		vr.BadSeq = len(res.recs)
		vr.Reason = res.reason
	}
	vr.MissingNewline = res.missingNewline
	if len(res.recs) > 0 {
		vr.ChainHead = res.recs[len(res.recs)-1].Chain
	}
	leaves, err := refLeaves(res.recs)
	if err != nil {
		t.Fatal(err)
	}
	root := merkleRoot(leaves)
	vr.Root = hex.EncodeToString(root[:])
	return vr, res.recs
}

// scannerWording rewrites a reference reason into the scanner's words.
func scannerWording(reason string) string {
	if strings.HasSuffix(reason, "blank line") {
		reason = "journal: " + reason
	}
	return strings.NewReplacer("type journal.Record", "type journal.storedLine",
		"struct field Record.", "struct field storedLine.Record.").Replace(reason)
}

// agree holds the scanner to the reference on one input: the same
// verified prefix (count, byte length, records deeply equal — so every
// aliased payload carries the bytes the reference copied), the same
// damage report, chain head and Merkle root. Two wordings of a reason
// are tolerated: the reference reports a blank line without the
// "journal: " prefix every other reason has, and a JSON type error
// names the Go type decoded into (Record there, the scanner's
// storedLine wrapper here). canonical says every line that can verify was written
// by a Writer, so re-marshalling a record reproduces its stored body
// and the two definitions of a leaf (stored bytes, re-marshalled
// record) must give one root.
func agree(t testing.TB, what string, b []byte, canonical bool) {
	t.Helper()
	want, wantRecs := refVerify(t, b)
	lg, goodEnd, bad := scan(b)
	got := lg.Verified()
	if len(b)-goodEnd != want.TrailingBytes || (bad != nil) != (want.BadSeq >= 0) {
		t.Fatalf("%s: scan stopped at byte %d (%v), reference left %d trailing bytes (bad seq %d)",
			what, goodEnd, bad, want.TrailingBytes, want.BadSeq)
	}
	want.Reason = scannerWording(want.Reason)
	if !canonical {
		want.Root = got.Root
	}
	if got != want {
		t.Fatalf("%s: verify result\n got  %+v\n want %+v", what, got, want)
	}
	if len(lg.Records) != len(wantRecs) || (len(wantRecs) > 0 && !reflect.DeepEqual(lg.Records, wantRecs)) {
		t.Fatalf("%s: records differ from the reference's\n got  %+v\n want %+v", what, lg.Records, wantRecs)
	}
}

// agreeLine holds verifyLine to the reference on one line under a
// given predecessor chain: same verdict, same words, same record.
func agreeLine(t testing.TB, what string, line []byte, idx int, prev string) {
	t.Helper()
	wantRec, wantErr := refVerifyLine(line, idx, prev)
	v := lineVerifier{h: sha256.New()}
	gotRec, _, gotErr := v.verifyLine(line, idx, prev)
	if (gotErr == nil) != (wantErr == nil) || (wantErr != nil && gotErr.Error() != scannerWording(wantErr.Error())) {
		t.Fatalf("%s: verifyLine says %v, reference %v", what, gotErr, wantErr)
	}
	if !reflect.DeepEqual(gotRec, wantRec) {
		t.Fatalf("%s: records differ\n got  %+v\n want %+v", what, gotRec, wantRec)
	}
}

// rechain rewrites every line's chain suffix so the chain verifies
// over whatever the lines now say — what an adversary who can rewrite
// a whole journal would do — letting mutated content reach the
// decode, seq and payload-digest checks behind the chain check. Lines
// too short to carry a suffix are left alone.
func rechain(b []byte) []byte {
	var out []byte
	prev := ChainSeed()
	for len(b) > 0 {
		line := b
		if nl := bytes.IndexByte(b, '\n'); nl >= 0 {
			line, b = b[:nl], b[nl+1:]
		} else {
			b = nil
		}
		if body, _, ok := refSplitChain(line); ok {
			prev = refChainNext(prev, body)
			line = bytes.TrimSuffix(refSpliceChain(body, prev), []byte("\n"))
		}
		out = append(append(out, line...), '\n')
	}
	return out
}

// realJournal returns the journal of a real pipeline run, so the
// reader is exercised on production bytes — a 238 KB pre-processing
// payload of base64 reads, Contrail contig sets, stage brackets:
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
	agree(t, "small intact", small, true)
	for i := range small {
		for _, mask := range []byte{0x01, 0x20, 0x80} {
			mut := bytes.Clone(small)
			mut[i] ^= mask
			agree(t, fmt.Sprintf("small byte %d ^ %#x", i, mask), mut, true)
			agree(t, fmt.Sprintf("small byte %d ^ %#x rechained", i, mask), rechain(mut), false)
		}
		agree(t, fmt.Sprintf("small truncated to %d", i), small[:i], true)
	}

	// Shapes no single flip reaches: blank lines, a null payload, a
	// duplicated key, a case-folded key, an unknown field, whitespace —
	// each with a chain that verifies, so acceptance is decided by the
	// decode, seq and digest checks.
	lines := bytes.SplitAfter(small, []byte("\n"))
	splice := func(i int, line string) []byte {
		mut := append([][]byte{}, lines...)
		mut[i] = []byte(line)
		return rechain(bytes.Join(mut, nil))
	}
	edit := func(i int, old, new string) []byte {
		if !bytes.Contains(lines[i], []byte(old)) {
			t.Fatalf("fixture line %d has no %s", i, old)
		}
		return splice(i, string(bytes.Replace(lines[i], []byte(old), []byte(new), 1)))
	}
	for name, b := range map[string][]byte{
		"blank line":         splice(2, "\n"),
		"leading blank line": append([]byte("\n"), small...),
		"null payload":       edit(2, `"payload":{"unit":2}`, `"payload":null`),
		"duplicate payload":  edit(2, `"payload":{"unit":2}`, `"payload":{"unit":9},"payload":{"unit":2}`),
		"duplicate seq":      edit(2, `"seq":2`, `"seq":7,"seq":2`),
		"case-folded keys":   edit(2, `"payload":`, `"PAYLOAD":`),
		"case-folded chain":  edit(2, `"kind":`, `"CHAIN":"x","kind":`),
		"unknown field":      edit(2, `"kind":`, `"extra":[1,{"a":null}],"kind":`),
		"inner whitespace":   edit(2, `"payload":{"unit":2}`, `"payload": {"unit" : 2}`),
		"top-level null":     splice(2, "null\n"),
		"top-level array":    splice(2, "[]\n"),
		"empty object":       splice(2, "{}\n"),
		"not a header":       rechain(bytes.Join(lines[1:], nil)),
		"only newlines":      []byte("\n\n"),
		"empty":              nil,
	} {
		agree(t, name, b, false)
	}

	// The real journal: whole-journal agreement at every record
	// boundary and its neighbours, flipped and truncated. Inside
	// records a flip can only change the verdict on the line it lands
	// in — the intact pass has covered everything before it — so the
	// ≈2 000 sampled flips are checked line against line under the
	// true predecessor chain, and drawn per record so the 238 KB
	// pre-processing payload does not take nine tenths of them.
	real := realJournal(t)
	agree(t, "real intact", real, true)
	intact, _, _ := scan(real)
	mut := bytes.Clone(real)
	rng := rand.New(rand.NewSource(2121))
	prev := ChainSeed()
	for idx, off := 0, 0; off < len(real); idx++ {
		end := off + bytes.IndexByte(real[off:], '\n')
		for _, p := range []int{off - 1, off, off + 1, end - 1, end, end + 1} {
			if p < 0 || p >= len(real) {
				continue
			}
			mut[p] ^= 0x04
			agree(t, fmt.Sprintf("real byte %d flipped", p), mut, true)
			mut[p] ^= 0x04
			agree(t, fmt.Sprintf("real truncated to %d", p), real[:p], true)
		}
		for n := 0; n < 2000/len(intact.Records); n++ {
			p, mask := off+rng.Intn(end-off), byte(1)<<rng.Intn(8)
			mut[p] ^= mask
			agreeLine(t, fmt.Sprintf("real record %d byte %d ^ %#x", idx, p-off, mask), mut[off:end], idx, prev)
			mut[p] ^= mask
		}
		prev = intact.Records[idx].Chain
		off = end + 1
	}
}

// TestPayloadAliasesReadBuffer pins the zero-copy contract: a record's
// payload is a sub-slice of the bytes that were scanned (json.Unmarshal
// hands an Unmarshaler a slice of its input; if a toolchain ever
// copied instead, the scan would be retaining a decoder scratch
// buffer and this fails), and reading a journal costs a small
// multiple of its size however large its payloads are.
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
	}
	if payloads == 0 {
		t.Fatal("fixture has no payloads")
	}
	path := filepath.Join(t.TempDir(), "run.journal")
	if err := os.WriteFile(path, b, 0o644); err != nil {
		t.Fatal(err)
	}
	for name, read := range map[string]func() error{
		"Verify":  func() error { _, err := Verify(path); return err },
		"Inspect": func() error { _, err := Inspect(path); return err },
		"Open":    func() error { _, err := Open(path); return err },
	} {
		const runs = 4
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := 0; i < runs; i++ {
			if err := read(); err != nil {
				t.Fatal(err)
			}
		}
		runtime.ReadMemStats(&after)
		if got, limit := int((after.TotalAlloc-before.TotalAlloc)/runs), len(b)*3/2; got > limit {
			t.Errorf("%s of a %d-byte journal allocated %d bytes, want ≤ %d (one read buffer plus per-record state)",
				name, len(b), got, limit)
		}
	}
}

// TestDigestMatchesReference: the allocation-free FNV-1a rendering is
// the hash/fnv + Sprintf digest every existing journal carries.
func TestDigestMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for n := 0; n < 300; n++ {
		b := make([]byte, n)
		rng.Read(b)
		if got, want := Digest(b), refDigest(b); got != want {
			t.Fatalf("Digest of %d bytes = %s, reference %s", n, got, want)
		}
	}
}

// FuzzScan throws arbitrary bytes at the reader, bare and with the
// chain recomputed over them (so mutated content gets past the chain
// check to the decode, seq and digest checks): it must never panic,
// never return a record the reference reader rejects (agree demands
// the identical verified prefix), and Continue must be idempotent —
// a second Continue of what the first left behind repairs nothing,
// changes no byte and reads the same records.
func FuzzScan(f *testing.F) {
	path, _ := writeFixture(f, 4)
	small, err := os.ReadFile(path)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(small)
	f.Add(small[:len(small)-9])
	// Production bytes, cut to a size the fuzzer can mutate usefully:
	// the real journal's first four records and a torn 2 KB of its
	// 238 KB pre-processing record.
	real := realJournal(f)
	head := 0
	for n := 0; n < 4; n++ {
		head += bytes.IndexByte(real[head:], '\n') + 1
	}
	f.Add(real[:head+2048])
	path = filepath.Join(f.TempDir(), "fuzz.journal")
	f.Fuzz(func(t *testing.T, b []byte) {
		agree(t, "fuzz input", b, false)
		agree(t, "fuzz input, rechained", rechain(b), false)

		// The rest is on disk (Continue fsyncs its repair): skip it when
		// there is no verifiable prefix and so nothing to continue.
		if lg, _, _ := scan(b); lg.usable(path) != nil {
			return
		}
		if err := os.WriteFile(path, b, 0o644); err != nil {
			t.Fatal(err)
		}
		first, w, err := Continue(path)
		if err != nil {
			t.Fatalf("Continue refused a journal with a verifiable prefix: %v", err)
		}
		if err := w.Close(); err != nil {
			t.Fatal(err)
		}
		repaired, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
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
		if second.Repair != nil || !bytes.Equal(repaired, after) || !reflect.DeepEqual(first.Records, second.Records) {
			t.Fatalf("Continue is not idempotent: second repair %v, %d -> %d bytes, %d -> %d records",
				second.Repair, len(repaired), len(after), len(first.Records), len(second.Records))
		}
	})
}
