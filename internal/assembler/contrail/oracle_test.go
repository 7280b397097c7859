package contrail

import (
	"bytes"
	"fmt"
	"reflect"
	"strings"
	"testing"

	"rnascale/internal/mapreduce"
	"rnascale/internal/seq"
)

// textBuildJob is the build job as it ran on text records, kept as the
// typed build's oracle: every window becomes a marshalled record keyed
// by its canonical k-mer string, and the reduce parses them back.
func textBuildJob(k, reducers int) mapreduce.Job {
	return mapreduce.Job{
		Name:        "contrail-build",
		NumReducers: reducers,
		Map: func(kv mapreduce.KV, emit func(mapreduce.KV)) {
			// An ambiguous base (only AllowN lets one in) ends the read
			// there: each ACGT stretch is windowed on its own.
			for _, read := range strings.FieldsFunc(kv.Value, notBase) {
				for i := 0; i+k <= len(read); i++ {
					w := read[i : i+k]
					c := canonString(w)
					fwd := c == w
					rec := record{seq: c, count: 1}
					if i+k < len(read) {
						if b := read[i+k]; fwd {
							rec.r = string(b)
						} else {
							rec.l = string(seq.Complement(b))
						}
					}
					if i > 0 {
						if a := read[i-1]; fwd {
							rec.l = string(seq.Complement(a))
						} else {
							rec.r = string(a)
						}
					}
					// The key is the value's prefix: one string to
					// retain per record, not two.
					v := rec.marshal()
					emit(mapreduce.KV{Key: v[:k], Value: v})
				}
			}
		},
		Reduce: func(key string, values []string, emit func(mapreduce.KV)) {
			merged := record{seq: key}
			for _, v := range values {
				rec, err := parseRecord(v)
				if err != nil {
					continue
				}
				merged.count += rec.count
				for i := 0; i < len(rec.l); i++ {
					merged.l = addBase(merged.l, rec.l[i])
				}
				for i := 0; i < len(rec.r); i++ {
					merged.r = addBase(merged.r, rec.r[i])
				}
			}
			emit(mapreduce.KV{Key: key, Value: merged.marshal()})
		},
	}
}

// textFilterJob is the text coverage cutoff, the typed filter's oracle.
func textFilterJob(minCov int64, reducers int) mapreduce.Job {
	return mapreduce.Job{
		Name:        "contrail-filter",
		NumReducers: reducers,
		Map: func(kv mapreduce.KV, emit func(mapreduce.KV)) {
			rec, err := parseRecord(kv.Value)
			if err != nil || rec.count < minCov {
				return
			}
			emit(kv)
		},
		Reduce: func(key string, values []string, emit func(mapreduce.KV)) {
			for _, v := range values {
				emit(mapreduce.KV{Key: key, Value: v})
			}
		},
	}
}

// addBase inserts b into the sorted base set s.
func addBase(s string, b byte) string {
	i := 0
	for i < len(s) && s[i] < b {
		i++
	}
	if i < len(s) && s[i] == b {
		return s
	}
	return s[:i] + string(b) + s[i:]
}

// notBase reports whether r is anything but A, C, G or T.
func notBase(r rune) bool {
	_, ok := seq.Code(byte(r))
	return !ok || r > 0x7F
}

// textResults runs the text build and then the text filter.
func textResults(e *mapreduce.Engine, reads []seq.Read, k int, minCov int64, reducers int) (build, filter mapreduce.Result, err error) {
	input := make([]mapreduce.KV, len(reads))
	for i, r := range reads {
		input[i] = mapreduce.KV{Key: r.ID, Value: string(r.Seq)}
	}
	if build, err = e.Run(textBuildJob(k, reducers), input); err != nil {
		return
	}
	filter, err = e.Run(textFilterJob(minCov, reducers), build.Output)
	return
}

// typedResults runs the typed build and filter, each Result with its
// output rendered as the compression rounds receive it.
func typedResults(e *mapreduce.Engine, reads []seq.Read, coder seq.KmerCoder, minCov int64, reducers int) (build, filter mapreduce.Result, err error) {
	asText := func(res mapreduce.TypedResult[seq.Kmer, node]) mapreduce.Result {
		return mapreduce.Result{
			Output:       textRecords(coder, res.Output),
			Elapsed:      res.Elapsed,
			MapTasks:     res.MapTasks,
			ReduceTasks:  res.ReduceTasks,
			ShuffleBytes: res.ShuffleBytes,
		}
	}
	built, err := mapreduce.RunTyped(e, buildJob(coder, reducers), reads)
	if err != nil {
		return
	}
	kept, err := mapreduce.RunTyped(e, filterJob(coder, minCov, reducers), built.Output)
	return asText(built), asText(kept), err
}

// checkTypedMatchesText fails t unless the typed build and filter give
// the text jobs' Results: every output record, Elapsed, ShuffleBytes
// and the task counts.
func checkTypedMatchesText(t *testing.T, name string, e *mapreduce.Engine, reads []seq.Read, k int, minCov int64, reducers int) {
	t.Helper()
	wantBuild, wantFilter, err := textResults(e, reads, k, minCov, reducers)
	if err != nil {
		t.Fatalf("%s: text: %v", name, err)
	}
	gotBuild, gotFilter, err := typedResults(e, reads, seq.MustKmerCoder(k), minCov, reducers)
	if err != nil {
		t.Fatalf("%s: typed: %v", name, err)
	}
	for _, job := range []struct {
		name      string
		got, want mapreduce.Result
	}{{"build", gotBuild, wantBuild}, {"filter", gotFilter, wantFilter}} {
		if len(job.got.Output) == 0 && len(job.want.Output) == 0 {
			job.got.Output, job.want.Output = nil, nil
		}
		if !reflect.DeepEqual(job.got, job.want) {
			t.Fatalf("%s: %s:\n got %+v\nwant %+v", name, job.name, job.got, job.want)
		}
	}
}

// Property: over seeded random reads the typed build and filter jobs
// give exactly the text jobs' Results, for every k from 1 to 63 (odd
// and even, with planted reverse-complement palindromes), N bases as
// under AllowN, volume scales below, at and above 1, and varied
// cluster shapes and reducer counts. `make oracle-determinism` runs it
// under the race detector with -cpu 1,2,8.
func TestTypedBuildMatchesText(t *testing.T) {
	const bases = "ACGT"
	for seed := uint64(1); seed <= 4*seq.MaxK; seed++ {
		r := &splitmix{s: seed}
		k := 1 + int(seed-1)%seq.MaxK
		genome := make([]byte, k+r.intn(3*k+40))
		for i := range genome {
			genome[i] = bases[r.intn(4)]
		}
		withN := r.intn(3) == 0
		var reads []seq.Read // none for one seed in eight
		if r.intn(8) > 0 {
			reads = make([]seq.Read, 1+r.intn(30))
		}
		for i := range reads {
			lo := r.intn(len(genome))
			s := bytes.Clone(genome[lo : lo+r.intn(len(genome)-lo+1)])
			if r.intn(4) == 0 { // the other strand
				s = seq.ReverseComplement(s)
			}
			if r.intn(5) == 0 && k%2 == 0 { // a palindromic window
				half := genome[:k/2]
				s = append(append(s, half...), seq.ReverseComplement(half)...)
			}
			for j := range s {
				if withN && r.intn(12) == 0 {
					s[j] = 'N'
				}
			}
			reads[i] = seq.Read{ID: strings.Repeat("r", 1+r.intn(12)), Seq: s}
		}
		cfg := mapreduce.DefaultConfig(1 + r.intn(5))
		cfg.SlotsPerWorker = 1 + r.intn(3)
		switch r.intn(3) {
		case 0:
			cfg.SplitBytes = 1 // every record its own split
		case 1:
			cfg.SplitBytes = int64(40 + r.intn(400))
		default:
			cfg.SplitBytes = 1 << 30 // everything in one split
		}
		cfg.VolumeScale = []float64{0, 0.5, 1, 40}[r.intn(4)]
		e, err := mapreduce.NewEngine(cfg)
		if err != nil {
			t.Fatal(err)
		}
		minCov := int64(1 + r.intn(3))
		reducers := r.intn(18) // 0 = one per worker
		name := fmt.Sprintf("seed=%d k=%d reads=%d N=%t split=%d scale=%g workers=%d reducers=%d minCov=%d",
			seed, k, len(reads), withN, cfg.SplitBytes, cfg.VolumeScale, cfg.Workers, reducers, minCov)
		checkTypedMatchesText(t, name, e, reads, k, minCov, reducers)
	}
}

// FuzzBuildMatchesText: on any bytes the typed build and filter give
// the text jobs' Results. Lowercase a, c, g and t are folded to
// uppercase first, the one input the two tell apart by design.
func FuzzBuildMatchesText(f *testing.F) {
	f.Add([]byte("ACGTTGCAATCGGCTAAG\nCCGATTGCAACG"), uint8(5), uint8(3), uint16(64), uint8(2))
	f.Add([]byte("ACGTNACGT\nNNNN\nACGCGT"), uint8(6), uint8(1), uint16(1), uint8(1))
	f.Add([]byte("AAAA\xc3\x81CCCC|GGGG TTTT"), uint8(2), uint8(7), uint16(1000), uint8(1))
	f.Fuzz(func(t *testing.T, data []byte, kRaw, reducersRaw uint8, split uint16, minCov uint8) {
		k := 1 + int(kRaw)%seq.MaxK
		var reads []seq.Read
		for i, line := range bytes.Split(data, []byte("\n")) {
			s := bytes.Clone(line)
			for j, b := range s {
				if strings.IndexByte("acgt", b) >= 0 {
					s[j] = b - 'a' + 'A'
				}
			}
			reads = append(reads, seq.Read{ID: fmt.Sprint(i), Seq: s})
		}
		cfg := mapreduce.DefaultConfig(3)
		cfg.SplitBytes = 1 + int64(split)
		e, err := mapreduce.NewEngine(cfg)
		if err != nil {
			t.Fatal(err)
		}
		checkTypedMatchesText(t, "fuzz", e, reads, k, int64(minCov%4), 1+int(reducersRaw)%9)
	})
}

// splitmix is the seeded generator behind the oracle's random reads.
type splitmix struct{ s uint64 }

func (r *splitmix) intn(n int) int {
	r.s += 0x9E3779B97F4A7C15
	z := r.s
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return int((z ^ (z >> 31)) % uint64(n))
}
