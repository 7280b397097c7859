package mapreduce

import (
	"fmt"
	"reflect"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync/atomic"
	"testing"

	"rnascale/internal/vclock"
)

// wordCount is the canonical test job.
func wordCount() Job {
	return Job{
		Name: "wordcount",
		Map: func(kv KV, emit func(KV)) {
			for _, w := range strings.Fields(kv.Value) {
				emit(KV{Key: w, Value: "1"})
			}
		},
		Reduce: func(key string, values []string, emit func(KV)) {
			sum := 0
			for _, v := range values {
				n, _ := strconv.Atoi(v)
				sum += n
			}
			emit(KV{Key: key, Value: strconv.Itoa(sum)})
		},
	}
}

func lines(texts ...string) []KV {
	kvs := make([]KV, len(texts))
	for i, t := range texts {
		kvs[i] = KV{Key: strconv.Itoa(i), Value: t}
	}
	return kvs
}

func TestNewEngineValidation(t *testing.T) {
	bad := []Config{
		{},
		{Workers: 1},
		{Workers: 1, SlotsPerWorker: 1},
		{Workers: 1, SlotsPerWorker: 1, MapRate: 1, ReduceRate: 1},
	}
	for i, cfg := range bad {
		if _, err := NewEngine(cfg); err == nil {
			t.Errorf("config %d accepted: %+v", i, cfg)
		}
	}
	if _, err := NewEngine(DefaultConfig(2)); err != nil {
		t.Errorf("default config rejected: %v", err)
	}
}

func TestWordCountCorrectness(t *testing.T) {
	e, _ := NewEngine(DefaultConfig(2))
	res, err := e.Run(wordCount(), lines("a b a", "b c", "a"))
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]string{"a": "3", "b": "2", "c": "1"}
	if len(res.Output) != len(want) {
		t.Fatalf("output %v", res.Output)
	}
	for _, kv := range res.Output {
		if want[kv.Key] != kv.Value {
			t.Errorf("%s = %s, want %s", kv.Key, kv.Value, want[kv.Key])
		}
	}
	if res.Elapsed <= DefaultConfig(2).JobSetup {
		t.Errorf("elapsed %v must exceed setup", res.Elapsed)
	}
}

func TestOutputSortedAndDeterministicAcrossWorkerCounts(t *testing.T) {
	input := lines("z y x", "x y", "w w w", "a z")
	var first []KV
	for _, workers := range []int{1, 2, 4, 16} {
		e, _ := NewEngine(DefaultConfig(workers))
		res, err := e.Run(wordCount(), input)
		if err != nil {
			t.Fatal(err)
		}
		for i := 1; i < len(res.Output); i++ {
			if res.Output[i-1].Key > res.Output[i].Key {
				t.Fatalf("unsorted output at %d workers", workers)
			}
		}
		if first == nil {
			first = res.Output
			continue
		}
		if fmt.Sprint(res.Output) != fmt.Sprint(first) {
			t.Errorf("output differs at %d workers", workers)
		}
	}
}

func TestMissingFunctions(t *testing.T) {
	e, _ := NewEngine(DefaultConfig(1))
	if _, err := e.Run(Job{Name: "nil"}, nil); err == nil {
		t.Error("nil map/reduce accepted")
	}
	for _, c := range []struct {
		name  string
		spoil func(*TypedJob[[]uint16, uint16, int])
	}{
		{"InputBytes", func(j *TypedJob[[]uint16, uint16, int]) { j.InputBytes = nil }},
		{"Bytes", func(j *TypedJob[[]uint16, uint16, int]) { j.Bytes = nil }},
		{"Partition", func(j *TypedJob[[]uint16, uint16, int]) { j.Partition = nil }},
		{"Compare", func(j *TypedJob[[]uint16, uint16, int]) { j.Compare = nil }},
		{"Combine and Fold", func(j *TypedJob[[]uint16, uint16, int]) {
			j.Combine = func(_ uint16, values []int) []int { return []int{sum(values)} }
		}},
	} {
		job := countJob(true)
		job.Name = "spoilt-" + c.name
		c.spoil(&job)
		_, err := RunTyped(e, job, [][]uint16{{1, 2, 1}})
		if err == nil || !strings.Contains(err.Error(), job.Name) || !strings.Contains(err.Error(), strings.Fields(c.name)[0]) {
			t.Errorf("%s: err = %v, want an error naming the job and %s", c.name, err, c.name)
		}
	}
}

func TestCombinerCutsShuffle(t *testing.T) {
	cfg := DefaultConfig(2)
	cfg.SplitBytes = 64 // force many splits
	e, _ := NewEngine(cfg)
	input := lines("a a a a a a", "a a a a", "a a a a a")
	plain, err := e.Run(wordCount(), input)
	if err != nil {
		t.Fatal(err)
	}
	combined := wordCount()
	combined.Combine = func(key string, values []string) []string {
		sum := 0
		for _, v := range values {
			n, _ := strconv.Atoi(v)
			sum += n
		}
		return []string{strconv.Itoa(sum)}
	}
	comb, err := e.Run(combined, input)
	if err != nil {
		t.Fatal(err)
	}
	if comb.ShuffleBytes >= plain.ShuffleBytes {
		t.Errorf("combiner did not cut shuffle: %d vs %d", comb.ShuffleBytes, plain.ShuffleBytes)
	}
	if fmt.Sprint(comb.Output) != fmt.Sprint(plain.Output) {
		t.Error("combiner changed the result")
	}
}

func TestSplitInput(t *testing.T) {
	input := lines("aaaa", "bbbb", "cccc", "dddd")
	per := wireBytes(input[0])
	splits, bytes := splitInput(input, wireBytes, per) // each record fills a split
	if len(splits) != 4 || !reflect.DeepEqual(bytes, []int64{per, per, per, per}) {
		t.Errorf("%d splits of %v bytes", len(splits), bytes)
	}
	splits, bytes = splitInput(input, wireBytes, 1<<40)
	if len(splits) != 1 || !reflect.DeepEqual(bytes, []int64{4 * per}) {
		t.Errorf("giant split size: %d splits of %v bytes", len(splits), bytes)
	}
	splits, bytes = splitInput(nil, wireBytes, 100)
	if len(splits) != 1 || len(splits[0]) != 0 || !reflect.DeepEqual(bytes, []int64{0}) {
		t.Errorf("empty input splits: %v of %v bytes", splits, bytes)
	}
}

func TestFewWorkersSerialize(t *testing.T) {
	// 8 map tasks on 1 worker × 1 slot must take ~8× the per-task time.
	cfg := Config{Workers: 1, SlotsPerWorker: 1, JobSetup: 0,
		TaskOverhead: 10, MapRate: 1e9, ReduceRate: 1e9, SplitBytes: 18}
	e, _ := NewEngine(cfg)
	input := lines("a", "b", "c", "d", "e", "f", "g", "h")
	res, err := e.Run(wordCount(), input)
	if err != nil {
		t.Fatal(err)
	}
	if res.MapTasks < 4 {
		t.Fatalf("expected several map tasks, got %d", res.MapTasks)
	}
	serial := res.Elapsed

	cfg.Workers = 16
	e16, _ := NewEngine(cfg)
	res16, err := e16.Run(wordCount(), input)
	if err != nil {
		t.Fatal(err)
	}
	if float64(serial) < 3*float64(res16.Elapsed) {
		t.Errorf("1 worker %v vs 16 workers %v: expected strong serialization", serial, res16.Elapsed)
	}
}

func TestManyWorkersHitOverheadFloor(t *testing.T) {
	// With abundant workers, elapsed approaches setup + 2 task overheads.
	cfg := Config{Workers: 64, SlotsPerWorker: 2, JobSetup: 100,
		TaskOverhead: 5, MapRate: 1e9, ReduceRate: 1e9, SplitBytes: 1 << 20}
	e, _ := NewEngine(cfg)
	res, err := e.Run(wordCount(), lines("a b c", "d e f"))
	if err != nil {
		t.Fatal(err)
	}
	floor := cfg.JobSetup + 2*cfg.TaskOverhead
	if res.Elapsed < floor || res.Elapsed > floor+1 {
		t.Errorf("elapsed %v, want ≈ %v", res.Elapsed, floor)
	}
}

func TestReducerCountControlsPartitions(t *testing.T) {
	job := wordCount()
	job.NumReducers = 3
	e, _ := NewEngine(DefaultConfig(8))
	res, err := e.Run(job, lines("a b c d e f g h"))
	if err != nil {
		t.Fatal(err)
	}
	if res.ReduceTasks != 3 {
		t.Errorf("reduce tasks %d", res.ReduceTasks)
	}
}

func TestElapsedScalesWithVolume(t *testing.T) {
	cfg := DefaultConfig(2)
	cfg.SplitBytes = 1 << 10
	e, _ := NewEngine(cfg)
	small, _ := e.Run(wordCount(), lines(strings.Repeat("word ", 100)))
	big, _ := e.Run(wordCount(), lines(strings.Repeat("word ", 20000)))
	if big.Elapsed <= small.Elapsed {
		t.Errorf("big input %v not slower than small %v", big.Elapsed, small.Elapsed)
	}
}

// referenceRun is the engine's original data path, kept as the
// oracle: two levels of map[string][]string per job, serial tasks,
// accounting interleaved with execution.
func referenceRun(e *Engine, job Job, input []KV) Result {
	reducers := job.NumReducers
	if reducers <= 0 {
		reducers = e.cfg.Workers
	}
	splits, _ := splitInput(input, wireBytes, e.cfg.SplitBytes)
	slots := vclock.NewSlotPool(e.cfg.Workers * e.cfg.SlotsPerWorker)
	smooth := e.volumeScale() > 1
	totalBytes := func(kvs []KV) int64 {
		var n int64
		for _, kv := range kvs {
			n += int64(len(kv.Key) + len(kv.Value) + 16)
		}
		return n
	}
	totalInput := float64(totalBytes(input))

	interm := make([]map[string][]string, len(splits))
	for i, sp := range splits {
		m := make(map[string][]string)
		for _, kv := range sp {
			job.Map(kv, func(out KV) { m[out.Key] = append(m[out.Key], out.Value) })
		}
		if job.Combine != nil {
			for k, vs := range m {
				sort.Strings(vs)
				m[k] = job.Combine(k, vs)
			}
		}
		interm[i] = m
		taskBytes := float64(totalBytes(sp))
		if smooth {
			taskBytes = totalInput / float64(len(splits))
		}
		slots.Acquire(1, 0, e.cfg.TaskOverhead+vclock.Duration(e.volumeScale()*taskBytes/e.cfg.MapRate))
	}

	partitions := make([]map[string][]string, reducers)
	for i := range partitions {
		partitions[i] = make(map[string][]string)
	}
	var shuffleBytes int64
	for _, m := range interm {
		for k, vs := range m {
			p := partitions[keyHash(k)%uint64(reducers)]
			p[k] = append(p[k], vs...)
			for _, v := range vs {
				shuffleBytes += int64(len(k) + len(v) + 16)
			}
		}
	}

	rslots := vclock.NewSlotPool(e.cfg.Workers * e.cfg.SlotsPerWorker)
	var output []KV
	for _, p := range partitions {
		keys := make([]string, 0, len(p))
		var pbytes float64
		for k, vs := range p {
			keys = append(keys, k)
			for _, v := range vs {
				pbytes += float64(len(k) + len(v) + 16)
			}
		}
		sort.Strings(keys)
		for _, k := range keys {
			sort.Strings(p[k])
			job.Reduce(k, p[k], func(out KV) { output = append(output, out) })
		}
		if smooth {
			pbytes = float64(shuffleBytes) / float64(reducers)
		}
		rslots.Acquire(1, 0, e.cfg.TaskOverhead+vclock.Duration(e.volumeScale()*pbytes/e.cfg.ReduceRate))
	}
	sort.Slice(output, func(a, b int) bool {
		if output[a].Key != output[b].Key {
			return output[a].Key < output[b].Key
		}
		return output[a].Value < output[b].Value
	})
	return Result{
		Output:       output,
		Elapsed:      e.cfg.JobSetup + vclock.Duration(slots.Horizon()) + vclock.Duration(rslots.Horizon()),
		MapTasks:     len(splits),
		ReduceTasks:  reducers,
		ShuffleBytes: shuffleBytes,
	}
}

// The shuffle copies each record once: a job whose map and reduce pass
// records through allocates the spilled chunks, the exact-size
// partition runs and the job output, about 112 bytes per record.
// Growing per-partition slices by append, concatenating them and
// appending reduce output allocated 345.
func TestShuffleCopiesOnce(t *testing.T) {
	const n = 1 << 16
	input := make([]KV, n)
	for i := range input {
		input[i] = KV{Key: strconv.Itoa(i * 7919 % n), Value: "v"}
	}
	cfg := DefaultConfig(8)
	cfg.SplitBytes = 1 << 18 // six splits
	e, err := NewEngine(cfg)
	if err != nil {
		t.Fatal(err)
	}
	job := Job{
		Name:   "identity",
		Map:    func(kv KV, emit func(KV)) { emit(kv) },
		Reduce: func(key string, values []string, emit func(KV)) { emit(KV{key, values[0]}) },
	}
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	res, err := e.Run(job, input)
	runtime.ReadMemStats(&after)
	if err != nil || len(res.Output) != n {
		t.Fatalf("%d records out, %v", len(res.Output), err)
	}
	if perRecord := float64(after.TotalAlloc-before.TotalAlloc) / n; perRecord > 128 {
		t.Errorf("Run allocated %.0f bytes per record, want ≤ 128", perRecord)
	}
}

// splitmix is the seeded generator behind the oracle's random jobs.
type splitmix struct{ s uint64 }

func (r *splitmix) intn(n int) int {
	r.s += 0x9E3779B97F4A7C15
	z := r.s
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return int((z ^ (z >> 31)) % uint64(n))
}

// oracleJob is a counting job whose map fans every record out under
// several keys (so one split feeds many partitions and one key gets
// values from many splits) and whose reduce emits under a key other
// than the one it was given (so the output sort has work to do), and
// for a lone value emits more records than it read.
func oracleJob(combine int) Job {
	sum := func(values []string) string {
		total := 0
		for _, v := range values {
			n, _ := strconv.Atoi(v)
			total += n
		}
		return strconv.Itoa(total)
	}
	job := Job{
		Name: "oracle",
		Map: func(kv KV, emit func(KV)) {
			for i := 0; i+3 <= len(kv.Value); i++ {
				emit(KV{Key: kv.Value[i : i+3], Value: strconv.Itoa(1 + i%3)})
			}
		},
		Reduce: func(key string, values []string, emit func(KV)) {
			emit(KV{Key: key[1:] + key[:1], Value: sum(values)})
			switch {
			case len(values) > 2:
				emit(KV{Key: "big", Value: key + "=" + values[0] + ".." + values[len(values)-1]})
			case len(values) == 1:
				emit(KV{Key: "lone", Value: key})
			}
		},
	}
	switch combine {
	case 1: // fold to one value
		job.Combine = func(_ string, values []string) []string { return []string{sum(values)} }
	case 2: // hand the engine its own scratch slice back, shortened
		job.Combine = func(_ string, values []string) []string {
			values[0] = sum(values)
			return values[:1]
		}
	}
	return job
}

// Property: over seeded random inputs, cluster shapes and job
// variants, the engine's Result equals the reference data path's in
// every field — the copy-once shuffle, the in-place reduce output, the
// merged job output, the parallel tasks and the accounting done
// afterwards change nothing a caller can observe.
// `make oracle-determinism` runs it under the race detector with
// -cpu 1,2,8.
func TestEngineMatchesReference(t *testing.T) {
	const alphabet = "abcd"
	for seed := uint64(1); seed <= 120; seed++ {
		r := &splitmix{s: seed}
		var input []KV // empty for one seed in six
		if r.intn(6) > 0 {
			input = make([]KV, 1+r.intn(60))
		}
		for i := range input {
			v := make([]byte, r.intn(12))
			for j := range v {
				v[j] = alphabet[r.intn(len(alphabet))]
			}
			input[i] = KV{Key: strconv.Itoa(i), Value: string(v)}
		}
		cfg := DefaultConfig(1 + r.intn(5))
		cfg.SlotsPerWorker = 1 + r.intn(3)
		switch r.intn(3) {
		case 0:
			cfg.SplitBytes = 1 // every record its own split
		case 1:
			cfg.SplitBytes = int64(20 + r.intn(200))
		default:
			cfg.SplitBytes = 1 << 30 // everything in one split
		}
		cfg.VolumeScale = []float64{0, 0.5, 1, 3.7, 22}[r.intn(5)]
		e, err := NewEngine(cfg)
		if err != nil {
			t.Fatal(err)
		}
		combine := r.intn(3)
		reducers := r.intn(18) // 0 = one per worker
		name := fmt.Sprintf("seed=%d records=%d split=%d scale=%g combine=%d reducers=%d",
			seed, len(input), cfg.SplitBytes, cfg.VolumeScale, combine, reducers)

		job := oracleJob(combine)
		job.NumReducers = reducers
		got, err := e.Run(job, input)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		ref := oracleJob(combine)
		ref.NumReducers = reducers
		want := referenceRun(e, ref, input)
		if len(got.Output) == 0 && len(want.Output) == 0 {
			got.Output, want.Output = nil, nil
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("%s:\n got %+v\nwant %+v", name, got, want)
		}
	}
}

// sum adds up the values.
func sum(values []int) int {
	total := 0
	for _, v := range values {
		total += v
	}
	return total
}

// countJob is a typed counting job over lines of keys: every key is
// emitted with a value of 1 to 3, billed by that value, so that a fold
// billed after it would bill less; the reduce emits each key's sum,
// and for an odd sum a record under another key, so that the output
// sort has work to do. With fold it folds values by adding them.
func countJob(fold bool) TypedJob[[]uint16, uint16, int] {
	job := TypedJob[[]uint16, uint16, int]{
		Name: "count",
		Map: func(keys []uint16, emit func(Pair[uint16, int])) {
			for i, k := range keys {
				emit(Pair[uint16, int]{k, 1 + (i+int(k))%3})
			}
		},
		Reduce: func(key uint16, values []int, emit func(Pair[uint16, int])) {
			n := sum(values)
			emit(Pair[uint16, int]{key, n})
			if n%2 == 1 {
				emit(Pair[uint16, int]{key ^ 0x55, -n})
			}
		},
		InputBytes: func(keys []uint16) int64 { return int64(16 + 2*len(keys)) },
		Bytes:      func(r Pair[uint16, int]) int64 { return int64(8 + r.Value) },
		Partition:  func(k uint16) uint64 { return uint64(k) * 0x9E3779B97F4A7C15 >> 7 },
		Compare: func(a, b Pair[uint16, int]) int {
			if a.Key != b.Key {
				return int(a.Key) - int(b.Key)
			}
			return a.Value - b.Value
		},
	}
	if fold {
		job.Fold = func(a, b int) int { return a + b }
	}
	return job
}

// Property: over seeded keys that repeat across splits and partitions,
// a job with a Fold gives the unfolded job's Result in every field:
// the fold changes what a reduce task sorts, never the output or what
// is billed. Every split size from one record per split to one split,
// 0 (one per worker) to 17 reducers and volume scales below, at and
// above 1 are covered, and under Fold every key reaches Reduce as one
// value. `make oracle-determinism` runs it under the race detector with
// -cpu 1,2,8.
func TestFoldMatchesUnfolded(t *testing.T) {
	seed := uint64(0)
	for _, split := range []int64{1, 96, 1 << 30} {
		for reducers := 0; reducers <= 17; reducers++ {
			for _, scale := range []float64{0, 0.5, 1, 40} {
				seed++
				r := &splitmix{s: seed}
				var input [][]uint16 // empty for one case in seven
				if r.intn(7) > 0 {
					input = make([][]uint16, 1+r.intn(40))
				}
				distinct := 1 + r.intn(60)
				for i := range input {
					input[i] = make([]uint16, r.intn(20))
					for j := range input[i] {
						input[i][j] = uint16(r.intn(distinct))
					}
				}
				cfg := DefaultConfig(1 + r.intn(5))
				cfg.SlotsPerWorker = 1 + r.intn(3)
				cfg.SplitBytes = split
				cfg.VolumeScale = scale
				e, err := NewEngine(cfg)
				if err != nil {
					t.Fatal(err)
				}
				name := fmt.Sprintf("seed=%d lines=%d keys=%d split=%d reducers=%d scale=%g workers=%d",
					seed, len(input), distinct, split, reducers, scale, cfg.Workers)

				plain := countJob(false)
				plain.NumReducers = reducers
				want, err := RunTyped(e, plain, input)
				if err != nil {
					t.Fatalf("%s: unfolded: %v", name, err)
				}
				folded := countJob(true)
				folded.NumReducers = reducers
				var multi atomic.Int64
				reduce := folded.Reduce
				folded.Reduce = func(key uint16, values []int, emit func(Pair[uint16, int])) {
					if len(values) != 1 {
						multi.Add(1)
					}
					reduce(key, values, emit)
				}
				got, err := RunTyped(e, folded, input)
				if err != nil {
					t.Fatalf("%s: folded: %v", name, err)
				}
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("%s:\n got %+v\nwant %+v", name, got, want)
				}
				if n := multi.Load(); n > 0 {
					t.Fatalf("%s: %d keys reached Reduce unfolded", name, n)
				}
			}
		}
	}
}
