package mapreduce

import (
	"fmt"
	"reflect"
	"sort"
	"strconv"
	"strings"
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
	splits := splitInput(input, per) // each record fills a split
	if len(splits) != 4 {
		t.Errorf("%d splits", len(splits))
	}
	splits = splitInput(input, 1<<40)
	if len(splits) != 1 {
		t.Errorf("giant split size: %d splits", len(splits))
	}
	splits = splitInput(nil, 100)
	if len(splits) != 1 || len(splits[0]) != 0 {
		t.Errorf("empty input splits: %v", splits)
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

func TestRunChainIterates(t *testing.T) {
	// Each round appends one 'x' to every value; durations add up.
	round := Job{
		Name: "append",
		Map:  func(kv KV, emit func(KV)) { emit(KV{kv.Key, kv.Value + "x"}) },
		Reduce: func(key string, values []string, emit func(KV)) {
			for _, v := range values {
				emit(KV{key, v})
			}
		},
	}
	e, _ := NewEngine(DefaultConfig(2))
	out, total, err := e.RunChain([]Job{round, round, round}, lines("seed"))
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != 1 || out[0].Value != "seedxxx" {
		t.Errorf("chain output %v", out)
	}
	single, err := e.Run(round, lines("seed"))
	if err != nil {
		t.Fatal(err)
	}
	if total < 3*single.Elapsed-1 {
		t.Errorf("chain %v vs 3×%v: per-round cost lost", total, single.Elapsed)
	}
	// Chain with a broken job surfaces the error.
	if _, _, err := e.RunChain([]Job{{Name: "bad"}}, nil); err == nil {
		t.Error("bad chain step accepted")
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
	splits := splitInput(input, e.cfg.SplitBytes)
	slots := vclock.NewSlotPool(e.cfg.Workers * e.cfg.SlotsPerWorker)
	smooth := e.volumeScale() > 1
	totalInput := float64(TotalBytes(input))

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
		taskBytes := float64(TotalBytes(sp))
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
// than the one it was given (so the output sort has work to do).
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
			if len(values) > 2 {
				emit(KV{Key: "big", Value: key + "=" + values[0] + ".." + values[len(values)-1]})
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
// every field — the flat-run shuffle, the parallel tasks and the
// accounting done afterwards change nothing a caller can observe.
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
