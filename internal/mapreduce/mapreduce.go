// Package mapreduce simulates a Hadoop-era MapReduce engine, the
// substrate of the Contrail assembler in the paper.
//
// Jobs execute for real — mappers and reducers are Go functions over
// real key/value data — while elapsed time is accounted in virtual
// seconds: a fixed per-job setup cost (the "Hadoop tax" of job
// submission, JVM spawning and HDFS staging), per-task overheads, and
// input/shuffle volume divided by per-slot processing rates, list-
// scheduled over the cluster's task slots.
//
// The model reproduces the paper's Contrail observations: with few
// workers an iterative assembler is very slow because every round's
// tasks serialize over scarce slots, while with many workers round
// time approaches the fixed per-round overhead, letting Contrail
// converge toward (but not beat) the MPI assemblers' TTC.
package mapreduce

import (
	"fmt"
	"runtime"
	"slices"
	"strings"
	"sync"
	"sync/atomic"

	"rnascale/internal/vclock"
)

// Pair is one key/value record.
type Pair[K comparable, V any] struct {
	Key   K
	Value V
}

// KV is one text record, the record type of a Job.
type KV = Pair[string, string]

// wireBytes estimates a text record's serialized size, including
// framing.
func wireBytes(kv KV) int64 { return int64(len(kv.Key) + len(kv.Value) + 16) }

// Job is one MapReduce job over text records. The engine runs
// independent map splits, and then independent reduce partitions, on
// several host goroutines: Map, Combine and Reduce may each be called
// concurrently for different tasks (never for the same task), so they
// must not write shared state without synchronization.
type Job struct {
	Name string
	// Map transforms one input record into zero or more intermediate
	// records.
	Map func(kv KV, emit func(KV))
	// Reduce folds all values of one key into zero or more output
	// records. Values arrive sorted for determinism, in a slice the
	// engine reuses for the next key: Reduce must not retain it past
	// the call (the strings in it may be kept).
	Reduce func(key string, values []string, emit func(KV))
	// Combine optionally pre-folds one split's values for a key
	// map-side, cutting shuffle volume. Same contract as Reduce's
	// folding (must be associative, must not retain values); it may
	// return its argument.
	Combine func(key string, values []string) []string
	// NumReducers overrides the reducer task count (default: one per
	// worker).
	NumReducers int
}

// TypedJob is one MapReduce job that maps input records of type I to
// intermediate records Pair[K, V] and reduces those to output records
// of the same type. Map, Reduce, Combine and NumReducers follow Job's
// contract. The other four functions are the record operations the
// engine needs, and must be pure:
//   - InputBytes and Bytes are the wire lengths billed for an input
//     and for an intermediate record;
//   - Partition hashes a key to pick its reducer;
//   - Compare totally orders records, by key first, so that equal keys
//     sort next to each other and values arrive sorted.
//
// Fold, if set, merges two values of one key; it must be associative
// and commutative, and Reduce must give the same output for a key's
// values as for the one value they fold to. A reduce task then folds
// its records to one per key before sorting them and calls Reduce with
// that value alone. The fold happens after the task's records are
// billed, so Elapsed and ShuffleBytes are the unfolded job's. A job
// sets Fold or Combine, not both.
type TypedJob[I any, K comparable, V any] struct {
	Name        string
	Map         func(in I, emit func(Pair[K, V]))
	Reduce      func(key K, values []V, emit func(Pair[K, V]))
	Combine     func(key K, values []V) []V
	Fold        func(a, b V) V
	NumReducers int

	InputBytes func(in I) int64
	Bytes      func(rec Pair[K, V]) int64
	Partition  func(key K) uint64
	Compare    func(a, b Pair[K, V]) int
}

// Config sizes the simulated Hadoop cluster.
type Config struct {
	// Workers is the number of worker nodes.
	Workers int
	// SlotsPerWorker is the concurrent task capacity per node
	// (Hadoop-1 era default: 2).
	SlotsPerWorker int
	// JobSetup is the fixed per-job overhead.
	JobSetup vclock.Duration
	// TaskOverhead is the per-task start cost (JVM spawn).
	TaskOverhead vclock.Duration
	// MapRate and ReduceRate are bytes processed per second per slot.
	MapRate, ReduceRate float64
	// SplitBytes is the map input split size (HDFS block).
	SplitBytes int64
	// VolumeScale multiplies byte volumes in *cost* computations
	// (default 1). Jobs that process scaled-down stand-in data but
	// must be billed at full dataset scale set this to the scale
	// ratio; together with a proportionally reduced SplitBytes, both
	// per-task cost and task fan-out land at full scale.
	VolumeScale float64
}

// DefaultConfig returns a cluster of n workers, two slots each, with
// Hadoop-1-era job and task overheads and generic record rates, for
// jobs with no calibration of their own. Contrail sets its own Config.
func DefaultConfig(n int) Config {
	return Config{
		Workers:        n,
		SlotsPerWorker: 2,
		JobSetup:       25 * vclock.Second,
		TaskOverhead:   4 * vclock.Second,
		MapRate:        2e6,
		ReduceRate:     1.5e6,
		SplitBytes:     64 << 20,
	}
}

// Engine runs jobs on one simulated cluster.
type Engine struct {
	cfg Config
}

// NewEngine validates the configuration.
func NewEngine(cfg Config) (*Engine, error) {
	if cfg.Workers <= 0 {
		return nil, fmt.Errorf("mapreduce: %d workers", cfg.Workers)
	}
	if cfg.SlotsPerWorker <= 0 {
		return nil, fmt.Errorf("mapreduce: %d slots per worker", cfg.SlotsPerWorker)
	}
	if cfg.MapRate <= 0 || cfg.ReduceRate <= 0 {
		return nil, fmt.Errorf("mapreduce: non-positive processing rate")
	}
	if cfg.SplitBytes <= 0 {
		return nil, fmt.Errorf("mapreduce: split size %d", cfg.SplitBytes)
	}
	return &Engine{cfg: cfg}, nil
}

// volumeScale normalizes the cost multiplier.
func (e *Engine) volumeScale() float64 {
	if e.cfg.VolumeScale <= 0 {
		return 1
	}
	return e.cfg.VolumeScale
}

// TypedResult carries a finished job's output and accounting.
type TypedResult[K comparable, V any] struct {
	Output []Pair[K, V]
	// Elapsed is the job's virtual duration including setup.
	Elapsed vclock.Duration
	// MapTasks and ReduceTasks report the task fan-out.
	MapTasks, ReduceTasks int
	// ShuffleBytes is the intermediate volume after combining.
	ShuffleBytes int64
}

// Result is a text job's TypedResult.
type Result = TypedResult[string, string]

// Run executes one text job over the input and returns its sorted
// output: RunTyped with text records, billed at len(key)+len(value)+16
// bytes, partitioned by an FNV-1a hash of the key and ordered by key,
// then value.
func (e *Engine) Run(job Job, input []KV) (Result, error) {
	return RunTyped(e, TypedJob[KV, string, string]{
		Name:        job.Name,
		Map:         job.Map,
		Reduce:      job.Reduce,
		Combine:     job.Combine,
		NumReducers: job.NumReducers,
		InputBytes:  wireBytes,
		Bytes:       wireBytes,
		Partition:   keyHash,
		Compare:     compareKV,
	}, input)
}

// RunTyped executes one job over the input on e's cluster and returns
// its sorted output.
//
// Each record is copied once between map and reduce. A map task
// spills its records by partition, into chunks that grow without
// copying; a reduce task takes its partition's chunks, in split order
// and then emission order as a Hadoop reducer fetches them, folds them
// in place to one record per key if the job has a Fold, and gathers
// what is left into one exact-size run. It sorts the run in place,
// reduces consecutive equal keys writing its output over the records
// already read, and sorts that output. The job's output is a k-way
// merge of those sorted outputs into one exact-size slice. Map splits,
// then reduce partitions, execute on up to GOMAXPROCS host goroutines;
// the virtual-time accounting happens afterwards from integer byte
// totals, so neither Output nor Elapsed depends on how many ran.
func RunTyped[I any, K comparable, V any](e *Engine, job TypedJob[I, K, V], input []I) (TypedResult[K, V], error) {
	type rec = Pair[K, V]
	missing := ""
	switch {
	case job.Map == nil:
		missing = "Map"
	case job.Reduce == nil:
		missing = "Reduce"
	case job.InputBytes == nil:
		missing = "InputBytes"
	case job.Bytes == nil:
		missing = "Bytes"
	case job.Partition == nil:
		missing = "Partition"
	case job.Compare == nil:
		missing = "Compare"
	}
	if missing != "" {
		return TypedResult[K, V]{}, fmt.Errorf("mapreduce: job %q has no %s function", job.Name, missing)
	}
	if job.Combine != nil && job.Fold != nil {
		return TypedResult[K, V]{}, fmt.Errorf("mapreduce: job %q sets both Combine and Fold", job.Name)
	}
	reducers := job.NumReducers
	if reducers <= 0 {
		reducers = e.cfg.Workers
	}
	splits, mapBytes := splitInput(input, job.InputBytes, e.cfg.SplitBytes)

	// --- Map phase: one spill per split ---
	spills := make([]spill[rec], len(splits))
	parallel(len(splits), func(_, i int) {
		sp := make(spill[rec], reducers)
		spills[i] = sp
		toSpill := func(out rec) { sp.add(int(job.Partition(out.Key)%uint64(reducers)), out) }
		if job.Combine == nil {
			for _, in := range splits[i] {
				job.Map(in, toSpill)
			}
			return
		}
		var emitted []rec
		for _, in := range splits[i] {
			job.Map(in, func(out rec) { emitted = append(emitted, out) })
		}
		slices.SortFunc(emitted, job.Compare)
		forEachKey(emitted, func(key K, values []V) {
			for _, v := range job.Combine(key, values) {
				toSpill(rec{key, v})
			}
		})
	})

	// --- Shuffle + reduce phase: one sorted run per partition ---
	partBytes := make([]int64, reducers)
	outputs := make([][]rec, reducers)
	indexes := make([]map[K]int, reducers) // per host goroutine, for Fold
	parallel(reducers, func(g, p int) {
		chunks := take(spills, p)
		for _, chunk := range chunks {
			for _, r := range chunk {
				partBytes[p] += job.Bytes(r)
			}
		}
		if job.Fold != nil {
			if indexes[g] == nil {
				indexes[g] = make(map[K]int)
			}
			chunks = fold(chunks, indexes[g], job.Fold)
		}
		run := gather(chunks)
		slices.SortFunc(run, job.Compare)
		read, w := 0, 0 // records grouped so far; output in run[:w]
		var extra []rec // output once it outgrows the records read
		emit := func(r rec) {
			if w < read && extra == nil {
				run[w] = r
				w++
				return
			}
			extra = append(extra, r)
		}
		forEachKey(run, func(key K, values []V) {
			read += len(values)
			job.Reduce(key, values, emit)
		})
		out := append(run[:w], extra...)
		switch {
		case len(out) > len(run): // out has an array of its own
		case 2*len(out) < len(run):
			out = slices.Clone(out) // keep at most twice the output alive
		default:
			clear(run[len(out):]) // drop what the reduced records point to
		}
		if !slices.IsSortedFunc(out, job.Compare) {
			slices.SortFunc(out, job.Compare)
		}
		outputs[p] = out
	})
	output := mergeSorted(outputs, job.Compare)

	mapDone, _ := e.phase(e.cfg.MapRate, mapBytes)
	reduceDone, shuffleBytes := e.phase(e.cfg.ReduceRate, partBytes)
	return TypedResult[K, V]{
		Output:       output,
		Elapsed:      e.cfg.JobSetup + mapDone + reduceDone,
		MapTasks:     len(splits),
		ReduceTasks:  reducers,
		ShuffleBytes: shuffleBytes,
	}, nil
}

// phase list-schedules one task per entry of taskBytes over the
// cluster's slots and returns the phase's virtual duration and its
// byte total.
//
// When billing a scaled stand-in dataset at full scale
// (VolumeScale > 1), per-task costs are smoothed to the phase mean:
// the full-scale job has VolumeScale× more records of ordinary size,
// so the skew of individual oversized stand-in records is an artifact
// that must not masquerade as straggler tasks.
func (e *Engine) phase(rate float64, taskBytes []int64) (vclock.Duration, int64) {
	var total int64
	for _, b := range taskBytes {
		total += b
	}
	scale := e.volumeScale()
	slots := vclock.NewSlotPool(e.cfg.Workers * e.cfg.SlotsPerWorker)
	for _, b := range taskBytes {
		bytes := float64(b)
		if scale > 1 {
			bytes = float64(total) / float64(len(taskBytes))
		}
		slots.Acquire(1, 0, e.cfg.TaskOverhead+vclock.Duration(scale*bytes/rate))
	}
	return vclock.Duration(slots.Horizon()), total
}

// compareKV orders records by key, then value.
func compareKV(a, b KV) int {
	if c := strings.Compare(a.Key, b.Key); c != 0 {
		return c
	}
	return strings.Compare(a.Value, b.Value)
}

// spillChunk caps the records per chunk of a spill.
const (
	spillChunkBits = 12
	spillChunk     = 1 << spillChunkBits
)

// spill is one map task's output: per partition, its records in
// emission order, in chunks that double up to spillChunk so that
// collecting them never copies one.
type spill[R any] [][][]R // [partition][chunk][record]

// add appends r to partition p.
func (sp spill[R]) add(p int, r R) {
	chunks := sp[p]
	last := len(chunks) - 1
	if last < 0 || len(chunks[last]) == cap(chunks[last]) {
		size := 16
		if last >= 0 {
			size = min(2*cap(chunks[last]), spillChunk)
		}
		chunks = append(chunks, make([]R, 0, size))
		last++
	}
	chunks[last] = append(chunks[last], r)
	sp[p] = chunks
}

// take moves partition p's chunks out of the spills, in split order.
func take[R any](spills []spill[R], p int) [][]R {
	var chunks [][]R
	for _, sp := range spills {
		chunks = append(chunks, sp[p]...)
		sp[p] = nil
	}
	return chunks
}

// gather copies the chunks' records, in order, into one exact-size
// run. (slices.Concat would too, but under the race detector it
// allocates the run twice.)
func gather[R any](chunks [][]R) []R {
	n := 0
	for _, chunk := range chunks {
		n += len(chunk)
	}
	run := make([]R, 0, n)
	for _, chunk := range chunks {
		run = append(run, chunk...)
	}
	return run
}

// fold merges each key's records, in order, into the first of them,
// moving that one to the front of the chunks, and returns the chunks
// cut to the records kept: one per key, in the order the keys first
// appear. The index maps a key to its record's place, chunk number <<
// spillChunkBits | offset, which fits because no chunk holds more than
// spillChunk records. index is scratch, empty on entry and on return.
func fold[K comparable, V any](chunks [][]Pair[K, V], index map[K]int, merge func(a, b V) V) [][]Pair[K, V] {
	if len(chunks) == 0 {
		return nil
	}
	c, o := 0, 0 // the next kept record's place, never past the one read
	for _, chunk := range chunks {
		for _, r := range chunk {
			if at, ok := index[r.Key]; ok {
				kept := &chunks[at>>spillChunkBits][at&(spillChunk-1)]
				kept.Value = merge(kept.Value, r.Value)
				continue
			}
			for o == len(chunks[c]) {
				c, o = c+1, 0
			}
			index[r.Key] = c<<spillChunkBits | o
			chunks[c][o] = r
			o++
		}
	}
	clear(index)
	chunks[c] = chunks[c][:o]
	return chunks[:c+1]
}

// mergeSorted merges runs sorted by cmp into a new sorted slice of
// exactly their total length, nil if that is zero. A winner tree over
// the run heads picks each next record in ⌈log2 len(runs)⌉
// comparisons; equal records are identical, so which run supplies one
// is invisible.
func mergeSorted[R any](runs [][]R, cmp func(a, b R) int) []R {
	total := 0
	for _, run := range runs {
		total += len(run)
	}
	if total == 0 {
		return nil
	}
	leaves := 1
	for leaves < len(runs) {
		leaves *= 2
	}
	// play returns the run whose head sorts first; an exhausted run, or
	// a padding leaf past the last run, never wins.
	play := func(a, b int) int {
		switch {
		case a >= len(runs) || len(runs[a]) == 0:
			return b
		case b >= len(runs) || len(runs[b]) == 0:
			return a
		case cmp(runs[b][0], runs[a][0]) < 0:
			return b
		}
		return a
	}
	tree := make([]int, 2*leaves) // tree[n] is the winner of node n; leaves at leaves+r
	for r := range leaves {
		tree[leaves+r] = r
	}
	for n := leaves - 1; n > 0; n-- {
		tree[n] = play(tree[2*n], tree[2*n+1])
	}
	out := make([]R, total)
	for i := range out {
		w := tree[1]
		out[i] = runs[w][0]
		runs[w] = runs[w][1:]
		for n := (leaves + w) / 2; n > 0; n /= 2 {
			tree[n] = play(tree[2*n], tree[2*n+1])
		}
	}
	return out
}

// forEachKey calls fn once per run of consecutive equal keys in the
// sorted records, with the run's values in a scratch slice that is
// reused for the next key.
func forEachKey[K comparable, V any](sorted []Pair[K, V], fn func(key K, values []V)) {
	var values []V
	for i := 0; i < len(sorted); {
		key := sorted[i].Key
		values = values[:0]
		for ; i < len(sorted) && sorted[i].Key == key; i++ {
			values = append(values, sorted[i].Value)
		}
		fn(key, values)
	}
}

// parallel runs task(g, 0) … task(g, n-1) on up to GOMAXPROCS
// goroutines and returns when all have finished. g < n numbers the
// goroutine running the task, so that tasks may reuse per-goroutine
// scratch; which goroutine runs which task varies from call to call.
// Tasks write only to their own index of the caller's result slices.
func parallel(n int, task func(g, i int)) {
	var next atomic.Int64
	var wg sync.WaitGroup
	for g := range min(n, runtime.GOMAXPROCS(0)) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := int(next.Add(1)) - 1; i < n; i = int(next.Add(1)) - 1 {
				task(g, i)
			}
		}()
	}
	wg.Wait()
}

// splitInput partitions records into contiguous splits of roughly
// maxBytes each (at least one split for non-empty input) and returns
// each split's byte total.
func splitInput[I any](input []I, bytes func(I) int64, maxBytes int64) ([][]I, []int64) {
	if len(input) == 0 {
		return [][]I{{}}, []int64{0}
	}
	var splits [][]I
	var totals []int64
	start := 0
	var acc int64
	for i, in := range input {
		acc += bytes(in)
		if acc >= maxBytes {
			splits = append(splits, input[start:i+1])
			totals = append(totals, acc)
			start = i + 1
			acc = 0
		}
	}
	if start < len(input) {
		splits = append(splits, input[start:])
		totals = append(totals, acc)
	}
	return splits, totals
}

// keyHash is FNV-1a over the key.
func keyHash(s string) uint64 {
	var h uint64 = 14695981039346656037
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= 1099511628211
	}
	return h
}
