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

	"rnascale/internal/obs/perf"
	"rnascale/internal/vclock"
)

// KV is one key/value record.
type KV struct {
	Key   string
	Value string
}

// wireBytes estimates a record's serialized size, including framing.
func wireBytes(kv KV) int64 { return int64(len(kv.Key) + len(kv.Value) + 16) }

// TotalBytes sums the serialized size of a record set.
func TotalBytes(kvs []KV) int64 {
	var n int64
	for _, kv := range kvs {
		n += wireBytes(kv)
	}
	return n
}

// Job is one MapReduce job. The engine runs independent map splits,
// and then independent reduce partitions, on several host goroutines:
// Map, Combine and Reduce may each be called concurrently for
// different tasks (never for the same task), so they must not write
// shared state without synchronization.
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

// DefaultConfig returns a cluster of n workers with Hadoop-1-era
// overheads, calibrated so that Contrail's Table III baseline (6,720 s
// at 2 nodes) and Fig. 3 convergence emerge.
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

// Result carries a finished job's output and accounting.
type Result struct {
	Output []KV
	// Elapsed is the job's virtual duration including setup.
	Elapsed vclock.Duration
	// MapTasks and ReduceTasks report the task fan-out.
	MapTasks, ReduceTasks int
	// ShuffleBytes is the intermediate volume after combining.
	ShuffleBytes int64
}

// Run executes one job over the input and returns its sorted output.
//
// Records move through flat per-reducer runs (partitioned at emit,
// sorted once, reduced over consecutive equal keys). Map splits, then
// reduce partitions, execute on up to GOMAXPROCS host goroutines; the
// virtual-time accounting happens afterwards from integer byte
// totals, so neither Output nor Elapsed depends on how many ran.
func (e *Engine) Run(job Job, input []KV) (Result, error) {
	defer perf.Region("mapreduce.run").End()
	if job.Map == nil || job.Reduce == nil {
		return Result{}, fmt.Errorf("mapreduce: job %q missing map or reduce", job.Name)
	}
	reducers := job.NumReducers
	if reducers <= 0 {
		reducers = e.cfg.Workers
	}
	splits := splitInput(input, e.cfg.SplitBytes)

	// --- Map phase: runs[split][partition] ---
	mapBytes := make([]int64, len(splits))
	runs := make([][][]KV, len(splits))
	parallel(len(splits), func(i int) {
		mapBytes[i] = TotalBytes(splits[i])
		parts := make([][]KV, reducers)
		runs[i] = parts
		toPartition := func(out KV) {
			p := keyHash(out.Key) % uint64(reducers)
			parts[p] = append(parts[p], out)
		}
		if job.Combine == nil {
			for _, kv := range splits[i] {
				job.Map(kv, toPartition)
			}
			return
		}
		var emitted []KV
		for _, kv := range splits[i] {
			job.Map(kv, func(out KV) { emitted = append(emitted, out) })
		}
		slices.SortFunc(emitted, compareKV)
		forEachKey(emitted, func(key string, values []string) {
			for _, v := range job.Combine(key, values) {
				toPartition(KV{key, v})
			}
		})
	})

	// --- Shuffle + reduce phase: one sorted run per partition ---
	partBytes := make([]int64, reducers)
	outputs := make([][]KV, reducers)
	parallel(reducers, func(p int) {
		run := runs[0][p]
		runs[0][p] = nil // a finished partition's records are garbage
		for _, parts := range runs[1:] {
			run = append(run, parts[p]...)
			parts[p] = nil
		}
		partBytes[p] = TotalBytes(run)
		slices.SortFunc(run, compareKV)
		var out []KV
		emit := func(kv KV) { out = append(out, kv) }
		forEachKey(run, func(key string, values []string) { job.Reduce(key, values, emit) })
		outputs[p] = out
	})
	output := slices.Concat(outputs...)
	slices.SortFunc(output, compareKV)

	mapDone, _ := e.phase(e.cfg.MapRate, mapBytes)
	reduceDone, shuffleBytes := e.phase(e.cfg.ReduceRate, partBytes)
	return Result{
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

// forEachKey calls fn once per run of consecutive equal keys in the
// sorted records, with the run's values in a scratch slice that is
// reused for the next key.
func forEachKey(sorted []KV, fn func(key string, values []string)) {
	var values []string
	for i := 0; i < len(sorted); {
		key := sorted[i].Key
		values = values[:0]
		for ; i < len(sorted) && sorted[i].Key == key; i++ {
			values = append(values, sorted[i].Value)
		}
		fn(key, values)
	}
}

// parallel runs task(0) … task(n-1) on up to GOMAXPROCS goroutines
// and returns when all have finished. Tasks write only to their own
// index of the caller's result slices.
func parallel(n int, task func(i int)) {
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := min(n, runtime.GOMAXPROCS(0)); w > 0; w-- {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := int(next.Add(1)) - 1; i < n; i = int(next.Add(1)) - 1 {
				task(i)
			}
		}()
	}
	wg.Wait()
}

// RunChain executes jobs sequentially, feeding each job's output to
// the next, and returns the final output plus the summed duration —
// the execution pattern of iterative graph algorithms like Contrail.
func (e *Engine) RunChain(jobs []Job, input []KV) ([]KV, vclock.Duration, error) {
	cur := input
	var total vclock.Duration
	for i := range jobs {
		res, err := e.Run(jobs[i], cur)
		if err != nil {
			return nil, total, fmt.Errorf("mapreduce: chain step %d (%s): %w", i, jobs[i].Name, err)
		}
		cur = res.Output
		total += res.Elapsed
	}
	return cur, total, nil
}

// splitInput partitions records into contiguous splits of roughly
// maxBytes each (at least one split for non-empty input).
func splitInput(input []KV, maxBytes int64) [][]KV {
	if len(input) == 0 {
		return [][]KV{{}}
	}
	var splits [][]KV
	start := 0
	var acc int64
	for i, kv := range input {
		acc += wireBytes(kv)
		if acc >= maxBytes {
			splits = append(splits, input[start:i+1])
			start = i + 1
			acc = 0
		}
	}
	if start < len(input) {
		splits = append(splits, input[start:])
	}
	return splits
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
