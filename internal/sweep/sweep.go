// Package sweep is the deterministic parallel executor behind the
// repository's own evaluation: the experiment grids (Tables III/V,
// Figs. 3–5) and the chaos-soak seed matrix. Ranges, its second
// entry point, fans one pure computation's index range out across
// host cores (quantification, the per-assembler merges, DETONATE
// scoring).
//
// Every one of those workloads is a slice of fully isolated cells —
// each simulated run owns its own vclock.Clock, cloud provider and
// obs registry, and shares nothing mutable with its neighbours — so
// the engine's job is not synchronization of the work itself but the
// properties around it:
//
//   - ordered collection: results come back in submission order, so
//     rendered tables are byte-identical regardless of worker count;
//   - panic capture: a panicking cell becomes that cell's error
//     (with the stack attached) instead of tearing down the process
//     from a bare goroutine;
//   - shared progress: an optional serialized callback sees the
//     completion counter tick 1..n, deterministic in content even
//     though cell completion order is not;
//   - deterministic error selection: when cells fail, Map reports the
//     lowest-index failure, independent of scheduling.
//
// The engine deliberately runs every cell even when some fail —
// aborting on first error would make the set of executed cells
// scheduling-dependent, and cells are simulations whose partial
// results (Collect) are often the point.
package sweep

import (
	"fmt"
	"runtime"
	"runtime/debug"
	"sync"
)

// Options tune one sweep execution. The zero value is ready to use.
type Options struct {
	// Workers is the goroutine count the cells are fanned across.
	// Values < 1 use runtime.GOMAXPROCS(0). The result of a sweep is
	// identical for every worker count, by construction.
	Workers int
	// OnProgress, when non-nil, is called after each cell completes
	// with the number of completed cells and the total. Calls are
	// serialized and the done counter ticks 1..total exactly once
	// each, so progress output is itself deterministic in content.
	OnProgress func(done, total int)
}

// resolveWorkers reports the effective worker count for a Workers
// option value: values < 1 resolve to runtime.GOMAXPROCS(0), the
// documented default. A sweep additionally never runs more workers
// than it has cells; that cap is per-call and applied by
// Options.workers.
func resolveWorkers(workers int) int {
	if workers < 1 {
		return runtime.GOMAXPROCS(0)
	}
	return workers
}

func (o Options) workers(n int) int {
	w := resolveWorkers(o.Workers)
	if w > n {
		w = n
	}
	return w
}

// Outcome is one cell's result in Collect's per-cell reporting.
type Outcome[T any] struct {
	// Index is the cell's submission index.
	Index int
	// Value is fn's result; the zero value when Err is non-nil.
	Value T
	// Err is the cell's error. A panicking cell yields a *PanicError.
	Err error
}

// PanicError is a cell panic converted into that cell's error.
type PanicError struct {
	// Cell is the submission index of the panicking cell.
	Cell int
	// Value is the value passed to panic.
	Value any
	// Stack is the panicking goroutine's stack trace.
	Stack string
}

// Error implements error.
func (e *PanicError) Error() string {
	return fmt.Sprintf("sweep: cell %d panicked: %v", e.Cell, e.Value)
}

// Collect runs fn(0..n-1) across the configured workers and returns
// every cell's outcome in submission order. It never fails as a
// batch: per-cell errors (including captured panics) land in the
// corresponding Outcome, and every cell runs regardless of its
// neighbours' fates.
func Collect[T any](n int, fn func(i int) (T, error), opts Options) []Outcome[T] {
	out := make([]Outcome[T], n)
	if n <= 0 {
		return out
	}
	workers := opts.workers(n)

	var (
		progressMu sync.Mutex
		done       int
	)
	report := func() {
		if opts.OnProgress == nil {
			return
		}
		progressMu.Lock()
		done++
		opts.OnProgress(done, n)
		progressMu.Unlock()
	}

	runCell := func(i int) {
		defer func() {
			if r := recover(); r != nil {
				out[i] = Outcome[T]{Index: i, Err: &PanicError{
					Cell: i, Value: r, Stack: string(debug.Stack()),
				}}
			}
			report()
		}()
		v, err := fn(i)
		out[i] = Outcome[T]{Index: i, Value: v, Err: err}
	}

	if workers == 1 {
		// Inline fast path: no goroutines, same semantics.
		for i := 0; i < n; i++ {
			runCell(i)
		}
		return out
	}

	cells := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range cells {
				runCell(i)
			}
		}()
	}
	for i := 0; i < n; i++ {
		cells <- i
	}
	close(cells)
	wg.Wait()
	return out
}

// Map runs fn(0..n-1) across the configured workers and returns the
// values in submission order. When cells fail, the error is the
// lowest-index cell's error — a deterministic choice independent of
// scheduling — and the returned slice still carries every successful
// cell's value.
func Map[T any](n int, fn func(i int) (T, error), opts Options) ([]T, error) {
	outcomes := Collect(n, fn, opts)
	values := make([]T, n)
	var firstErr error
	for _, o := range outcomes {
		values[o.Index] = o.Value
		if o.Err != nil && firstErr == nil {
			firstErr = fmt.Errorf("cell %d: %w", o.Index, o.Err)
		}
	}
	return values, firstErr
}

// Parts reports how many ranges a fan-out over n items should split
// into so that every range holds at least grain of them: at most
// runtime.GOMAXPROCS(0), and 1 when n < 2*grain.
func Parts(n, grain int) int {
	return max(1, min(runtime.GOMAXPROCS(0), n/max(grain, 1)))
}

// Ranges splits [0,n) into parts contiguous ranges in order, their
// sizes differing by at most one, and calls fn(part, lo, hi) once for
// each: part 0 inline on the caller, the others on goroutines of their
// own. It returns once every range has. A panic in any range re-panics
// on the caller with its value, the lowest panicking part's if there
// are several. With one part (or n ≤ 1) fn(0, 0, n) is a plain call:
// no goroutine, no allocation.
//
// The fan-out decides only which core computes what. A caller keeps
// its results scheduling-independent by writing each index's result to
// its own slot and reducing the slots in index order afterwards.
func Ranges(n, parts int, fn func(part, lo, hi int)) {
	parts = min(parts, n)
	if parts <= 1 {
		fn(0, 0, max(n, 0))
		return
	}
	f := &fanout{n: n, parts: parts, first: parts, fn: fn}
	f.wg.Add(parts - 1)
	for p := 1; p < parts; p++ {
		go f.run(p)
	}
	func() {
		defer f.wg.Wait() // a panicking part 0 still joins the others
		fn(0, 0, f.bound(1))
	}()
	if f.first < parts {
		panic(f.panicked)
	}
}

// fanout is one Ranges call's shared state, allocated once.
type fanout struct {
	n, parts int
	fn       func(part, lo, hi int)
	wg       sync.WaitGroup
	mu       sync.Mutex
	first    int // the lowest part that panicked, parts if none
	panicked any
}

// bound is where part p's range starts.
func (f *fanout) bound(p int) int { return p * f.n / f.parts }

// run computes part p on a goroutine of its own, keeping its panic.
func (f *fanout) run(p int) {
	defer f.wg.Done()
	defer func() {
		if r := recover(); r != nil {
			f.mu.Lock()
			if p < f.first {
				f.first, f.panicked = p, r
			}
			f.mu.Unlock()
		}
	}()
	f.fn(p, f.bound(p), f.bound(p+1))
}
