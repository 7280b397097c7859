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
//   - deterministic error selection: when cells fail, Map reports the
//     lowest-index failure, independent of scheduling.
//
// The engine deliberately runs every cell even when some fail —
// aborting on first error would make the set of executed cells
// scheduling-dependent, and cells are simulations whose partial
// results are often the point.
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

// Map runs fn(0..n-1) across the configured workers, never more than
// n, and returns the values in submission order. Every cell runs
// whatever its neighbours' fates; a panicking cell's error is a
// *PanicError. When cells fail, the error is the lowest-index cell's —
// a deterministic choice independent of scheduling — and the returned
// slice still carries every other cell's value.
func Map[T any](n int, fn func(i int) (T, error), opts Options) ([]T, error) {
	values := make([]T, max(n, 0))
	errs := make([]error, len(values))
	runCell := func(i int) {
		defer func() {
			if r := recover(); r != nil {
				errs[i] = &PanicError{Cell: i, Value: r, Stack: string(debug.Stack())}
			}
		}()
		values[i], errs[i] = fn(i)
	}

	workers := opts.Workers
	if workers < 1 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers = min(workers, n); workers <= 1 {
		// Inline fast path: no goroutines, same semantics.
		for i := range values {
			runCell(i)
		}
	} else {
		cells := make(chan int)
		var wg sync.WaitGroup
		wg.Add(workers)
		for range workers {
			go func() {
				defer wg.Done()
				for i := range cells {
					runCell(i)
				}
			}()
		}
		for i := range values {
			cells <- i
		}
		close(cells)
		wg.Wait()
	}

	for i, err := range errs {
		if err != nil {
			return values, fmt.Errorf("cell %d: %w", i, err)
		}
	}
	return values, nil
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
