package core

import (
	"runtime"
	"sync"

	"rnascale/internal/assembler"
)

// pbBytesPerBase is PB's host memory budget for assemblies in flight,
// per base of the cleaned reads. One MPI assembly is estimated at 5
// bytes per base (mpidbg.HostBytes), so 10 admits two at once: the
// overlap that pays on a two-core host, and at most one assembly's
// worth of memory beyond a serial PB however many cores the host has.
const pbBytesPerBase = 10

// assemblies computes PB's assemblies ahead of the event loop that
// commits them. The pure Assemble calls are futures; each unit's work
// function awaits its own, so the pilot still accounts virtual time
// one unit at a time and in the same order, and the result is the same
// whichever goroutine computed it. Futures start in unit-submission
// order, on at most GOMAXPROCS goroutines, and never more than
// GOMAXPROCS units beyond the one the event loop awaits. They
// are admitted by estimated host bytes: the bytes in flight stay within
// the budget, except that a unit over budget on its own runs alone.
type assemblies struct {
	mu   sync.Mutex
	cond sync.Cond
	wg   sync.WaitGroup

	jobs    []*assembly
	next    int   // first job neither started nor passed over
	reached int   // one past the job the event loop last awaited
	running int   // jobs computing
	bytes   int64 // their estimated host bytes
	budget  int64
	workers int
	stopped bool
}

// assembly is one future: an Assemble call and, once done, its result.
type assembly struct {
	run      func() (assembler.Result, error)
	bytes    int64
	done     bool
	res      assembler.Result
	err      error
	panicked any
}

func newAssemblies(budget int64) *assemblies {
	a := &assemblies{budget: budget, workers: runtime.GOMAXPROCS(0)}
	a.cond.L = &a.mu
	return a
}

// add registers a future for the next unit and returns its index.
// Nothing starts before the first await.
func (a *assemblies) add(bytes int64, run func() (assembler.Result, error)) int {
	a.mu.Lock()
	defer a.mu.Unlock()
	a.jobs = append(a.jobs, &assembly{run: run, bytes: bytes})
	return len(a.jobs) - 1
}

// await returns job i's result, computing it ahead if need be. The
// event loop reaches units in submission order and never returns to
// one it passed, so a job before i that has not started never will.
// A panic in Assemble resurfaces here, on the event loop.
func (a *assemblies) await(i int) (assembler.Result, error) {
	a.mu.Lock()
	a.reached = max(a.reached, i+1)
	a.next = max(a.next, i)
	a.start()
	j := a.jobs[i]
	for !j.done {
		a.cond.Wait()
	}
	a.mu.Unlock()
	if j.panicked != nil {
		panic(j.panicked)
	}
	return j.res, j.err
}

// start launches the jobs that are next in order while workers, the
// lookahead window and the byte budget allow. The caller holds mu.
func (a *assemblies) start() {
	for !a.stopped && a.next < len(a.jobs) && a.next < a.reached+a.workers && a.running < a.workers {
		j := a.jobs[a.next]
		if a.running > 0 && j.bytes > a.budget-a.bytes {
			return
		}
		a.next++
		a.running++
		a.bytes += j.bytes
		a.wg.Add(1)
		go func() {
			defer a.wg.Done()
			defer a.finish(j)
			j.res, j.err = j.run()
		}()
	}
}

// finish records a finished job, recovering a panic for await to
// re-raise, and starts what its bytes and worker make room for.
func (a *assemblies) finish(j *assembly) {
	p := recover()
	a.mu.Lock()
	defer a.mu.Unlock()
	j.done, j.panicked = true, p
	a.running--
	a.bytes -= j.bytes
	a.start()
	a.cond.Broadcast()
}

// stop starts nothing more and joins every job in flight; PB calls it
// on every exit, including a driver crash unwinding through the stage.
func (a *assemblies) stop() {
	a.mu.Lock()
	a.stopped = true
	a.mu.Unlock()
	a.wg.Wait()
}
