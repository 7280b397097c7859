package core

import (
	"sync"
	"testing"
	"time"

	"rnascale/internal/assembler"
)

// The futures never hold more estimated bytes than the budget (a job
// over budget on its own runs alone), never run more than workers at
// once or ahead of the awaited job, start in submission order (no job
// overtakes one the budget holds back), and hand each awaiter its own
// job's result.
func TestAssembliesAdmitInOrderWithinBudget(t *testing.T) {
	const budget = 8
	sizes := []int64{3, 3, 3, 9, 2, 2, 2, 2, 5, 1, 8, 1}
	for _, workers := range []int{1, 2, 4} {
		a := newAssemblies(budget)
		a.workers = workers
		var mu sync.Mutex
		var started []int
		var inflight int64
		running, awaited := 0, -1
		for i, b := range sizes {
			a.add(b, func() (assembler.Result, error) {
				mu.Lock()
				started = append(started, i)
				inflight += b
				running++
				if inflight > budget && inflight != b {
					t.Errorf("workers %d: %d bytes in flight with job %d", workers, inflight, i)
				}
				if running > workers || i > awaited+workers {
					t.Errorf("workers %d: job %d runs as #%d while job %d is awaited", workers, i, running, awaited)
				}
				mu.Unlock()
				time.Sleep(time.Millisecond)
				mu.Lock()
				inflight -= b
				running--
				mu.Unlock()
				return assembler.Result{N50: i}, nil
			})
		}
		for i := range sizes {
			mu.Lock()
			awaited = i
			mu.Unlock()
			if res, err := a.await(i); err != nil || res.N50 != i {
				t.Fatalf("workers %d: await(%d) = %d, %v", workers, i, res.N50, err)
			}
		}
		a.stop()
		// Job 3 needs more than the budget, so it waits for 0-2 to finish
		// and runs alone; job 10 needs all of it.
		for _, alone := range []int{3, 10} {
			for pos, i := range started {
				if (i < alone) != (pos < alone) {
					t.Fatalf("workers %d: jobs started in order %v", workers, started)
				}
			}
		}
	}
}

// A job the event loop passes over never starts, a job started ahead
// is joined by stop, and a panic in a job resurfaces in its awaiter.
// Awaiting job 0 at two workers lets jobs 0-2 start; awaiting job 4
// passes over job 3 and lets job 5 start ahead.
func TestAssembliesSkipJoinAndPanic(t *testing.T) {
	a := newAssemblies(1 << 20)
	a.workers = 2
	var mu sync.Mutex
	ran := map[int]bool{}
	for i := 0; i < 7; i++ {
		a.add(1, func() (assembler.Result, error) {
			if i == 5 {
				time.Sleep(20 * time.Millisecond)
			}
			mu.Lock()
			ran[i] = true
			mu.Unlock()
			if i == 4 {
				panic("assembler bug")
			}
			return assembler.Result{}, nil
		})
	}
	if _, err := a.await(0); err != nil {
		t.Fatal(err)
	}
	func() {
		defer func() {
			if recover() != "assembler bug" {
				t.Error("the job's panic did not reach its awaiter")
			}
		}()
		a.await(4)
	}()
	a.stop()
	mu.Lock()
	defer mu.Unlock()
	if ran[3] || !ran[5] {
		t.Errorf("jobs run %v: want job 3 passed over and job 5, started ahead of the loop, joined", ran)
	}
}
