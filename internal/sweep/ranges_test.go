package sweep_test

import (
	"fmt"
	"runtime"
	"strings"
	"sync"
	"testing"

	"rnascale/internal/sweep"
)

// TestRangesCoverInOrder: for any n and part count, the ranges are
// contiguous, in part order, cover [0,n) exactly once and differ in
// size by at most one.
func TestRangesCoverInOrder(t *testing.T) {
	for _, n := range []int{0, 1, 2, 3, 7, 64, 1000, 1001} {
		for _, parts := range []int{0, 1, 2, 3, 8, 2000} {
			var mu sync.Mutex
			got := map[int][2]int{}
			hits := make([]int, n)
			sweep.Ranges(n, parts, func(part, lo, hi int) {
				mu.Lock()
				defer mu.Unlock()
				if _, dup := got[part]; dup {
					t.Errorf("n=%d parts=%d: part %d ran twice", n, parts, part)
				}
				got[part] = [2]int{lo, hi}
				for i := lo; i < hi; i++ {
					hits[i]++
				}
			})
			want := max(1, min(parts, n))
			if len(got) != want {
				t.Fatalf("n=%d parts=%d: %d ranges, want %d", n, parts, len(got), want)
			}
			next, small, large := 0, n, 0
			for p := 0; p < want; p++ {
				r := got[p]
				if r[0] != next || r[1] < r[0] {
					t.Fatalf("n=%d parts=%d: part %d is [%d,%d), want it to start at %d", n, parts, p, r[0], r[1], next)
				}
				next = r[1]
				small, large = min(small, r[1]-r[0]), max(large, r[1]-r[0])
			}
			if next != n || large-small > 1 {
				t.Fatalf("n=%d parts=%d: ranges %v", n, parts, got)
			}
			for i, h := range hits {
				if h != 1 {
					t.Fatalf("n=%d parts=%d: index %d visited %d times", n, parts, i, h)
				}
			}
		}
	}
}

// TestRangesReraisesWorkerPanic: a panic in a range that runs on a
// goroutine reaches the caller with its value, after every other range
// has finished; of several, the lowest part's wins.
func TestRangesReraisesWorkerPanic(t *testing.T) {
	for _, c := range []struct {
		panics []int
		want   string
	}{
		{[]int{2}, "part 2"},
		{[]int{3, 1}, "part 1"},
		{[]int{0, 3}, "part 0"},
	} {
		t.Run(fmt.Sprint(c.panics), func(t *testing.T) {
			var finished sync.WaitGroup
			finished.Add(4 - len(c.panics))
			got := func() (r any) {
				defer func() { r = recover() }()
				sweep.Ranges(400, 4, func(part, lo, hi int) {
					for _, p := range c.panics {
						if p == part {
							panic(fmt.Sprintf("part %d", part))
						}
					}
					finished.Done()
				})
				return nil
			}()
			if got != c.want {
				t.Fatalf("recovered %v, want %q", got, c.want)
			}
			finished.Wait() // every other range ran to its end
		})
	}
}

// TestRangesBelowGrainIsAPlainCall: a fan-out whose items do not fill
// two grains runs fn once, on the caller's goroutine, and allocates
// nothing.
func TestRangesBelowGrainIsAPlainCall(t *testing.T) {
	const n, grain = 99, 50
	if p := sweep.Parts(n, grain); p != 1 {
		t.Fatalf("Parts(%d, %d) = %d, want 1", n, grain, p)
	}
	calls := 0
	fn := func(part, lo, hi int) {
		calls++
		if part != 0 || lo != 0 || hi != n {
			t.Errorf("fn(%d, %d, %d), want fn(0, 0, %d)", part, lo, hi, n)
		}
		buf := make([]byte, 8<<10)
		if stack := string(buf[:runtime.Stack(buf, false)]); !strings.Contains(stack, "TestRangesBelowGrainIsAPlainCall") {
			t.Errorf("fn ran off the caller's goroutine:\n%s", stack)
		}
	}
	sweep.Ranges(n, sweep.Parts(n, grain), fn)
	if calls != 1 {
		t.Fatalf("fn ran %d times", calls)
	}
	if allocs := testing.AllocsPerRun(100, func() {
		sweep.Ranges(n, sweep.Parts(n, grain), func(int, int, int) {})
	}); allocs != 0 {
		t.Errorf("below the grain Ranges allocates %v times", allocs)
	}
}

func TestParts(t *testing.T) {
	procs := runtime.GOMAXPROCS(0)
	for _, c := range []struct{ n, grain, want int }{
		{0, 10, 1},
		{19, 10, 1},
		{20, 10, min(2, procs)},
		{1 << 20, 10, procs},
		{5, 0, min(5, procs)},
	} {
		if got := sweep.Parts(c.n, c.grain); got != c.want {
			t.Errorf("Parts(%d, %d) = %d, want %d", c.n, c.grain, got, c.want)
		}
	}
}
