package par

import (
	"runtime"
	"sync/atomic"
	"testing"
)

// The pool is GOMAXPROCS wide, so the tests vary GOMAXPROCS.

// TestRunVisitsEachTaskOnce: every task index runs exactly once for
// pool widths below, at and above the task count, including none.
func TestRunVisitsEachTaskOnce(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, n := range []int{0, 1, 2, 7, 256, 1000} {
		for _, workers := range []int{1, 2, 8, 13} {
			runtime.GOMAXPROCS(workers)
			hits := make([]atomic.Int32, n)
			Run(n, func(task int) { hits[task].Add(1) })
			for i := range hits {
				if got := hits[i].Load(); got != 1 {
					t.Fatalf("GOMAXPROCS %d, n %d: task %d ran %d times", workers, n, i, got)
				}
			}
		}
	}
}

// TestRunSequentialFallback: with GOMAXPROCS 1, or at most one task,
// Run is a plain loop on the calling goroutine — tasks run in index
// order and may touch unsynchronized state (the race detector checks
// the latter).
func TestRunSequentialFallback(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, c := range []struct{ workers, n int }{{1, 5}, {8, 1}, {8, 0}} {
		runtime.GOMAXPROCS(c.workers)
		var order []int
		Run(c.n, func(task int) { order = append(order, task) })
		if len(order) != c.n {
			t.Fatalf("GOMAXPROCS %d, n %d: ran %d tasks", c.workers, c.n, len(order))
		}
		for i, task := range order {
			if task != i {
				t.Fatalf("GOMAXPROCS %d, n %d: order %v", c.workers, c.n, order)
			}
		}
	}
}

// TestRunIsParallel: with enough workers, tasks that each wait for all
// the others to start can only finish if they really run concurrently.
func TestRunIsParallel(t *testing.T) {
	const n = 4
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(n))
	var started atomic.Int32
	release := make(chan struct{})
	Run(n, func(int) {
		if started.Add(1) == n {
			close(release)
		}
		<-release
	})
}
