package par

import (
	"runtime"
	"sync/atomic"
	"testing"
)

func TestWorkers(t *testing.T) {
	if got, want := Workers(0), runtime.GOMAXPROCS(0); got != want {
		t.Errorf("Workers(0) = %d, want GOMAXPROCS %d", got, want)
	}
	for _, c := range []struct{ in, want int }{{-3, 1}, {-1, 1}, {1, 1}, {2, 2}, {64, 64}} {
		if got := Workers(c.in); got != c.want {
			t.Errorf("Workers(%d) = %d, want %d", c.in, got, c.want)
		}
	}
}

// TestRunVisitsEachTaskOnce: every task index runs exactly once for
// worker counts below, at and above the task count, including none.
func TestRunVisitsEachTaskOnce(t *testing.T) {
	for _, n := range []int{0, 1, 2, 7, 256, 1000} {
		for _, workers := range []int{-1, 0, 1, 2, 8, n + 5} {
			hits := make([]atomic.Int32, n)
			Run(workers, n, func(task int) { hits[task].Add(1) })
			for i := range hits {
				if got := hits[i].Load(); got != 1 {
					t.Fatalf("workers %d, n %d: task %d ran %d times", workers, n, i, got)
				}
			}
		}
	}
}

// TestRunSequentialFallback: with at most one worker, or at most one
// task, Run is a plain loop on the calling goroutine — tasks run in
// index order and may touch unsynchronized state (the race detector
// checks the latter).
func TestRunSequentialFallback(t *testing.T) {
	for _, c := range []struct{ workers, n int }{{0, 5}, {1, 5}, {-2, 5}, {8, 1}, {8, 0}} {
		var order []int
		Run(c.workers, c.n, func(task int) { order = append(order, task) })
		if len(order) != c.n {
			t.Fatalf("workers %d, n %d: ran %d tasks", c.workers, c.n, len(order))
		}
		for i, task := range order {
			if task != i {
				t.Fatalf("workers %d, n %d: order %v", c.workers, c.n, order)
			}
		}
	}
}

// TestRunIsParallel: with enough workers, tasks that each wait for all
// the others to start can only finish if they really run concurrently.
func TestRunIsParallel(t *testing.T) {
	const n = 4
	var started atomic.Int32
	release := make(chan struct{})
	Run(n, n, func(int) {
		if started.Add(1) == n {
			close(release)
		}
		<-release
	})
}
