// Package par is the shared deterministic worker-pool primitive of the
// incremental windowed pipeline. It follows the discipline of the
// topology package's parallel stage runner: tasks are pure with respect
// to each other (each task owns a disjoint shard of the mutable state,
// or is a pure compute whose result is committed sequentially
// afterwards), so the outcome is bit-identical whether the tasks run on
// one goroutine or many.
package par

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// Run executes tasks 0..n-1 on up to GOMAXPROCS goroutines, pulling
// task indices off a shared atomic counter, and returns when every task
// finished. With GOMAXPROCS 1 (or n <= 1) it degenerates to a plain
// sequential loop — the two paths are behaviorally identical because
// tasks must not observe each other's effects.
func Run(n int, fn func(task int)) {
	workers := min(runtime.GOMAXPROCS(0), n)
	if workers <= 1 {
		for i := 0; i < n; i++ {
			fn(i)
		}
		return
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				fn(i)
			}
		}()
	}
	wg.Wait()
}
