// Package shardfix exercises the sharddiscipline analyzer.
package shardfix

import "internal/par"

// badAppend grows a captured slice from concurrent workers: commit
// order depends on the schedule.
func badAppend(items []int) []int {
	var out []int
	par.Run(len(items), func(task int) {
		out = append(out, items[task]*2) // want `writes to captured "out"`
	})
	return out
}

// badCounter bumps a captured counter: a cross-task race.
func badCounter(items []int) int {
	count := 0
	par.Run(len(items), func(task int) {
		if items[task] > 0 {
			count++ // want `writes to captured "count"`
		}
	})
	return count
}

// goodShard writes only the task's own cell.
func goodShard(items []int) []int {
	out := make([]int, len(items))
	par.Run(len(items), func(task int) {
		out[task] = items[task] * 2
	})
	return out
}

// goodDerived indexes by a value derived from the task.
func goodDerived(items []int, stride int) []int {
	out := make([]int, len(items)*stride)
	par.Run(len(items), func(task int) {
		base := task * stride
		out[base] = items[task]
	})
	return out
}

// goodLocal mutates only closure-local state.
func goodLocal(items []int) {
	par.Run(len(items), func(task int) {
		acc := 0
		for _, v := range items {
			acc += v
		}
		_ = acc
	})
}

// waived carries a reasoned waiver on the captured write.
func waived(items []int) int {
	total := 0
	par.Run(len(items), func(task int) {
		//mlplint:shared callers run this at GOMAXPROCS 1; commit order is the task order
		total += items[task]
	})
	return total
}
