// Package floatfix exercises the floatorder analyzer.
package floatfix

import "internal/par"

// badMapSum accumulates floats in map-iteration order: the sum's low
// bits depend on the visit order.
func badMapSum(m map[string]float64) float64 {
	total := 0.0
	for _, v := range m {
		total += v // want `float accumulation into "total"`
	}
	return total
}

// badParSum accumulates floats across concurrent workers.
func badParSum(xs []float64) float64 {
	total := 0.0
	par.Run(len(xs), func(task int) {
		total += xs[task] // want `float accumulation into "total"`
	})
	return total
}

// goodInt is exact in any order.
func goodInt(m map[string]int) int {
	total := 0
	for _, v := range m {
		total += v
	}
	return total
}

// goodSharded accumulates per-shard partials and reduces them in
// fixed order.
func goodSharded(xs []float64) float64 {
	partial := make([]float64, 4)
	par.Run(4, func(task int) {
		for i := task; i < len(xs); i += 4 {
			partial[task] += xs[i]
		}
	})
	total := 0.0
	for _, p := range partial {
		total += p
	}
	return total
}

// goodLocal keeps the accumulator local to the unordered region: each
// key's sum is computed over an ordered slice.
func goodLocal(m map[string][]float64) map[string]float64 {
	out := make(map[string]float64, len(m))
	for k, vs := range m {
		sum := 0.0
		for _, v := range vs {
			sum += v
		}
		out[k] = sum
	}
	return out
}

// waived tolerates the rounding noise with a reasoned waiver.
func waived(m map[string]float64) float64 {
	total := 0.0
	for _, v := range m {
		//mlplint:floatorder diagnostic average only; rounding noise tolerated
		total += v
	}
	return total
}
