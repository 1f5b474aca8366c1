package main

import (
	"sort"

	"mlpeering/internal/metrics"
)

// quantile is the nearest-rank q-quantile of sample (0 for an empty
// sample, so a metric that measured nothing reads 0 rather than NaN).
func quantile(sample []float64, q float64) float64 {
	if len(sample) == 0 {
		return 0
	}
	return metrics.NewDistribution(sample).Quantile(q)
}

func median(sample []float64) float64 { return quantile(sample, 0.5) }

func mean(sample []float64) float64 {
	if len(sample) == 0 {
		return 0
	}
	return metrics.NewDistribution(sample).Mean()
}

// tailQuantile applies the reporting rule: besides the median, report
// the highest percentile that still has at least ten samples beyond
// it. With fewer than twenty samples nothing beyond the median
// qualifies.
func tailQuantile(n int) float64 {
	tail := 0.5
	for _, perMille := range []int{900, 990, 999} {
		if n*(1000-perMille) >= 10*1000 {
			tail = float64(perMille) / 1000
		}
	}
	return tail
}

// quartiles returns Python's statistics.quantiles(values, n=4) — the
// default "exclusive" method — which is how the benchmark driver
// measures run-to-run spread.
func quartiles(values []float64) (q1, q2, q3 float64) {
	v := append([]float64(nil), values...)
	sort.Float64s(v)
	n := len(v)
	if n < 2 {
		if n == 1 {
			return v[0], v[0], v[0]
		}
		return 0, 0, 0
	}
	cut := func(i int) float64 {
		j := min(max(i*(n+1)/4, 1), n-1)
		delta := i*(n+1) - j*4
		return (v[j-1]*float64(4-delta) + v[j]*float64(delta)) / 4
	}
	return cut(1), cut(2), cut(3)
}

// spread is the interquartile distance as a share of the median.
func spread(values []float64) float64 {
	q1, q2, q3 := quartiles(values)
	if q2 == 0 {
		return 0
	}
	return (q3 - q1) / q2
}
