package main

import (
	"math"
	"sort"
	"time"
)

// percentile is the nearest-rank percentile of values (p in (0,100]):
// the smallest value with at least p% of the samples at or below it.
// values need not be sorted; an empty slice yields 0.
func percentile(values []float64, p float64) float64 {
	if len(values) == 0 {
		return 0
	}
	sorted := append([]float64(nil), values...)
	sort.Float64s(sorted)
	rank := int(math.Ceil(p / 100 * float64(len(sorted))))
	if rank < 1 {
		rank = 1
	}
	if rank > len(sorted) {
		rank = len(sorted)
	}
	return sorted[rank-1]
}

func median(values []float64) float64 {
	if len(values) == 0 {
		return 0
	}
	sorted := append([]float64(nil), values...)
	sort.Float64s(sorted)
	n := len(sorted)
	if n%2 == 1 {
		return sorted[n/2]
	}
	return (sorted[n/2-1] + sorted[n/2]) / 2
}

// quartiles matches Python's statistics.quantiles(values, n=4) (the
// exclusive method), the definition the acceptance procedure uses, so
// a spread computed here is the spread the driver computes. Fewer than
// two values have no spread: all three quartiles are the value itself.
func quartiles(values []float64) [3]float64 {
	n := len(values)
	if n == 0 {
		return [3]float64{}
	}
	if n == 1 {
		return [3]float64{values[0], values[0], values[0]}
	}
	sorted := append([]float64(nil), values...)
	sort.Float64s(sorted)
	var q [3]float64
	for i := 1; i <= 3; i++ {
		j := i * (n + 1) / 4
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		delta := float64(i*(n+1) - j*4)
		q[i-1] = (sorted[j-1]*(4-delta) + sorted[j]*delta) / 4
	}
	return q
}

// spread is the interquartile distance as a share of the median.
func spread(values []float64) float64 {
	q := quartiles(values)
	if q[1] == 0 {
		return 0
	}
	return math.Abs(q[2]-q[0]) / math.Abs(q[1])
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// ratio is num/den, 0 when the denominator is 0 (a metric that does
// not apply to the workload).
func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}
