package main

import (
	"fmt"
	"math"
	"sort"
)

// minBeyond is how many samples must lie beyond a reported percentile
// for it to be reported at all: a p90 over 50 samples rests on five
// values and moves with every one of them.
const minBeyond = 10

// quantile returns the nearest-rank p-quantile (0 < p < 1) of values,
// which it sorts in place. It fails when fewer than minBeyond samples
// lie beyond the quantile's rank, so a percentile is never reported
// from a handful of tail samples. A failed or refused request enters
// as +Inf: it misses any latency limit, so it can only push the
// quantile up.
func quantile(values []float64, p float64) (float64, error) {
	n := len(values)
	if n == 0 {
		return 0, fmt.Errorf("quantile: no samples")
	}
	rank := int(math.Ceil(p * float64(n)))
	if rank < 1 {
		rank = 1
	}
	if beyond := n - rank; beyond < minBeyond {
		return 0, fmt.Errorf("quantile: p%g of %d samples has %d beyond it, need %d", p*100, n, beyond, minBeyond)
	}
	sort.Float64s(values)
	return values[rank-1], nil
}

// median returns the middle value of values (the mean of the two
// middle ones for an even count), sorting a copy. It is for summary
// statistics over repeats, where there is no tail rule to apply.
func median(values []float64) float64 {
	if len(values) == 0 {
		return 0
	}
	s := append([]float64(nil), values...)
	sort.Float64s(s)
	m := len(s) / 2
	if len(s)%2 == 1 {
		return s[m]
	}
	return (s[m-1] + s[m]) / 2
}

// nearestRank is the plain nearest-rank p-quantile with no tail rule,
// for per-layer figures that are reported as measured.
func nearestRank(values []float64, p float64) float64 {
	if len(values) == 0 {
		return 0
	}
	s := append([]float64(nil), values...)
	sort.Float64s(s)
	rank := int(math.Ceil(p * float64(len(s))))
	if rank < 1 {
		rank = 1
	}
	return s[rank-1]
}

func sum(values []float64) float64 {
	t := 0.0
	for _, v := range values {
		t += v
	}
	return t
}

// ratio is a/b, or 0 when b is 0: a per-unit figure for a layer the
// workload never reached reads 0, which is the prediction for it.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
