package main

import (
	"math"
	"sort"
)

// sortedCopy returns an ascending copy of v.
func sortedCopy(v []float64) []float64 {
	out := append([]float64(nil), v...)
	sort.Float64s(out)
	return out
}

// percentile is the nearest-rank p-th percentile (0 < p <= 100) of an
// ascending slice: the smallest sample with at least p% of the samples at
// or below it. An empty slice yields 0.
func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := rankOf(p, len(sorted)) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(sorted) {
		i = len(sorted) - 1
	}
	return sorted[i]
}

// rankOf is the 1-based nearest rank of the p-th percentile among n samples:
// ⌈p·n/100⌉, with a guard against 99.9/100·10000 evaluating to a hair above
// 9990.
func rankOf(p float64, n int) int {
	return int(math.Ceil(p/100*float64(n) - 1e-9))
}

func median(v []float64) float64 { return percentile(sortedCopy(v), 50) }

// quartiles matches Python's statistics.quantiles(v, n=4) (the exclusive
// method), which is what the acceptance rule for this benchmark uses to
// compute run-to-run spread. Fewer than two samples yield the sample itself.
func quartiles(v []float64) (q1, q2, q3 float64) {
	s := sortedCopy(v)
	n := len(s)
	switch n {
	case 0:
		return 0, 0, 0
	case 1:
		return s[0], s[0], s[0]
	}
	at := func(i int) float64 {
		// Rank i*(n+1)/4 (1-based), linearly interpolated between its
		// neighbours; the rank is clamped before the weight is taken, as
		// Python does.
		j := i * (n + 1) / 4
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		delta := i*(n+1) - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return at(1), at(2), at(3)
}

// tailLadder is the set of percentiles a tail may be reported at. The rungs
// are a decade of sample count apart (40, 100, 1 000, 10 000 samples), and
// every workload's count sits well inside one decade — a finer ladder has
// serve-hit, at 80–130 k requests a run, flip between p99.9 and p99.99 from
// one run to the next, and medians over runs would mix the two.
var tailLadder = []float64{75, 90, 99, 99.9}

// supportedTail returns the highest ladder percentile that has at least ten
// of the n samples beyond it, or 0 when n supports none (fewer than 40
// samples).
func supportedTail(n int) float64 {
	best := 0.0
	for _, p := range tailLadder {
		at := rankOf(p, n)
		if n-at >= 10 {
			best = p
		}
	}
	return best
}
