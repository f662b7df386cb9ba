package main

import (
	"math"
	"sort"
	"time"
)

// minTail is how many samples must lie beyond a percentile before it is
// reported: fewer and the number is one slow request, not a distribution.
const minTail = 10

// quantile returns the q-quantile (0 ≤ q ≤ 1) of an ascending-sorted slice
// by the nearest-rank rule; NaN for an empty slice.
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return math.NaN()
	}
	i := int(math.Ceil(q*float64(len(sorted)))) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(sorted) {
		i = len(sorted) - 1
	}
	return sorted[i]
}

// sortedCopy leaves the caller's sample order (request sequence) intact.
func sortedCopy(v []float64) []float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	return s
}

func median(v []float64) float64 { return quantile(sortedCopy(v), 0.5) }

func mean(v []float64) float64 {
	if len(v) == 0 {
		return math.NaN()
	}
	var s float64
	for _, x := range v {
		s += x
	}
	return s / float64(len(v))
}

// highestPercentile picks, from the ascending candidates, the highest
// percentile that still has at least minTail of n samples beyond it;
// 0 when even the lowest candidate has not.
func highestPercentile(n int, candidates []float64) float64 {
	best := 0.0
	for _, p := range candidates {
		if float64(n)*(100-p)/100 >= minTail { // in percent: 100×(1−0.9) is not 10 in floating point
			best = p
		}
	}
	return best
}

// spread is the interquartile range over the median — the run-to-run
// noise measure BENCHMARK.json's bounds are judged against. With fewer
// than four values quartiles are meaningless and the full range stands in.
func spread(v []float64) float64 {
	if len(v) < 2 {
		return 0
	}
	s := sortedCopy(v)
	m := quantile(s, 0.5)
	if m == 0 {
		return 0
	}
	lo, hi := s[0], s[len(s)-1]
	if len(s) >= 4 {
		lo, hi = quantile(s, 0.25), quantile(s, 0.75)
	}
	return math.Abs((hi - lo) / m)
}

// msOf is a duration in milliseconds with its full nanosecond resolution.
func msOf(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }
