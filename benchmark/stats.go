package main

import (
	"math"
	"sort"
)

// percentile returns the p-th percentile (0 < p < 100) of the samples by
// linear interpolation between closest ranks. The input is not modified.
func percentile(samples []float64, p float64) float64 {
	if len(samples) == 0 {
		return 0
	}
	s := append([]float64(nil), samples...)
	sort.Float64s(s)
	if len(s) == 1 {
		return s[0]
	}
	pos := p / 100 * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	frac := pos - float64(lo)
	return s[lo]*(1-frac) + s[hi]*frac
}

func median(samples []float64) float64 { return percentile(samples, 50) }

func sum(samples []float64) float64 {
	total := 0.0
	for _, v := range samples {
		total += v
	}
	return total
}

func mean(samples []float64) float64 {
	if len(samples) == 0 {
		return 0
	}
	return sum(samples) / float64(len(samples))
}

// tailLadder lists the tail percentiles the benchmark may report, lowest
// first, in tenths of a percent.
var tailLadder = []int{750, 900, 950, 990, 999}

// tailPercentile is the percentile rule: the highest percentile of the
// ladder that still leaves at least ten samples beyond it, so the reported
// tail is never set by a handful of outliers. ok is false when even the
// lowest rung has fewer than ten samples above it (n < 40).
func tailPercentile(n int) (p float64, ok bool) {
	for _, cand := range tailLadder {
		if n*(1000-cand) >= 10*1000 {
			p, ok = float64(cand)/10, true
		}
	}
	return p, ok
}

// quartileSpread is the acceptance statistic for run-to-run steadiness: the
// distance between the first and third quartile as a share of the median.
// Quartiles follow Python's statistics.quantiles(values, n=4) (the
// "exclusive" method), which is what the driver computes.
func quartileSpread(values []float64) float64 {
	if len(values) < 2 {
		return 0
	}
	s := append([]float64(nil), values...)
	sort.Float64s(s)
	q := func(k int) float64 {
		// exclusive method: position k*(n+1)/4 on a 1-based axis.
		n := len(s)
		pos := float64(k) * float64(n+1) / 4
		j := int(math.Floor(pos))
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		frac := pos - float64(j)
		return s[j-1] + frac*(s[j]-s[j-1])
	}
	med := median(s)
	if med == 0 {
		return 0
	}
	return (q(3) - q(1)) / math.Abs(med)
}
