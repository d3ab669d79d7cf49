package main

import (
	"math"
	"testing"
)

func TestTailPercentileRule(t *testing.T) {
	// The highest percentile of the ladder with at least ten samples beyond it.
	cases := []struct {
		n    int
		want float64
		ok   bool
	}{
		{39, 0, false}, {40, 75, true}, {99, 75, true}, {100, 90, true}, {199, 90, true},
		{200, 95, true}, {999, 95, true}, {1000, 99, true}, {5250, 99, true}, {10000, 99.9, true},
	}
	for _, c := range cases {
		got, ok := tailPercentile(c.n)
		if ok != c.ok || got != c.want {
			t.Errorf("tailPercentile(%d) = %v, %v; want %v, %v", c.n, got, ok, c.want, c.ok)
		}
		if ok && c.n*(1000-int(got*10+0.5)) < 10*1000 {
			t.Errorf("tailPercentile(%d) = p%v leaves fewer than ten samples beyond it", c.n, got)
		}
	}
}

func TestPercentile(t *testing.T) {
	v := []float64{5, 1, 4, 2, 3}
	if got := median(v); got != 3 {
		t.Errorf("median = %v, want 3", got)
	}
	if got := percentile(v, 25); got != 2 {
		t.Errorf("p25 = %v, want 2", got)
	}
	if got := percentile([]float64{1, 2}, 50); got != 1.5 {
		t.Errorf("p50 of two = %v, want 1.5", got)
	}
	if v[0] != 5 {
		t.Error("percentile reordered its input")
	}
}

// The driver accepts the benchmark on statistics.quantiles(values, n=4);
// these are that function's answers.
func TestQuartileSpreadMatchesPython(t *testing.T) {
	cases := []struct {
		values []float64
		want   float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, (8.25 - 2.75) / 5.5},
		{[]float64{13, 10, 12, 11}, (12.75 - 10.25) / 11.5},
		{[]float64{3, 1}, (3.5 - 0.5) / 2},
		{[]float64{7}, 0},
	}
	for _, c := range cases {
		if got := quartileSpread(c.values); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("quartileSpread(%v) = %v, want %v", c.values, got, c.want)
		}
	}
}
