package main

import (
	"math"
	"strings"
	"testing"
)

func near(a, b float64) bool { return math.Abs(a-b) <= 1e-9*math.Max(1, math.Abs(b)) }

func TestQuantile(t *testing.T) {
	for _, c := range []struct {
		xs   []float64
		q    float64
		want float64
	}{
		{[]float64{3, 1, 2}, 0.5, 2},
		{[]float64{1, 2, 3, 4}, 0.5, 2.5},
		{[]float64{10, 0}, 0.25, 2.5},
		{[]float64{5}, 0.99, 5},
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11}, 0.99, 10.9},
		{[]float64{1, 2, 3}, 1, 3},
	} {
		if got := quantile(append([]float64(nil), c.xs...), c.q); !near(got, c.want) {
			t.Errorf("quantile(%v, %g) = %g, want %g", c.xs, c.q, got, c.want)
		}
	}
	if !math.IsNaN(quantile(nil, 0.5)) {
		t.Error("quantile of no samples should be NaN")
	}
}

// p99 refuses a sample too small to have ten values beyond its 99th
// percentile.
func TestP99SampleCount(t *testing.T) {
	xs := make([]float64, 1000)
	for i := range xs {
		xs[i] = float64(1000 - i)
	}
	got, err := p99(xs, 1000)
	if err != nil {
		t.Fatal(err)
	}
	if want := 990.01; !near(got, want) {
		t.Errorf("p99 = %g, want %g", got, want)
	}
	if _, err := p99(xs[:999], 1000); err == nil || !strings.Contains(err.Error(), "999 samples, needs 1000") {
		t.Errorf("999 samples: err = %v", err)
	}
}

// quartiles must match Python's statistics.quantiles(xs, n=4), the rule
// the benchmark's spread is judged by; the wants are Python's output.
func TestQuartilesMatchPython(t *testing.T) {
	for _, c := range []struct {
		xs     []float64
		q1, q3 float64
	}{
		{[]float64{1, 2}, 0.75, 2.25},
		{[]float64{3, 1, 2}, 1, 3},
		{[]float64{1, 2, 3, 4}, 1.25, 3.75},
		{[]float64{5, 1, 4, 2, 3}, 1.5, 4.5},
		{[]float64{10, 20, 30, 40, 50, 60, 70, 80, 90, 100}, 27.5, 82.5},
		{[]float64{1.5, 2.25, 9, 4, 4, 7, 3.5, 8, 6, 5.5}, 3.1875, 7.25},
	} {
		q1, q3 := quartiles(c.xs)
		if !near(q1, c.q1) || !near(q3, c.q3) {
			t.Errorf("quartiles(%v) = %g, %g, want %g, %g", c.xs, q1, q3, c.q1, c.q3)
		}
	}
}

func TestCovered(t *testing.T) {
	for _, c := range []struct {
		lo, hi float64
		ivs    []interval
		want   float64
	}{
		{0, 10, nil, 0},
		{0, 10, []interval{{2, 4}, {3, 6}}, 4},           // overlaps count once
		{0, 10, []interval{{-5, 2}, {8, 20}}, 4},         // clipped to [lo, hi]
		{0, 10, []interval{{1, 2}, {5, 6}, {5.5, 7}}, 3}, // disjoint runs add
		{0, 10, []interval{{11, 12}}, 0},
	} {
		if got := covered(c.lo, c.hi, c.ivs); !near(got, c.want) {
			t.Errorf("covered(%g, %g, %v) = %g, want %g", c.lo, c.hi, c.ivs, got, c.want)
		}
	}
}
