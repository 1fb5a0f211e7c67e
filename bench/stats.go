package main

import (
	"fmt"
	"math"
	"sort"
)

// quantile returns the q-quantile (0 ≤ q ≤ 1) of xs, interpolating
// linearly between the two closest ranks. xs is sorted in place.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	sort.Float64s(xs)
	pos := q * float64(len(xs)-1)
	lo := int(pos)
	if lo >= len(xs)-1 {
		return xs[len(xs)-1]
	}
	return xs[lo] + (xs[lo+1]-xs[lo])*(pos-float64(lo))
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// p99 returns the 99th percentile of xs, which must hold at least min
// samples: 1000 leave ten samples beyond it.
func p99(xs []float64, min int) (float64, error) {
	if len(xs) < min {
		return 0, fmt.Errorf("p99 over %d samples, needs %d: run longer", len(xs), min)
	}
	return quantile(xs, 0.99), nil
}

// quartiles returns the first and third quartiles of xs the way
// Python's statistics.quantiles(xs, n=4) does (its default "exclusive"
// method), which is how the benchmark's run-to-run spread is judged.
// It needs at least two values.
func quartiles(xs []float64) (q1, q3 float64) {
	d := append([]float64(nil), xs...)
	sort.Float64s(d)
	m := len(d) + 1
	cut := func(i int) float64 {
		j := i * m / 4
		if j < 1 {
			j = 1
		}
		if j > len(d)-1 {
			j = len(d) - 1
		}
		delta := i*m - j*4
		return (d[j-1]*float64(4-delta) + d[j]*float64(delta)) / 4
	}
	return cut(1), cut(3)
}

// interval is a span of time in any one unit.
type interval struct{ start, end float64 }

// covered returns how much of [lo, hi] the intervals cover, counting
// overlaps once.
func covered(lo, hi float64, ivs []interval) float64 {
	clipped := make([]interval, 0, len(ivs))
	for _, iv := range ivs {
		s, e := math.Max(iv.start, lo), math.Min(iv.end, hi)
		if e > s {
			clipped = append(clipped, interval{s, e})
		}
	}
	sort.Slice(clipped, func(i, j int) bool { return clipped[i].start < clipped[j].start })
	var total, curS, curE float64
	open := false
	for _, iv := range clipped {
		switch {
		case !open:
			curS, curE, open = iv.start, iv.end, true
		case iv.start <= curE:
			curE = math.Max(curE, iv.end)
		default:
			total += curE - curS
			curS, curE = iv.start, iv.end
		}
	}
	if open {
		total += curE - curS
	}
	return total
}
