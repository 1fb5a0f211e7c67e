package main

import (
	"strings"
	"testing"
	"time"
)

func series10(f func(i int) float64) []float64 {
	xs := make([]float64, 10)
	for i := range xs {
		xs[i] = f(i)
	}
	return xs
}

// The compare rule on synthetic pairs: each case states the parent's
// and the change's runs of one metric.
func TestJudge(t *testing.T) {
	steady := series10(func(i int) float64 { return 100 + float64(i%3) }) // spread ~2%
	for _, c := range []struct {
		name        string
		base, head  []float64
		lowerBetter bool
		bound       float64
		want        string
		wins        int
	}{
		{"clear gain, lower is better", steady, series10(func(i int) float64 { return 90 + float64(i%3) }), true, 0.1, "gain", 10},
		{"clear gain, higher is better", steady, series10(func(i int) float64 { return 110 + float64(i%3) }), false, 0.1, "gain", 10},
		// Wins 8 of 10: not a gain however large the median gap.
		{"too few wins", steady, series10(func(i int) float64 {
			if i < 2 {
				return 200
			}
			return 80
		}), true, 0.1, "within bound", 8},
		// Every pair won, but by less than the parent's own spread.
		{"gap inside spread", steady, series10(func(i int) float64 { return 100 + float64(i%3) - 0.5 }), true, 0.1, "within bound", 10},
		{"regression", steady, series10(func(i int) float64 { return 115 + float64(i%3) }), true, 0.1, "regression", 0},
		{"worse but within bound", steady, series10(func(i int) float64 { return 105 + float64(i%3) }), true, 0.1, "within bound", 0},
		{"spread wider than bound", series10(func(i int) float64 { return 100 + 10*float64(i%4) }),
			series10(func(i int) float64 { return 130 }), true, 0.1, "unresolved", 0},
		{"wide spread but every run better", series10(func(i int) float64 { return 100 + 10*float64(i%4) }),
			series10(func(i int) float64 { return 90 }), true, 0.1, "better in every run", 10},
	} {
		v := judge(c.base, c.head, c.lowerBetter, c.bound)
		if v.label != c.want || v.wins != c.wins || v.pairs != 10 {
			t.Errorf("%s: %s with %d/%d wins, want %s with %d", c.name, v.label, v.wins, v.pairs, c.want, c.wins)
		}
	}
}

func runsAt(seed int64, starts ...int) []*result {
	var rs []*result
	t0 := time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC)
	for _, s := range starts {
		rs = append(rs, &result{Seed: seed, Seconds: 16, Start: t0.Add(time.Duration(s) * time.Minute)})
	}
	return rs
}

func TestPairRuns(t *testing.T) {
	// Alternating: B H | H B | B H | ...
	var bs, hs []int
	for i := 0; i < 10; i++ {
		b, h := 2*i, 2*i+1
		if i%2 == 1 {
			b, h = h, b
		}
		bs, hs = append(bs, b), append(hs, h)
	}
	if err := pairRuns(runsAt(1, bs...), runsAt(1, hs...)); err != nil {
		t.Errorf("alternating pairs refused: %v", err)
	}
	// Base always first.
	if err := pairRuns(runsAt(1, 0, 2, 4, 6, 8, 10, 12, 14, 16, 18), runsAt(1, 1, 3, 5, 7, 9, 11, 13, 15, 17, 19)); err == nil ||
		!strings.Contains(err.Error(), "alternate") {
		t.Errorf("non-alternating pairs: err = %v", err)
	}
	if err := pairRuns(runsAt(1, bs[:9]...), runsAt(1, hs[:9]...)); err == nil {
		t.Error("nine pairs accepted")
	}
	if err := pairRuns(runsAt(1, bs...), runsAt(2, hs...)); err == nil {
		t.Error("pairs with different seeds accepted")
	}
}

func TestCheckEnvs(t *testing.T) {
	e := env{CPU: "x", NProc: 2, GOMAXPROCS: 2, GoVersion: "go1.24.0", Commit: "a"}
	mk := func(e env) *result { return &result{Env: e} }
	h := e
	h.Commit = "b"
	if err := checkEnvs([]*result{mk(e), mk(e)}, []*result{mk(h), mk(h)}); err != nil {
		t.Errorf("same machine, two commits refused: %v", err)
	}
	other := h
	other.NProc = 4
	if err := checkEnvs([]*result{mk(e)}, []*result{mk(h), mk(other)}); err == nil {
		t.Error("different nproc accepted")
	}
	dirty := e
	dirty.Dirty = true
	if err := checkEnvs([]*result{mk(e), mk(dirty)}, []*result{mk(h)}); err == nil {
		t.Error("one side mixing clean and dirty trees accepted")
	}
}
