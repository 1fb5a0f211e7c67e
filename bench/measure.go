package main

import (
	"errors"
	"fmt"
	"math/big"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/obs"
)

// loadStats is what one or more closed-loop stretches measured.
type loadStats struct {
	lat     []float64 // latencies (seconds) of successful ops
	failed  int64
	elapsed time.Duration
}

func (s loadStats) ok() int64 { return int64(len(s.lat)) }

func (s *loadStats) add(o loadStats) {
	s.lat = append(s.lat, o.lat...)
	s.failed += o.failed
	s.elapsed += o.elapsed
}

// closedLoop runs n callers for d. Each sends op(i), i the next number
// of seq, as soon as its previous op returned, so the offered load
// follows the system's speed. A mismatch stops every caller and is
// returned; other errors count as failed ops.
func closedLoop(n int, d time.Duration, seq *atomic.Int64, op func(i int64) error) (loadStats, error) {
	type part struct {
		lat      []float64
		failed   int64
		firstErr error
		mismatch error
	}
	parts := make([]part, n)
	var stop atomic.Bool
	var wg sync.WaitGroup
	start := time.Now()
	for c := range parts {
		p := &parts[c]
		wg.Add(1)
		go func() {
			defer wg.Done()
			for !stop.Load() && time.Since(start) < d {
				t0 := time.Now()
				err := op(seq.Add(1) - 1)
				lat := time.Since(t0)
				switch {
				case err == nil:
					p.lat = append(p.lat, lat.Seconds())
				case errors.Is(err, errMismatch):
					p.mismatch = err
					stop.Store(true)
					return
				default:
					if p.firstErr == nil {
						p.firstErr = err
					}
					p.failed++
				}
			}
		}()
	}
	wg.Wait()
	st := loadStats{elapsed: time.Since(start)}
	for i := range parts {
		p := &parts[i]
		if p.mismatch != nil {
			return st, p.mismatch
		}
		if p.firstErr != nil {
			fmt.Fprintln(os.Stderr, "bench: request failed:", p.firstErr)
		}
		st.failed += p.failed
		st.lat = append(st.lat, p.lat...)
	}
	return st, nil
}

// The machine this benchmark runs on is shared, and its speed drifts by
// up to half between runs: CPU time per op drifts with wall time, so
// instructions run slower rather than less often. Every timing metric
// is therefore scaled to a machine on which a fixed reference kernel,
// math/big 512-bit modular exponentiation, runs refNominal times a
// second per caller. The reference is measured on the workload's own
// callers right after the work it scales, and no change to the
// repository alters it, so drift cancels and a change's effect does not.
const refNominal = 10000

var refN, refBase, refExp = func() (*big.Int, *big.Int, *big.Int) {
	rng := rngFor(0, "reference")
	n := randOdd(rng, 512)
	return n, randBelow(rng, n), randOdd(rng, 512)
}()

// reference runs the reference kernel on n goroutines for d and returns
// the factor that scales a time measured just before to the nominal
// machine: the measured rate per goroutine over refNominal.
func reference(n int, d time.Duration) float64 {
	counts := make([]int, n)
	var wg sync.WaitGroup
	start := time.Now()
	for i := range counts {
		wg.Add(1)
		go func() {
			defer wg.Done()
			z := new(big.Int)
			for time.Since(start) < d {
				z.Exp(refBase, refExp, refN)
				counts[i]++
			}
		}()
	}
	wg.Wait()
	total := 0
	for _, c := range counts {
		total += c
	}
	return float64(total) / time.Since(start).Seconds() / float64(n) / refNominal
}

// Each second of a timed window is refWork of closed loop, then the
// reference for the rest.
const (
	refSlice = time.Second
	refWork  = 900 * time.Millisecond
)

// setupTimes runs set-up n times and returns its scaled durations in
// seconds; set-up returns the part of its work that is timed. A set-up
// of pure computation (eachRef) lasts a millisecond or less, short
// enough for a momentary slowdown to move it by a third, so each one is
// scaled by a 10 ms reference taken right after it. Process launches
// depend more on the kernel than on instruction speed, and such a short
// burst only adds noise to them: they share one reference taken after
// the last.
func setupTimes(n, callers int, eachRef bool, setup func() (time.Duration, error)) ([]float64, error) {
	out := make([]float64, n)
	for i := range out {
		d, err := setup()
		if err != nil {
			return nil, err
		}
		out[i] = d.Seconds()
		if eachRef {
			out[i] *= reference(callers, 10*time.Millisecond)
		}
	}
	if !eachRef {
		scale := reference(callers, refSlice-refWork)
		for i := range out {
			out[i] *= scale
		}
	}
	return out, nil
}

// load is how a workload is driven and which processes it measures.
type load struct {
	callers int
	op      func(i int64) error // sends op i and checks its answer
	pids    []int               // the processes whose CPU time and peak RSS count
	seq     atomic.Int64
}

func (ld *load) cpu() (float64, error) {
	var t float64
	for _, pid := range ld.pids {
		c, err := procCPU(pid)
		if err != nil {
			return 0, fmt.Errorf("cpu of pid %d: %w", pid, err)
		}
		t += c
	}
	return t, nil
}

func (ld *load) hwm() (float64, error) {
	var m float64
	for _, pid := range ld.pids {
		h, err := procHWM(pid)
		if err != nil {
			return 0, fmt.Errorf("peak rss of pid %d: %w", pid, err)
		}
		m = max(m, h)
	}
	return m, nil
}

func (r *runner) warmUp(ld *load) error {
	_, err := closedLoop(ld.callers, r.o.warmup, &ld.seq, ld.op)
	return err
}

// timed measures the end-to-end metrics over the timed window, one
// second at a time: 0.9 s of closed loop, then the reference. Times are
// scaled by that second's reference (see refNominal). Throughput and CPU
// per op are the medians over the seconds, so a burst of interference
// moves them less than it would a mean. setups are the scaled set-up
// times.
func (r *runner) timed(setups []float64, ld *load) (*result, error) {
	n := max(1, int(r.o.window/refSlice))
	work := min(refWork, r.o.window*9/10)
	var rates, cpuPer, lat, scales []float64
	var all loadStats
	for k := 0; k < n; k++ {
		c0, err := ld.cpu()
		if err != nil {
			return nil, err
		}
		ls, err := closedLoop(ld.callers, work, &ld.seq, ld.op)
		if err != nil {
			return nil, err
		}
		c1, err := ld.cpu()
		if err != nil {
			return nil, err
		}
		scale := reference(ld.callers, r.o.window/time.Duration(n)-work)
		scales = append(scales, scale)
		all.add(ls)
		if ls.ok() == 0 {
			continue
		}
		// Every caller of a closed loop always has one op in flight, so
		// throughput is callers over the mean latency.
		var busy float64
		for _, v := range ls.lat {
			busy += v
			lat = append(lat, v*scale)
		}
		rates = append(rates, float64(ld.callers)*float64(ls.ok())/busy/scale)
		cpuPer = append(cpuPer, (c1-c0)*1e6/float64(ls.ok())*scale)
	}
	hwm, err := ld.hwm()
	if err != nil {
		return nil, err
	}
	ok := all.ok()
	if ok == 0 {
		return nil, fmt.Errorf("no op succeeded (%d failed)", all.failed)
	}
	return &result{Attempted: ok + all.failed, Failed: all.failed, Reference: median(scales) * refNominal,
		Metrics: map[string]metric{
			"setup_s":        {median(setups), "s", int64(len(setups))},
			"throughput_ops": {median(rates), "1/s", ok},
			"latency_p50_ms": {median(lat) * 1e3, "ms", ok},
			"cpu_us_per_op":  {median(cpuPer), "us", ok},
			"rss_peak_mb":    {hwm, "MB", int64(len(ld.pids))},
		}}, nil
}

// quarters drives ld for the timed window in four quarters, alternating
// the untraced op and its traced variant, and returns the two halves.
func (r *runner) quarters(ld *load, traced func(i int64) error) (plain, tr loadStats, err error) {
	for k := 0; k < 4; k++ {
		op := ld.op
		if k%2 == 1 {
			op = traced
		}
		ls, err := closedLoop(ld.callers, r.o.window/4, &ld.seq, op)
		if err != nil {
			return plain, tr, err
		}
		if k%2 == 1 {
			tr.add(ls)
		} else {
			plain.add(ls)
		}
	}
	return plain, tr, nil
}

// record adds one of the benchmark's own spans around a layer call.
func (r *runner) record(name string, t0 time.Time, d time.Duration) {
	if r.spans != nil {
		r.spans.Record(obs.Span{Name: name, Track: "bench", Outcome: "ok", Start: t0, Exec: d})
	}
}

// spanned wraps op with one of the benchmark's own spans.
func (r *runner) spanned(name string, op func(i int64) error) func(i int64) error {
	return func(i int64) error {
		t0 := time.Now()
		err := op(i)
		r.record(name, t0, time.Since(t0))
		return err
	}
}

// tracedMetrics are the per-layer metrics every traced run takes from
// its own quarters. latency_p99_ms is the p99 of the untraced quarters:
// it did not repeat within 0.25 from run to run, so it is no end-to-end
// metric. trace.overhead_ratio is the throughput lost with tracing on,
// as a share of the untraced throughput.
func (r *runner) tracedMetrics(plain, traced loadStats) (map[string]metric, error) {
	tail, err := p99(plain.lat, r.o.minP99)
	if err != nil {
		return nil, err
	}
	p := float64(plain.ok()) / plain.elapsed.Seconds()
	t := float64(traced.ok()) / traced.elapsed.Seconds()
	return map[string]metric{
		"latency_p99_ms":       {tail * 1e3, "ms", plain.ok()},
		"trace.overhead_ratio": {1 - t/p, "ratio", plain.ok() + traced.ok()},
	}, nil
}
