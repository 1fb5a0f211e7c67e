// Package obs is the observability layer over the reproduction: a
// lock-free metrics core (counters, gauges, log-bucketed latency
// histograms), a bounded ring-buffer span tracer exporting Chrome
// trace-event JSON, and an HTTP handler serving Prometheus text-format
// /metrics, expvar, pprof and /trace.
//
// The paper's whole argument is quantitative — exact cycle counts
// (3l+4 per MMM), a critical path independent of l — so the software
// reproduction gets the same treatment: every engine job is measured
// (queue wait vs. execute time, percentiles not just means, model- vs.
// simulated-cycle totals), and a running engine can be watched live.
//
// The package deliberately depends only on the standard library and is
// import-cycle-free with internal/engine: engine imports obs and
// registers its counters on the observer's Registry, while
// obs.Collector satisfies the engine.Observer interface structurally
// (its methods use only obs and basic types), so obs never needs to
// import engine.
package obs

import (
	"math/bits"
	"sync/atomic"
	"time"
)

// NumBuckets is the number of logarithmic histogram buckets. Bucket i
// (i ≥ 1) counts values v with bits.Len64(v) == i, i.e. the half-open
// range [2^(i-1), 2^i); bucket 0 counts v ≤ 0. The last bucket absorbs
// everything ≥ 2^(NumBuckets-2). For nanosecond latencies this spans
// sub-ns to ~146 years in 64 buckets — two buckets per decade, plenty
// for p50/p90/p99 resolution on a log-normal-ish latency distribution.
const NumBuckets = 64

// Histogram is a lock-free log₂-bucketed histogram of int64 samples
// (conventionally nanoseconds). The zero value is ready to use; all
// methods are safe for concurrent use. Recording is three atomic adds
// and (rarely) a CAS loop for the max — cheap enough for per-job hot
// paths.
type Histogram struct {
	count   atomic.Int64
	sum     atomic.Int64
	max     atomic.Int64
	buckets [NumBuckets]atomic.Int64
}

// BucketIndex returns the bucket a value falls into: 0 for v ≤ 0,
// otherwise bits.Len64(v) clamped to the last bucket.
func BucketIndex(v int64) int {
	if v <= 0 {
		return 0
	}
	i := bits.Len64(uint64(v))
	if i >= NumBuckets {
		i = NumBuckets - 1
	}
	return i
}

// BucketUpper returns the inclusive upper bound of bucket i
// (0 for bucket 0, 2^i − 1 otherwise; the last bucket is unbounded and
// reports its nominal bound).
func BucketUpper(i int) int64 {
	if i <= 0 {
		return 0
	}
	if i >= 63 {
		return int64(^uint64(0) >> 1) // MaxInt64
	}
	return int64(1)<<uint(i) - 1
}

// Observe records one sample.
func (h *Histogram) Observe(v int64) {
	h.count.Add(1)
	h.sum.Add(v)
	h.buckets[BucketIndex(v)].Add(1)
	for {
		old := h.max.Load()
		if v <= old || h.max.CompareAndSwap(old, v) {
			return
		}
	}
}

// ObserveDuration records a duration sample in nanoseconds.
func (h *Histogram) ObserveDuration(d time.Duration) { h.Observe(d.Nanoseconds()) }

// Snapshot captures a consistent-enough view of the histogram. Counts
// are read bucket-by-bucket without a global lock, so a snapshot taken
// mid-recording may be off by in-flight samples — fine for monitoring,
// and the only cost lock-freedom asks.
func (h *Histogram) Snapshot() HistogramSnapshot { return Merge(h) }

// Merge snapshots several histograms as one distribution: counts, sums
// and buckets add, Max is the largest, and the percentiles are taken
// over the union.
func Merge(hs ...*Histogram) HistogramSnapshot {
	var s HistogramSnapshot
	for _, h := range hs {
		s.Count += h.count.Load()
		s.Sum += h.sum.Load()
		if m := h.max.Load(); m > s.Max {
			s.Max = m
		}
		for i := range h.buckets {
			s.Buckets[i] += h.buckets[i].Load()
		}
	}
	s.P50 = s.Quantile(0.50)
	s.P90 = s.Quantile(0.90)
	s.P99 = s.Quantile(0.99)
	return s
}

// HistogramSnapshot is a point-in-time copy of a Histogram with
// precomputed percentiles.
type HistogramSnapshot struct {
	Count int64
	Sum   int64
	Max   int64
	P50   int64
	P90   int64
	P99   int64

	Buckets [NumBuckets]int64
}

// Quantile returns an upper-bound estimate of the q-th quantile
// (0 < q ≤ 1): the upper edge of the bucket where the cumulative count
// crosses q·Count, clamped to the observed Max. Zero if the histogram
// is empty.
func (s HistogramSnapshot) Quantile(q float64) int64 {
	if s.Count == 0 || q <= 0 {
		return 0
	}
	rank := int64(q * float64(s.Count))
	if float64(rank) < q*float64(s.Count) {
		rank++ // ceil
	}
	if rank < 1 {
		rank = 1
	}
	var cum int64
	for i := range s.Buckets {
		cum += s.Buckets[i]
		if cum >= rank {
			ub := BucketUpper(i)
			if s.Max > 0 && ub > s.Max {
				ub = s.Max
			}
			return ub
		}
	}
	return s.Max
}

// CountAtOrBelow returns how many samples landed in buckets wholly at
// or below v — the "good event" count for a latency SLO with objective
// v. The objective effectively rounds up to the enclosing bucket
// boundary (log₂ buckets: ≤ 2× coarse), which is the resolution this
// histogram offers; SLO consumers document the rounded bound.
func (s HistogramSnapshot) CountAtOrBelow(v int64) int64 {
	var cum int64
	for i := range s.Buckets {
		if BucketUpper(i) > v {
			break
		}
		cum += s.Buckets[i]
	}
	return cum
}

// Mean returns the average sample, 0 if empty.
func (s HistogramSnapshot) Mean() float64 {
	if s.Count == 0 {
		return 0
	}
	return float64(s.Sum) / float64(s.Count)
}
