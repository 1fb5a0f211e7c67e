package obs

import (
	"fmt"
	"io"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
)

// Counter is a monotonically increasing lock-free counter.
type Counter struct{ v atomic.Int64 }

// Add increments the counter by d (d ≥ 0 by convention).
func (c *Counter) Add(d int64) { c.v.Add(d) }

// Inc increments the counter by one.
func (c *Counter) Inc() { c.v.Add(1) }

// Value returns the current count.
func (c *Counter) Value() int64 { return c.v.Load() }

// Gauge is a lock-free instantaneous value that can move both ways.
type Gauge struct{ v atomic.Int64 }

// Set replaces the gauge value.
func (g *Gauge) Set(v int64) { g.v.Store(v) }

// Add moves the gauge by d (negative to decrement) and returns the new
// value.
func (g *Gauge) Add(d int64) int64 { return g.v.Add(d) }

// SetMax raises the gauge to v if v exceeds the current value — a
// high-watermark update, lock-free via CAS.
func (g *Gauge) SetMax(v int64) {
	for {
		old := g.v.Load()
		if v <= old || g.v.CompareAndSwap(old, v) {
			return
		}
	}
}

// Value returns the current gauge reading.
func (g *Gauge) Value() int64 { return g.v.Load() }

// metricKind discriminates registry entries for TYPE lines.
type metricKind uint8

const (
	kindCounter metricKind = iota
	kindGauge
	kindHistogram
)

// entry is one registered metric: a base name (the Prometheus metric
// family), an optional pre-rendered label set, and the instrument.
type entry struct {
	base   string // e.g. montsys_jobs_total
	labels string // e.g. `kind="modexp"` (no braces), may be empty
	help   string
	kind   metricKind

	counter *Counter
	gauge   *Gauge
	hist    *Histogram
}

// Registry holds named metrics and renders them in Prometheus text
// exposition format. Registration takes a mutex; reads and instrument
// updates are lock-free. Registering the same (name, labels) pair twice
// returns the existing instrument, so packages can idempotently declare
// what they need.
type Registry struct {
	mu      sync.Mutex
	entries []*entry
	index   map[string]*entry // base + "{" + labels + "}"
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{index: make(map[string]*entry)}
}

// Label renders one Prometheus label pair for use with the *Labeled
// registration calls.
func Label(k, v string) string { return k + `="` + v + `"` }

func (r *Registry) register(base, labels, help string, kind metricKind) *entry {
	key := base + "{" + labels + "}"
	r.mu.Lock()
	defer r.mu.Unlock()
	if e, ok := r.index[key]; ok {
		return e
	}
	e := &entry{base: base, labels: labels, help: help, kind: kind}
	switch kind {
	case kindCounter:
		e.counter = &Counter{}
	case kindGauge:
		e.gauge = &Gauge{}
	case kindHistogram:
		e.hist = &Histogram{}
	}
	r.entries = append(r.entries, e)
	r.index[key] = e
	return e
}

// Counter registers (or fetches) an unlabeled counter.
func (r *Registry) Counter(name, help string) *Counter {
	return r.register(name, "", help, kindCounter).counter
}

// CounterLabeled registers (or fetches) a counter with a fixed label
// set, e.g. CounterLabeled("montsys_jobs_total", "...", Label("kind", "modexp")).
func (r *Registry) CounterLabeled(name, help string, labels ...string) *Counter {
	return r.register(name, joinLabels(labels), help, kindCounter).counter
}

// Gauge registers (or fetches) an unlabeled gauge.
func (r *Registry) Gauge(name, help string) *Gauge {
	return r.register(name, "", help, kindGauge).gauge
}

// GaugeLabeled registers (or fetches) a gauge with a fixed label set.
func (r *Registry) GaugeLabeled(name, help string, labels ...string) *Gauge {
	return r.register(name, joinLabels(labels), help, kindGauge).gauge
}

// Histogram registers (or fetches) an unlabeled histogram.
func (r *Registry) Histogram(name, help string) *Histogram {
	return r.register(name, "", help, kindHistogram).hist
}

// HistogramLabeled registers (or fetches) a histogram with a fixed
// label set.
func (r *Registry) HistogramLabeled(name, help string, labels ...string) *Histogram {
	return r.register(name, joinLabels(labels), help, kindHistogram).hist
}

func joinLabels(labels []string) string {
	out := ""
	for i, l := range labels {
		if i > 0 {
			out += ","
		}
		out += l
	}
	return out
}

// WritePrometheus renders every registered metric in Prometheus text
// exposition format (version 0.0.4): HELP/TYPE headers once per metric
// family, histograms as cumulative _bucket{le=...} series plus _sum and
// _count, durations kept in their native nanosecond unit with the
// bucket bounds expressed in seconds (suffix the metric name _seconds
// to follow convention).
func (r *Registry) WritePrometheus(w io.Writer) error {
	r.mu.Lock()
	entries := append([]*entry(nil), r.entries...)
	r.mu.Unlock()

	// Group by family so HELP/TYPE appear once, families sorted by name
	// and series within a family in registration order.
	sort.SliceStable(entries, func(i, j int) bool { return entries[i].base < entries[j].base })
	lastBase := ""
	for _, e := range entries {
		if e.base != lastBase {
			lastBase = e.base
			if e.help != "" {
				if _, err := fmt.Fprintf(w, "# HELP %s %s\n", e.base, e.help); err != nil {
					return err
				}
			}
			if _, err := fmt.Fprintf(w, "# TYPE %s %s\n", e.base, typeName(e.kind)); err != nil {
				return err
			}
		}
		if err := writeEntry(w, e); err != nil {
			return err
		}
	}
	return nil
}

func typeName(k metricKind) string {
	switch k {
	case kindCounter:
		return "counter"
	case kindGauge:
		return "gauge"
	default:
		return "histogram"
	}
}

func writeEntry(w io.Writer, e *entry) error {
	switch e.kind {
	case kindCounter:
		_, err := fmt.Fprintf(w, "%s %d\n", series(e.base, e.labels), e.counter.Value())
		return err
	case kindGauge:
		_, err := fmt.Fprintf(w, "%s %d\n", series(e.base, e.labels), e.gauge.Value())
		return err
	default:
		return writeHistogram(w, e)
	}
}

// series renders `name` or `name{labels}`, with extra labels appended
// after any fixed ones.
func series(base, labels string, extra ...string) string {
	all := labels
	for _, x := range extra {
		if all != "" {
			all += ","
		}
		all += x
	}
	if all == "" {
		return base
	}
	return base + "{" + all + "}"
}

func writeHistogram(w io.Writer, e *entry) error {
	s := e.hist.Snapshot()
	// Cumulative buckets up to the highest occupied one; le bounds in
	// seconds (samples are nanoseconds).
	top := 0
	for i := range s.Buckets {
		if s.Buckets[i] > 0 {
			top = i
		}
	}
	var cum int64
	for i := 0; i <= top; i++ {
		cum += s.Buckets[i]
		le := strconv.FormatFloat(float64(BucketUpper(i))/1e9, 'g', -1, 64)
		if _, err := fmt.Fprintf(w, "%s %d\n",
			series(e.base+"_bucket", e.labels, Label("le", le)), cum); err != nil {
			return err
		}
	}
	if _, err := fmt.Fprintf(w, "%s %d\n",
		series(e.base+"_bucket", e.labels, Label("le", "+Inf")), s.Count); err != nil {
		return err
	}
	sum := strconv.FormatFloat(float64(s.Sum)/1e9, 'g', -1, 64)
	if _, err := fmt.Fprintf(w, "%s %s\n", series(e.base+"_sum", e.labels), sum); err != nil {
		return err
	}
	_, err := fmt.Fprintf(w, "%s %d\n", series(e.base+"_count", e.labels), s.Count)
	return err
}
