package obs

import "time"

// Collector is the engine's observability sink. It satisfies
// internal/engine's Observer interface structurally (the methods use
// only obs and basic types), so attaching it is
//
//	col := obs.NewCollector()
//	eng, _ := engine.New(engine.WithObserver(col))
//
// and the whole layer stays out of the engine's dependency graph. The
// engine registers its own counters, gauges and histograms on the
// collector's Registry — the instruments Engine.Stats reads — so the
// collector counts nothing itself: it records job spans in the tracer
// ring (whose wide-event writer, if set, logs the sampled ones) and
// marks quarantines on the trace. Servers and other layers can share
// the same registry, so one /metrics page carries them all.
type Collector struct {
	reg    *Registry
	tracer *Tracer
}

// CollectorOption configures NewCollector.
type CollectorOption func(*collectorConfig)

type collectorConfig struct {
	traceCap int
	tracing  bool
}

// WithTracing enables the span ring buffer, keeping the most recent
// capacity spans (≤ 0 selects DefaultTraceCapacity).
func WithTracing(capacity int) CollectorOption {
	return func(c *collectorConfig) { c.tracing, c.traceCap = true, capacity }
}

// NewCollector builds a collector around an empty registry.
func NewCollector(opts ...CollectorOption) *Collector {
	cfg := collectorConfig{}
	for _, o := range opts {
		o(&cfg)
	}
	c := &Collector{reg: NewRegistry()}
	if cfg.tracing {
		c.tracer = NewTracer(cfg.traceCap)
	}
	return c
}

// Registry exposes the collector's metrics registry (for the HTTP
// handler or custom exporters).
func (c *Collector) Registry() *Registry { return c.reg }

// Tracer returns the span ring buffer, nil unless WithTracing was
// given.
func (c *Collector) Tracer() *Tracer { return c.tracer }

// SetEngineInfo publishes a one-shot info gauge describing an attached
// engine (workers, execution mode, array variant) the way Prometheus
// convention spells build_info.
func (c *Collector) SetEngineInfo(workers int, mode, variant string) {
	c.reg.GaugeLabeled("montsys_engine_info",
		"Constant 1, labeled with the attached engine's configuration.",
		Label("mode", mode), Label("variant", variant)).Set(1)
	c.reg.Gauge("montsys_engine_workers",
		"Worker cores of the attached engine.").Set(int64(workers))
}

// JobSpan implements engine.Observer: a job's run ended with
// s.Outcome. The span goes into the tracer ring.
func (c *Collector) JobSpan(s Span) {
	if c.tracer != nil {
		c.tracer.Record(s)
	}
}

// IntegrityEvent implements engine.Observer. Quarantines and
// reinstatements are rare, load-bearing moments: they are marked on the
// worker's trace track so a Perfetto view shows when the core was
// benched amid its job slices.
func (c *Collector) IntegrityEvent(event string, worker int) {
	if c.tracer != nil && (event == "quarantine" || event == "reinstate") {
		c.tracer.RecordInstant("integrity/"+event, worker, time.Now())
	}
}
