package qos

import (
	"fmt"
	"io"
	"sort"
	"sync/atomic"
	"time"

	"repro/internal/errs"
	"repro/internal/obs"
)

// Plane is one process's QoS admission plane: the tenant table, a
// token bucket and weighted concurrency share per tenant, and the
// montsys_qos_* metric block. The server consults it before the global
// in-flight gate; the engine reports lane sheds and depths into it; the
// obs mux renders it on /quotaz.
//
// Concurrency shares are hard caps: tenant i may hold at most
// max(1, budget·wᵢ/Σw) in-flight slots, so the shares sum to roughly
// the global budget and a greedy tenant can never occupy the slots a
// well-behaved tenant's weight entitles it to. Unknown tenants fold
// into a single OtherTenant bucket governed by the "*" policy — both
// for quota (they share one bucket, so inventing tenant names buys
// nothing) and for metric cardinality.
type Plane struct {
	cfg    Config
	budget int // global in-flight budget the shares slice up; ≤ 0 = no share caps

	tenants map[string]*tenantState // configured tenants by name
	other   *tenantState            // the "*" fold-in bucket

	laneDepth [NumClasses]*obs.Gauge
}

// tenantState is one tenant's live quota state plus its pre-registered
// metric handles (per-tenant series are created once at construction,
// never on the hot path).
type tenantState struct {
	cfg      TenantConfig
	label    string // metric label: cfg.Name, or OtherTenant for "*"
	bucket   *Bucket
	share    int64
	inflight atomic.Int64

	admits       *obs.Counter
	rateLimited  *obs.Counter
	shareRejects *obs.Counter
	sheds        [NumClasses]*obs.Counter
	inflightG    *obs.Gauge
	tokensMilli  *obs.Gauge
	latency      *obs.Histogram
}

// NewPlane builds the admission plane. budget is the server's global
// in-flight bound that weighted shares carve up (≤ 0 disables share
// enforcement, leaving only rate limiting). reg may be nil — in tests
// and benchmarks the plane then runs on unregistered instruments.
func NewPlane(cfg Config, budget int, reg *obs.Registry) *Plane {
	if cfg.Default.Name == "" {
		cfg.Default = DefaultConfig().Default
	}
	p := &Plane{cfg: cfg, budget: budget, tenants: make(map[string]*tenantState, len(cfg.Tenants))}
	sumW := clampWeight(cfg.Default.Weight)
	for _, tc := range cfg.Tenants {
		sumW += clampWeight(tc.Weight)
	}
	for _, tc := range cfg.Tenants {
		p.tenants[tc.Name] = newTenantState(tc, tc.Name, budget, sumW, reg)
	}
	p.other = newTenantState(cfg.Default, OtherTenant, budget, sumW, reg)
	for c := Class(0); c < NumClasses; c++ {
		p.laneDepth[c] = gauge(reg, "montsys_qos_lane_depth",
			"Jobs queued in each engine scheduling lane.", obs.Label("class", c.String()))
	}
	return p
}

func clampWeight(w int) int {
	if w < 1 {
		return 1
	}
	return w
}

func newTenantState(tc TenantConfig, label string, budget, sumW int, reg *obs.Registry) *tenantState {
	st := &tenantState{
		cfg:    tc,
		label:  label,
		bucket: NewBucket(tc.Rate, tc.Burst),
	}
	if budget > 0 {
		st.share = int64(budget * clampWeight(tc.Weight) / sumW)
		if st.share < 1 {
			st.share = 1
		}
	}
	tl := obs.Label("tenant", label)
	st.admits = counter(reg, "montsys_qos_admits_total",
		"Requests admitted by per-tenant QoS admission.", tl)
	st.rateLimited = counter(reg, "montsys_qos_rate_limited_total",
		"Requests rejected because the tenant's token bucket was empty.", tl)
	st.shareRejects = counter(reg, "montsys_qos_share_rejects_total",
		"Requests rejected because the tenant exceeded its concurrency share.", tl)
	for c := Class(0); c < NumClasses; c++ {
		st.sheds[c] = counter(reg, "montsys_qos_sheds_total",
			"Queued jobs shed by the engine's lowest-class-first overload policy.",
			tl, obs.Label("class", c.String()))
	}
	st.inflightG = gauge(reg, "montsys_qos_inflight",
		"Requests currently holding a tenant concurrency slot.", tl)
	st.tokensMilli = gauge(reg, "montsys_qos_tokens_milli",
		"Milli-tokens remaining in the tenant's bucket at last admission.", tl)
	st.latency = histogram(reg, "montsys_qos_latency",
		"Per-tenant request latency (admission to response).", tl)
	return st
}

func counter(reg *obs.Registry, name, help string, labels ...string) *obs.Counter {
	if reg == nil {
		return &obs.Counter{}
	}
	return reg.CounterLabeled(name, help, labels...)
}

func gauge(reg *obs.Registry, name, help string, labels ...string) *obs.Gauge {
	if reg == nil {
		return &obs.Gauge{}
	}
	return reg.GaugeLabeled(name, help, labels...)
}

func histogram(reg *obs.Registry, name, help string, labels ...string) *obs.Histogram {
	if reg == nil {
		return &obs.Histogram{}
	}
	return reg.HistogramLabeled(name, help, labels...)
}

// state maps a wire tenant name to its quota bucket.
func (p *Plane) state(tenant string) *tenantState {
	if st, ok := p.tenants[tenant]; ok {
		return st
	}
	return p.other
}

// Admit runs per-tenant admission for one request at time now. On
// success it returns a release closure that must be called exactly
// once when the request finishes (it frees the concurrency slot and
// records the per-tenant latency). On failure it returns
// *errs.RateLimited (bucket empty, with the retry-after hint) or an
// ErrOverloaded wrap (concurrency share exhausted).
func (p *Plane) Admit(tenant string, now time.Time) (release func(outcome time.Duration), err error) {
	st := p.state(tenant)
	ok, retryAfter, remaining := st.bucket.Take(now)
	st.tokensMilli.Set(int64(remaining * 1000))
	if !ok {
		st.rateLimited.Inc()
		return nil, &errs.RateLimited{Tenant: st.label, RetryAfter: retryAfter}
	}
	if st.share > 0 {
		if st.inflight.Add(1) > st.share {
			st.inflight.Add(-1)
			st.shareRejects.Inc()
			return nil, fmt.Errorf("tenant %q over concurrency share %d: %w",
				st.label, st.share, errs.ErrOverloaded)
		}
		st.inflightG.Set(st.inflight.Load())
	}
	st.admits.Inc()
	return func(elapsed time.Duration) {
		if st.share > 0 {
			st.inflightG.Set(st.inflight.Add(-1))
		}
		st.latency.ObserveDuration(elapsed)
	}, nil
}

// Shed implements the engine's QoS observer: a queued job for tenant
// was dropped by the shed-lowest-class-first overload policy.
func (p *Plane) Shed(tenant string, class Class) {
	if class >= NumClasses {
		class = BestEffort
	}
	p.state(tenant).sheds[class].Inc()
}

// LaneDepth implements the engine's QoS observer: the scheduling lane
// for class now holds depth queued jobs.
func (p *Plane) LaneDepth(class Class, depth int) {
	if class < NumClasses {
		p.laneDepth[class].Set(int64(depth))
	}
}

// WriteQuotaz renders the plain-text quota page served at /quotaz —
// one line per configured tenant plus the fold-in bucket, in the same
// key=value grammar /statusz uses.
func (p *Plane) WriteQuotaz(w io.Writer) {
	now := time.Now()
	fmt.Fprintf(w, "qos tenants=%d budget=%d\n", len(p.tenants), p.budget)
	names := make([]string, 0, len(p.tenants))
	for name := range p.tenants {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		p.tenants[name].writeQuota(w, now)
	}
	p.other.writeQuota(w, now)
}

func (st *tenantState) writeQuota(w io.Writer, now time.Time) {
	sheds := int64(0)
	for c := Class(0); c < NumClasses; c++ {
		sheds += st.sheds[c].Value()
	}
	p99 := time.Duration(st.latency.Snapshot().Quantile(0.99))
	fmt.Fprintf(w,
		"tenant=%s class=%s rate=%g burst=%g weight=%d share=%d tokens=%.1f inflight=%d admits=%d rate_limited=%d share_rejects=%d sheds=%d p99=%s\n",
		st.label, st.cfg.Class, st.cfg.Rate, st.cfg.Burst, clampWeight(st.cfg.Weight),
		st.share, st.bucket.Tokens(now), st.inflight.Load(),
		st.admits.Value(), st.rateLimited.Value(), st.shareRejects.Value(), sheds, p99)
}
