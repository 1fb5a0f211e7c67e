// Package cluster is the routing tier over a fleet of montsysd
// backends: one Cluster fans requests out to N servers speaking the
// montsys wire protocol and makes them behave like a single, larger,
// more reliable engine — the same move the paper makes inside one
// exponentiator when it replicates and pipelines MMM arrays (§5,
// Fig. 5), lifted one level up. Like a cell of the paper's systolic
// array passing on the words it does not need to interpret, the
// cluster forwards each request's body to a backend as bytes, routed by
// the key its op-table row declares, and hands the backend's answer
// back undecoded; it has no per-op code.
//
// The router is built from five cooperating mechanisms:
//
//   - A health-checked backend pool with one transport-health path
//     per backend. Every backend is probed with the wire protocol's
//     Ping op, and failed probes and live ErrBackendDown answers feed
//     one consecutive-failure streak: reaching WithFailThreshold (or
//     one draining answer from either source) ejects the backend, and
//     any success from either source resets the streak. Only a
//     successful probe reinstates an ejected backend; probes back off
//     with jitter while it is out.
//
//   - Modulus-affinity routing. The engine behind each backend keeps a
//     per-modulus Montgomery context LRU; a request for modulus N is
//     an order of magnitude cheaper where N's context is already warm.
//     Rendezvous (HRW) hashing on the modulus gives every N a stable
//     "home" backend with no shared state and minimal movement when
//     the pool changes; repeat-modulus traffic therefore lands on warm
//     caches. Signing requests hash a key handle instead, so every
//     request for one key meets the same warm contexts. A home that is
//     overloaded (relative to the least-loaded backend) is spilled away
//     from; requests with no routing key use least-inflight selection.
//     Membership changes take effect at once: a modulus whose home
//     moves pays one inline context build on its new home, about the
//     cost of one F4 exponentiation on the CIOS kit.
//
//   - Tail-latency hedging. After a delay derived from the cluster's
//     own p99 latency, a slow request is raced against a second
//     backend and the first answer wins (the loser is cancelled).
//     Hedges spend from a global retry budget so they can never
//     amplify an outage.
//
//   - Failover. ErrDraining / ErrBackendDown / ErrEngineClosed /
//     ErrIntegrity answers move the request to the next backend for
//     free (the first backend is doing no work for us — and an
//     integrity answer means its result must never be trusted anyway);
//     ErrOverloaded failovers spend from the retry budget (both
//     backends did admission work, and the fleet is evidently
//     stressed). Application errors — even modulus, operand range —
//     fail immediately: they are deterministic.
//
//   - Integrity ejection. A backend answering ErrIntegrity is
//     corrupting compute, not failing transport, so the transport
//     streak and the health probe both consider it fine. Consecutive
//     integrity answers (WithIntegrityEjectThreshold) therefore feed a
//     separate streak that ejects it through the same eject helper;
//     the next clean health probe reinstates it, so a persistently
//     corrupting backend duty-cycles mostly-out-of-rotation instead of
//     serving poison at full rate.
//
// All of it is observable: montsys_cluster_* metrics register into the
// same obs.Registry as everything else, so one /metrics page spans
// client → balancer → backend → engine → systolic core.
package cluster

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/errs"
	"repro/internal/obs"
	"repro/internal/qos"
	"repro/internal/server"
)

// Option configures New.
type Option func(*config)

// An affinity home keeps its requests while its in-flight count ≤
// 2×(least in-flight)+spillSlack; past that they spill to the
// least-loaded backend.
const spillSlack = 8

type config struct {
	registry *obs.Registry

	probeInterval time.Duration
	probeTimeout  time.Duration
	failThreshold int
	reinstateBase time.Duration
	reinstateMax  time.Duration

	affinity bool

	hedge    bool
	hedgeMin time.Duration
	hedgeMax time.Duration

	budgetRatio float64
	budgetBurst int

	integrityEject int

	zone       string
	maxMembers int

	tracer *obs.Tracer

	tenants []string

	clientOpts []server.ClientOption
}

// WithRegistry collects the cluster's metrics into an existing registry
// (default: a fresh one), so the balancer's /metrics page carries the
// router and its wire server together.
func WithRegistry(r *obs.Registry) Option { return func(c *config) { c.registry = r } }

// WithProbeInterval sets the health-probe cadence for in-rotation
// backends (default 1s).
func WithProbeInterval(d time.Duration) Option { return func(c *config) { c.probeInterval = d } }

// WithProbeTimeout bounds each Ping probe (default 1s).
func WithProbeTimeout(d time.Duration) Option { return func(c *config) { c.probeTimeout = d } }

// WithFailThreshold sets how many consecutive transport failures —
// failed probes and live ErrBackendDown answers, counted together —
// eject a backend (default 3). A draining answer from either source
// ejects immediately regardless.
func WithFailThreshold(n int) Option { return func(c *config) { c.failThreshold = n } }

// WithReinstateBackoff sets the probe backoff envelope for ejected
// backends: base doubles per failed probe up to max, jittered 50–150%
// (defaults 500ms, 30s).
func WithReinstateBackoff(base, max time.Duration) Option {
	return func(c *config) { c.reinstateBase, c.reinstateMax = base, max }
}

// WithAffinity toggles modulus-affinity (HRW) routing (default on).
// Off, every request uses least-inflight selection.
func WithAffinity(on bool) Option { return func(c *config) { c.affinity = on } }

// WithHedging toggles tail-latency hedging (default on). Hedges spend
// from the retry budget.
func WithHedging(on bool) Option { return func(c *config) { c.hedge = on } }

// WithHedgeDelayBounds clamps the p99-derived hedge delay (defaults
// 1ms, 250ms). Until enough latency samples exist, max is used.
func WithHedgeDelayBounds(min, max time.Duration) Option {
	return func(c *config) { c.hedgeMin, c.hedgeMax = min, max }
}

// WithRetryBudget sets the global retry budget: hedges and overload
// retries spend one token each, and tokens accrue at ratio per primary
// request up to burst (defaults 0.1, 16). A zero ratio with a small
// burst effectively disables load-adding retries after the burst.
func WithRetryBudget(ratio float64, burst int) Option {
	return func(c *config) { c.budgetRatio, c.budgetBurst = ratio, burst }
}

// WithIntegrityEjectThreshold sets how many consecutive ErrIntegrity
// answers from one backend eject it from rotation (default 3; 0
// disables integrity ejection). Any successful answer resets the
// streak. Unlike probe ejection this fires from live traffic — a
// corrupting backend passes every transport-level health check.
func WithIntegrityEjectThreshold(n int) Option {
	return func(c *config) { c.integrityEject = n }
}

// WithTracer records a route-attempt span for every backend call made
// on behalf of a sampled request: one span per attempt (primary,
// hedge, failover), tagged with the backend, the pick reason, whether
// the attempt was the winning copy, whether it spent retry budget, and
// the error of a failed attempt. The same tracer is handed to every
// backend client so its call spans nest under the route spans, and the
// trace context is forwarded on the wire so the backend's own spans
// join the same tree. The tracer's wide-event writer, if set, logs
// every one of those spans as a route or client line.
func WithTracer(t *obs.Tracer) Option { return func(c *config) { c.tracer = t } }

// WithTenants names the tenants the cluster keeps per-tenant pick and
// shed counters for. Requests from any other tenant (or untagged ones)
// fold into the qos.OtherTenant series, so metric cardinality stays
// bounded by configuration — the same containment rule the QoS plane
// applies to quotas.
func WithTenants(names []string) Option {
	return func(c *config) { c.tenants = append(c.tenants, names...) }
}

// WithClientOptions passes extra options to every backend's wire
// client. The cluster defaults each client to zero internal retries —
// the router owns retry policy, and a client silently retrying against
// the same backend would blur failover — but an explicit
// WithMaxRetries here overrides that.
func WithClientOptions(opts ...server.ClientOption) Option {
	return func(c *config) { c.clientOpts = append(c.clientOpts, opts...) }
}

// WithZone names the failure domain this balancer runs in. Zone-aware
// routing then prefers a local backend for least-inflight picks when
// one is no more loaded than the global least — cross-zone hops cost
// real latency, so ties and better go local — and hedges never launch
// into a zone that is visibly failing (see zoneBad). An empty zone (the
// default) disables both preferences.
func WithZone(zone string) Option { return func(c *config) { c.zone = zone } }

// WithMaxMembers bounds the member table (default 64). Runtime Joins
// beyond the bound answer ErrOverloaded — the lever that keeps a
// hostile registration loop from growing the table without limit.
func WithMaxMembers(n int) Option { return func(c *config) { c.maxMembers = n } }

// Cluster routes montsys requests over a pool of montsysd backends.
// It is a server.Forwarder: behind server.NewForwardingServer — that
// composition is the montsyslb proxy — it hands each request's body to
// a backend unchanged and the backend's answer back undecoded (Forward),
// and executes runtime join/goodbye itself (see membership.go). A
// Cluster is safe for concurrent use by multiple goroutines.
type Cluster struct {
	cfg    config
	met    *metrics
	budget *retryBudget

	// pool is the membership snapshot; readers load it lock-free,
	// changes serialize on memMu (see membership.go).
	pool  atomic.Pointer[membership]
	memMu sync.Mutex

	clOpts []server.ClientOption // resolved backend-client options

	rr     atomic.Uint64 // least-inflight tie-break rotation
	stop   chan struct{}
	wg     sync.WaitGroup
	closed atomic.Bool
}

// Cluster is what montsyslb's wire server forwards to.
var _ server.Forwarder = (*Cluster)(nil)

// New builds a cluster over the seed members and starts their health
// probes. Each entry is "host:port" or "host:port=zone". Seed members
// begin in rotation (optimistically up — they came from configuration,
// not from an unauthenticated frame); connections are dialed lazily by
// the underlying clients. The pool can change at runtime afterwards
// via Join/Goodbye.
func New(addrs []string, opts ...Option) (*Cluster, error) {
	seeds := make([]Member, 0, len(addrs))
	seen := make(map[string]bool, len(addrs))
	for _, a := range addrs {
		if a == "" || seen[a] {
			continue
		}
		m, err := parseMember(a)
		if err != nil {
			return nil, err
		}
		if seen[m.Addr] {
			continue
		}
		seen[a], seen[m.Addr] = true, true
		seeds = append(seeds, m)
	}
	if len(seeds) == 0 {
		return nil, fmt.Errorf("cluster: no backend addresses")
	}
	cfg := config{
		probeInterval:  time.Second,
		probeTimeout:   time.Second,
		failThreshold:  3,
		reinstateBase:  500 * time.Millisecond,
		reinstateMax:   30 * time.Second,
		affinity:       true,
		hedge:          true,
		hedgeMin:       time.Millisecond,
		hedgeMax:       250 * time.Millisecond,
		budgetRatio:    0.1,
		budgetBurst:    16,
		integrityEject: 3,
		maxMembers:     64,
	}
	for _, o := range opts {
		o(&cfg)
	}
	if cfg.registry == nil {
		cfg.registry = obs.NewRegistry()
	}
	if cfg.failThreshold < 1 {
		cfg.failThreshold = 1
	}
	if cfg.hedgeMax < cfg.hedgeMin {
		cfg.hedgeMax = cfg.hedgeMin
	}
	if cfg.maxMembers < len(seeds) {
		cfg.maxMembers = len(seeds)
	}

	c := &Cluster{
		cfg:    cfg,
		met:    newMetrics(cfg.registry, seeds, cfg.tenants),
		budget: newRetryBudget(cfg.budgetRatio, cfg.budgetBurst),
		stop:   make(chan struct{}),
	}
	clOpts := []server.ClientOption{server.WithMaxRetries(0)}
	if cfg.tracer != nil {
		// Backend call spans record into the balancer's own tracer and
		// nest under the route-attempt spans (rate 0: the balancer
		// propagates sampled contexts, it never mints roots).
		clOpts = append(clOpts, server.WithClientTracing(cfg.tracer, 0))
	}
	c.clOpts = append(clOpts, cfg.clientOpts...)

	backends := make([]*backend, 0, len(seeds))
	for _, m := range seeds {
		backends = append(backends, c.newBackend(m.Addr, m.Zone, true))
	}
	c.pool.Store(&membership{backends: backends})
	c.met.members.Set(int64(len(backends)))
	for _, b := range backends {
		c.wg.Add(1)
		go c.probeLoop(b, jitter(c.cfg.probeInterval))
	}
	return c, nil
}

// newBackend builds one pool entry with its client and metric block.
// Dynamically joined backends start down (up=false) until their first
// probe succeeds; seeds start up.
func (c *Cluster) newBackend(addr, zone string, up bool) *backend {
	b := &backend{
		addr: addr,
		zone: zone,
		cl:   server.Dial(addr, c.clOpts...),
		met:  c.met.backend(addr),
		gone: make(chan struct{}),
	}
	b.setUp(up)
	return b
}

// Close stops the health probes and closes every backend client.
// In-flight calls fail; further calls return ErrEngineClosed-wrapped
// errors.
func (c *Cluster) Close() error {
	c.memMu.Lock()
	already := c.closed.Swap(true)
	c.memMu.Unlock()
	if already {
		return nil
	}
	close(c.stop)
	c.wg.Wait()
	for _, b := range c.pool.Load().backends {
		b.cl.Close()
	}
	return nil
}

// Registry returns the registry the cluster's metrics live in.
func (c *Cluster) Registry() *obs.Registry { return c.cfg.registry }

// BackendStatus is one backend's routing state at a point in time.
type BackendStatus struct {
	Addr     string
	Zone     string // failure-domain label ("" when unlabeled)
	Up       bool   // in rotation
	Inflight int64  // cluster-side requests currently on it
}

// Status snapshots every routable backend, in pool order.
func (c *Cluster) Status() []BackendStatus {
	p := c.pool.Load()
	out := make([]BackendStatus, len(p.backends))
	for i, b := range p.backends {
		out[i] = BackendStatus{
			Addr:     b.addr,
			Zone:     b.zone,
			Up:       b.up(),
			Inflight: b.inflight.Load(),
		}
	}
	return out
}

// failoverable reports whether an error from one backend justifies
// trying another: instance-local conditions yes, deterministic
// application errors no.
func failoverable(err error) bool {
	return errors.Is(err, errs.ErrOverloaded) ||
		errors.Is(err, errs.ErrDraining) ||
		errors.Is(err, errs.ErrBackendDown) ||
		errors.Is(err, errs.ErrEngineClosed) ||
		errors.Is(err, errs.ErrIntegrity)
}

// Forward routes one request and returns its backend's answer
// undecoded: pick a backend by the request's routing key, attempt
// (hedging unless the op answers per item), and on a failoverable
// error move to the next backend — draining/down moves are free,
// overload moves spend retry budget. The reply of the last backend to
// answer is returned whatever its code, so an application error
// reaches the caller exactly as that backend encoded it.
//
// The membership snapshot is taken once per call: a concurrent
// join/leave never changes routing mid-request, and a backend retired
// since then is out of rotation, so the snapshot skips it.
func (c *Cluster) Forward(ctx context.Context, r server.Routed) (*server.Reply, error) {
	if r.KeyHandle {
		c.met.keyhandleReqs.Inc()
	}
	if c.closed.Load() {
		return nil, fmt.Errorf("cluster: closed: %w", errs.ErrEngineClosed)
	}
	c.budget.credit()
	p := c.pool.Load()
	tried := make(map[*backend]bool, len(p.backends))
	var lastRep *server.Reply
	var lastErr error
	budgeted := false // did retry budget fund the upcoming attempt?
	b, reason := c.choose(p, r.Key, tried, false)
	for b != nil {
		tried[b] = true
		lastRep, lastErr = c.attempt(ctx, r, p, b, tried, reason, budgeted)
		if lastErr == nil || ctx.Err() != nil || !failoverable(lastErr) {
			return lastRep, lastErr
		}
		// Only a backend left to take the request makes this a
		// failover: count it and fund it once one is picked.
		if b, _ = c.choose(p, r.Key, tried, false); b == nil {
			break
		}
		reason = "failover"
		budgeted = errors.Is(lastErr, errs.ErrOverloaded)
		if budgeted && !c.budget.spend() {
			c.met.budgetDenied.Inc()
			return lastRep, lastErr
		}
		c.met.failovers.Inc()
	}
	if lastErr == nil {
		lastErr = fmt.Errorf("cluster: no backend in rotation: %w", errs.ErrBackendDown)
	}
	return lastRep, lastErr
}

// attempt runs one routed request on primary, hedging onto a second
// backend if the p99-derived delay expires first — except for ops
// answered per item, which are never hedged. The first success wins
// and cancels the other; hedge launches spend retry budget.
//
// For sampled requests every launch — primary and hedge — gets its own
// child span: the backend client inherits the launch's trace context,
// so its call span (and the remote server's spans) nest under the
// route attempt that carried them. A lock-free won marker decides
// which copy of a hedged race answered first; the loser's span says so.
func (c *Cluster) attempt(ctx context.Context, r server.Routed, p *membership,
	primary *backend, tried map[*backend]bool, reason string,
	budgeted bool) (*server.Reply, error) {
	cctx, cancel := context.WithCancel(ctx)
	defer cancel()

	tc, _ := obs.TraceFromContext(ctx)
	tenant := qos.FromContext(ctx).Tenant
	var won atomic.Bool // first successful copy takes it; losers record hedge_lost

	type result struct {
		rep    *server.Reply
		err    error
		hedged bool
	}
	ch := make(chan result, 2) // both goroutines can always deliver and exit
	launch := func(b *backend, reason string, hedged, spent bool) {
		b.acquire()
		go func() {
			actx := cctx
			var span obs.SpanID
			if tc.Sampled {
				span = obs.NewSpanID()
				actx = obs.ContextWithTrace(actx, tc.Child(span))
			}
			t0 := time.Now()
			rep, err := b.cl.Forward(actx, r.Op, r.Body)
			b.release()
			elapsed := time.Since(t0)
			c.observe(b, err, elapsed)
			if errors.Is(err, errs.ErrRateLimited) || errors.Is(err, errs.ErrOverloaded) {
				c.met.tenantShed(tenant)
			}
			first := err == nil && won.CompareAndSwap(false, true)
			c.recordAttempt(tc, span, r.Op, b, reason, t0, elapsed, err, hedged, spent, first)
			ch <- result{rep, err, hedged}
		}()
	}
	c.met.pick(primary, reason)
	c.met.tenantPick(tenant)
	launch(primary, reason, false, budgeted)

	var hedgeC <-chan time.Time
	// Best-effort traffic is exempt from hedging: a hedge spends fleet
	// capacity (and retry budget) to shave tail latency, and best-effort
	// is by definition the class whose tail nobody is paying for.
	if !r.Op.PerItem() && c.cfg.hedge && len(p.backends) > 1 &&
		qos.FromContext(ctx).Class != qos.BestEffort {
		t := time.NewTimer(c.hedgeDelay())
		defer t.Stop()
		hedgeC = t.C
	}

	outstanding := 1
	var last result
	for outstanding > 0 {
		select {
		case res := <-ch:
			outstanding--
			if res.err == nil {
				if res.hedged {
					c.met.hedgeWins.Inc()
				}
				cancel() // the slower copy unwinds into the buffered channel
				return res.rep, nil
			}
			last = res
		case <-hedgeC:
			hedgeC = nil
			h, _ := c.choose(p, r.Key, tried, true)
			if h == nil {
				continue
			}
			if !c.budget.spend() {
				c.met.budgetDenied.Inc()
				continue
			}
			tried[h] = true
			c.met.hedges.Inc()
			c.met.pick(h, "hedge")
			c.met.tenantPick(tenant)
			launch(h, "hedge", true, true)
			outstanding++
		}
	}
	return last.rep, last.err
}

// recordAttempt records the route-attempt span for one finished
// backend call of a sampled request. won is true for the copy that
// answered first with a success — on a hedged race exactly one attempt
// carries race=won, and a losing-but-successful copy is the hedge loss
// the span names explicitly. A failed attempt carries its error text.
func (c *Cluster) recordAttempt(tc obs.TraceContext, span obs.SpanID, op server.Op,
	b *backend, reason string, start time.Time, elapsed time.Duration, err error,
	hedged, budgeted, won bool) {
	if !tc.Sampled || c.cfg.tracer == nil {
		return
	}
	s := obs.Span{
		Name:    "route/" + op.String(),
		Track:   "route",
		Outcome: server.CodeOf(err).String(),
		Start:   start,
		Exec:    elapsed,
		TraceID: tc.TraceID,
		SpanID:  span,
		Parent:  tc.SpanID,
		Attrs: []obs.Attr{
			{Key: "backend", Val: b.addr},
			{Key: "pick", Val: reason},
		},
	}
	if hedged || won {
		hw := "lost"
		if won {
			hw = "won"
		}
		s.Attrs = append(s.Attrs, obs.Attr{Key: "race", Val: hw})
	}
	if budgeted {
		s.Attrs = append(s.Attrs, obs.Attr{Key: "budget", Val: "spent"})
	}
	if err != nil {
		s.Attrs = append(s.Attrs, obs.Attr{Key: "err", Val: err.Error()})
	}
	c.cfg.tracer.Record(s)
}

// observe feeds one finished backend call into the latency histogram
// and the backend's two streaks. Only transport failures add to the
// transport streak, and a draining answer ejects at once: the backend
// itself said it is going away. An application error or an explicit
// overload answer proves the transport works, and a cancellation says
// nothing either way. Integrity answers prove the transport works too
// — the backend is corrupting, not unreachable — so they feed their
// own ejection streak instead.
func (c *Cluster) observe(b *backend, err error, elapsed time.Duration) {
	switch {
	case err == nil:
		b.integrityStreak.Store(0)
		c.met.latency.ObserveDuration(elapsed)
	case errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded):
		return // no signal
	case errors.Is(err, errs.ErrBackendDown) || errors.Is(err, errs.ErrDraining):
		c.transportFailed(b, err)
		return
	case errors.Is(err, errs.ErrIntegrity):
		b.met.integrityFailures.Inc()
		if n := c.cfg.integrityEject; n > 0 && b.integrityStreak.Add(1) >= int64(n) {
			b.integrityStreak.Store(0)
			c.eject(b)
		}
	}
	b.transportStreak.Store(0)
}

// transportFailed records one failed probe or live ErrBackendDown
// answer: failThreshold consecutive ones eject the backend, and so
// does a single draining answer.
func (c *Cluster) transportFailed(b *backend, err error) {
	if b.transportStreak.Add(1) >= int64(c.cfg.failThreshold) || errors.Is(err, errs.ErrDraining) {
		c.eject(b)
	}
}

// eject takes b out of rotation — the one writer of the ejections
// counter, for transport and integrity ejections alike. A no-op if b is
// already out. Only a successful probe puts it back (see probeLoop).
func (c *Cluster) eject(b *backend) {
	if b.upFlag.CompareAndSwap(true, false) {
		b.met.up.Set(0)
		b.met.ejections.Inc()
	}
}

// hedgeDelay derives the hedge trigger from the cluster's own latency:
// p99 clamped to [hedgeMin, hedgeMax], with hedgeMax used until enough
// samples exist for a meaningful percentile.
func (c *Cluster) hedgeDelay() time.Duration {
	s := c.met.latency.Snapshot()
	if s.Count < 16 {
		return c.cfg.hedgeMax
	}
	d := time.Duration(s.P99)
	if d < c.cfg.hedgeMin {
		d = c.cfg.hedgeMin
	}
	if d > c.cfg.hedgeMax {
		d = c.cfg.hedgeMax
	}
	return d
}

// choose picks the next backend among in-rotation, not-yet-tried ones:
// the modulus's HRW home unless it is overloaded (then the
// least-inflight backend), or plain least-inflight when there is no
// affinity key. Returns nil when no backend qualifies. forHedge picks
// also skip known-bad zones.
func (c *Cluster) choose(p *membership, key []byte, excluded map[*backend]bool,
	forHedge bool) (pick *backend, reason string) {
	cands := make([]*backend, 0, len(p.backends))
	for _, b := range p.backends {
		if !b.up() || excluded[b] {
			continue
		}
		if forHedge && zoneBad(p, b.zone) {
			// Never hedge into a known-bad zone: the hedge exists to
			// dodge slowness, and a zone absorbing failures is where
			// slowness lives. Primary routing still may use it — when it
			// holds the only up backends, slow beats unavailable.
			c.met.hedgeZoneSkips.Inc()
			continue
		}
		cands = append(cands, b)
	}
	if len(cands) == 0 {
		return nil, ""
	}

	// Least-inflight with a rotating tie-break, so equal backends share
	// load instead of the first one absorbing it all.
	start := int(c.rr.Add(1)) % len(cands)
	least := cands[start]
	min := least.inflight.Load()
	for k := 1; k < len(cands); k++ {
		b := cands[(start+k)%len(cands)]
		if v := b.inflight.Load(); v < min {
			least, min = b, v
		}
	}
	// Zone preference: a local-zone candidate no more loaded than the
	// global least wins the least-inflight pick — cross-zone hops cost
	// latency, so ties (and better) go local.
	if c.cfg.zone != "" && least.zone != c.cfg.zone {
		var local *backend
		var lmin int64
		for _, b := range cands {
			if b.zone != c.cfg.zone {
				continue
			}
			if v := b.inflight.Load(); local == nil || v < lmin {
				local, lmin = b, v
			}
		}
		if local != nil && lmin <= min {
			least, min = local, lmin
		}
	}

	if c.cfg.affinity && len(key) > 0 {
		home := hrwBest(key, cands)
		if home.inflight.Load() <= 2*min+spillSlack {
			return home, "affinity"
		}
		return least, "spill"
	}
	return least, "least_inflight"
}
