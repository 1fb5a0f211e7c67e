package cluster

import (
	"sync"

	"repro/internal/obs"
	"repro/internal/qos"
)

// pickReasons label why the router chose a backend:
//
//	affinity        HRW home of the request's modulus (warm ctx cache)
//	spill           affinity home overloaded; least-inflight instead
//	least_inflight  no affinity key (or affinity disabled)
//	failover        previous backend failed; next choice
//	hedge           tail-latency hedge fired on a second backend
var pickReasons = []string{"affinity", "spill", "least_inflight", "failover", "hedge"}

// metrics is the cluster's instrument block, pre-registered so the
// request hot path never touches the registry lock. Registered into
// the same obs.Registry as the proxy's server metrics (and scraped next
// to the backends' pages) it completes the client → balancer → backend
// → engine → systolic-core metrics story:
//
//	montsys_cluster_backend_up{backend}          1 = in rotation, 0 = ejected or retired
//	montsys_cluster_backend_inflight{backend}    cluster-side in-flight (gauge)
//	montsys_cluster_picks_total{backend,reason}  routing decisions (counter)
//	montsys_cluster_affinity_hits_total          requests routed to their HRW home
//	montsys_cluster_affinity_spills_total        affinity home overloaded, spilled
//	montsys_cluster_keyhandle_requests_total     signing requests routed by key handle
//	montsys_cluster_hedges_total                 hedge requests launched
//	montsys_cluster_hedge_wins_total             hedges that answered first
//	montsys_cluster_failovers_total              attempts moved to another backend
//	montsys_cluster_retry_budget_denied_total    hedges/retries the budget refused
//	montsys_cluster_probe_failures_total{backend}
//	montsys_cluster_ejections_total{backend}     transport + integrity ejections
//	montsys_cluster_reinstatements_total{backend}
//	montsys_cluster_integrity_failures_total{backend}  ErrIntegrity answers
//	montsys_cluster_request_seconds              end-to-end latency histogram
//	montsys_cluster_tenant_picks_total{tenant}   routed attempts by tenant
//	montsys_cluster_tenant_sheds_total{tenant}   attempts answered rate-limited
//	                                             or overloaded, by tenant
//	montsys_cluster_members                      routable member count (gauge)
//	montsys_cluster_membership_changes_total{kind}  joins and leaves
//	montsys_cluster_hedge_zone_skips_total       hedge candidates skipped for
//	                                             living in a known-bad zone
//
// The per-tenant series exist only for tenants named via WithTenants;
// everything else folds into the qos.OtherTenant label, bounding
// cardinality exactly the way the QoS plane bounds its quotas.
// Per-backend series are pre-registered for seeds and registered on
// first sight for runtime joins (obs.Registry registration is
// idempotent, so a re-join reuses the existing series).
type metrics struct {
	latency        *obs.Histogram
	hedges         *obs.Counter
	hedgeWins      *obs.Counter
	affinityHits   *obs.Counter
	affinitySpills *obs.Counter
	keyhandleReqs  *obs.Counter
	failovers      *obs.Counter
	budgetDenied   *obs.Counter
	members        *obs.Gauge
	joins          *obs.Counter
	leaves         *obs.Counter
	hedgeZoneSkips *obs.Counter
	tenantPicks    map[string]*obs.Counter
	tenantSheds    map[string]*obs.Counter

	reg        *obs.Registry
	mu         sync.Mutex // guards perBackend after construction
	perBackend map[string]*backendMetrics
}

type backendMetrics struct {
	up                *obs.Gauge
	inflight          *obs.Gauge
	picks             map[string]*obs.Counter
	probeFailures     *obs.Counter
	ejections         *obs.Counter
	reinstatements    *obs.Counter
	integrityFailures *obs.Counter
}

func newMetrics(reg *obs.Registry, seeds []Member, tenants []string) *metrics {
	m := &metrics{
		reg:         reg,
		perBackend:  make(map[string]*backendMetrics, len(seeds)),
		tenantPicks: make(map[string]*obs.Counter, len(tenants)+1),
		tenantSheds: make(map[string]*obs.Counter, len(tenants)+1),
	}
	for _, t := range append([]string{qos.OtherTenant}, tenants...) {
		if _, dup := m.tenantPicks[t]; dup {
			continue
		}
		tl := obs.Label("tenant", t)
		m.tenantPicks[t] = reg.CounterLabeled("montsys_cluster_tenant_picks_total",
			"Routed backend attempts (primary, hedge, failover) by tenant.", tl)
		m.tenantSheds[t] = reg.CounterLabeled("montsys_cluster_tenant_sheds_total",
			"Backend attempts answered rate-limited or overloaded, by tenant.", tl)
	}
	m.latency = reg.Histogram("montsys_cluster_request_seconds",
		"End-to-end latency of successful cluster requests (feeds the hedge delay).")
	m.hedges = reg.Counter("montsys_cluster_hedges_total",
		"Hedge requests launched after the p99-derived delay.")
	m.hedgeWins = reg.Counter("montsys_cluster_hedge_wins_total",
		"Hedge requests that answered before the primary.")
	m.affinityHits = reg.Counter("montsys_cluster_affinity_hits_total",
		"Requests routed to their modulus's rendezvous-hash home backend.")
	m.affinitySpills = reg.Counter("montsys_cluster_affinity_spills_total",
		"Requests whose affinity home was overloaded and spilled to least-inflight.")
	m.keyhandleReqs = reg.Counter("montsys_cluster_keyhandle_requests_total",
		"Signing requests routed on the affinity plane by key handle rather than raw modulus.")
	m.failovers = reg.Counter("montsys_cluster_failovers_total",
		"Attempts moved to another backend after a failoverable error.")
	m.budgetDenied = reg.Counter("montsys_cluster_retry_budget_denied_total",
		"Hedges and overload retries refused by the retry budget.")
	m.members = reg.Gauge("montsys_cluster_members",
		"Backends in the routable member table (up or not).")
	m.joins = reg.CounterLabeled("montsys_cluster_membership_changes_total",
		"Membership changes applied, by kind.", obs.Label("kind", "join"))
	m.leaves = reg.CounterLabeled("montsys_cluster_membership_changes_total",
		"Membership changes applied, by kind.", obs.Label("kind", "leave"))
	m.hedgeZoneSkips = reg.Counter("montsys_cluster_hedge_zone_skips_total",
		"Hedge candidates skipped because their zone is absorbing failures.")
	for _, s := range seeds {
		m.backend(s.Addr)
	}
	return m
}

// backend returns the metric block for one backend address, creating
// and registering it on first sight — runtime joins mint their series
// here. obs.Registry registration is idempotent on (name, labels), so
// an address that leaves and rejoins resumes its existing series.
func (m *metrics) backend(addr string) *backendMetrics {
	m.mu.Lock()
	defer m.mu.Unlock()
	if bm, ok := m.perBackend[addr]; ok {
		return bm
	}
	reg := m.reg
	bl := obs.Label("backend", addr)
	bm := &backendMetrics{
		up: reg.GaugeLabeled("montsys_cluster_backend_up",
			"1 while the backend is in rotation, 0 while ejected.", bl),
		inflight: reg.GaugeLabeled("montsys_cluster_backend_inflight",
			"Requests the cluster currently has in flight on the backend.", bl),
		picks: make(map[string]*obs.Counter, len(pickReasons)),
		probeFailures: reg.CounterLabeled("montsys_cluster_probe_failures_total",
			"Health probes that failed or answered draining.", bl),
		ejections: reg.CounterLabeled("montsys_cluster_ejections_total",
			"Times the backend was taken out of rotation.", bl),
		reinstatements: reg.CounterLabeled("montsys_cluster_reinstatements_total",
			"Times a probe brought the backend back into rotation.", bl),
		integrityFailures: reg.CounterLabeled("montsys_cluster_integrity_failures_total",
			"ErrIntegrity answers from the backend (corrupted compute detected).", bl),
	}
	for _, r := range pickReasons {
		bm.picks[r] = reg.CounterLabeled("montsys_cluster_picks_total",
			"Routing decisions by backend and reason.",
			bl, obs.Label("reason", r))
	}
	m.perBackend[addr] = bm
	return bm
}

// tenantCounter folds unknown tenants onto the qos.OtherTenant series.
func tenantCounter(byTenant map[string]*obs.Counter, tenant string) *obs.Counter {
	if c, ok := byTenant[tenant]; ok {
		return c
	}
	return byTenant[qos.OtherTenant]
}

// tenantPick records one routed attempt against its tenant.
func (m *metrics) tenantPick(tenant string) { tenantCounter(m.tenantPicks, tenant).Inc() }

// tenantShed records one quota rejection (rate-limited or overloaded
// answer) against its tenant.
func (m *metrics) tenantShed(tenant string) { tenantCounter(m.tenantSheds, tenant).Inc() }

// pick records one routing decision.
func (m *metrics) pick(b *backend, reason string) {
	if c, ok := b.met.picks[reason]; ok {
		c.Inc()
	}
	switch reason {
	case "affinity":
		m.affinityHits.Inc()
	case "spill":
		m.affinitySpills.Inc()
	}
}
