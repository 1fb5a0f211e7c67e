package server

import (
	"time"

	"repro/internal/obs"
)

// metrics is the server's instrument block, pre-registered on an
// obs.Registry so the request hot path never touches the registry lock.
// Sharing the registry with an engine's obs.Collector (see
// WithServerRegistry) puts the server and engine series on one /metrics
// page:
//
//	montsys_server_connections              open connections (gauge)
//	montsys_server_inflight                 admitted, unfinished requests (gauge)
//	montsys_server_requests_total{op,code}  finished requests (counter)
//	montsys_server_request_seconds{op}      admit-to-respond latency histogram
//	montsys_server_drains_total             graceful drains begun (counter)
//	montsys_server_slowloris_closed_total   conns closed by the frame-progress deadline (counter)
//	montsys_server_oversize_frames_total    frames rejected by the size cap (counter)
type metrics struct {
	connections     *obs.Gauge
	inflight        *obs.Gauge
	requests        map[Op]map[Code]*obs.Counter
	latency         map[Op]*obs.Histogram
	drains          *obs.Counter
	slowLorisCloses *obs.Counter
	oversizeFrames  *obs.Counter
}

func newMetrics(reg *obs.Registry) *metrics {
	m := &metrics{
		requests: make(map[Op]map[Code]*obs.Counter, len(opTable)),
		latency:  make(map[Op]*obs.Histogram, len(opTable)),
	}
	m.connections = reg.Gauge("montsys_server_connections",
		"Currently open client connections.")
	m.inflight = reg.Gauge("montsys_server_inflight",
		"Requests admitted and not yet responded to.")
	m.drains = reg.Counter("montsys_server_drains_total",
		"Graceful drains begun (Shutdown calls).")
	m.slowLorisCloses = reg.Counter("montsys_server_slowloris_closed_total",
		"Connections closed because a started frame missed its progress deadline.")
	m.oversizeFrames = reg.Counter("montsys_server_oversize_frames_total",
		"Request frames rejected by the size cap with CodeProtocol.")
	for i, d := range opTable {
		if d.name == "" {
			continue
		}
		op := Op(i)
		m.latency[op] = reg.HistogramLabeled("montsys_server_request_seconds",
			"Admission-to-response latency of finished requests.",
			obs.Label("op", d.name))
		m.requests[op] = make(map[Code]*obs.Counter, len(codeTable))
		for _, c := range codeTable {
			m.requests[op][c.code] = reg.CounterLabeled("montsys_server_requests_total",
				"Requests finished, by op and response code.",
				obs.Label("op", d.name), obs.Label("code", c.name))
		}
	}
	return m
}

// sloBad classifies the codes that spend a server availability error
// budget: failures the serving side owns. Caller mistakes (bad
// operands, protocol violations), caller cancellations and planned
// drains answer with an error but are not the server's unreliability,
// so they don't burn budget.
func sloBad(c Code) bool {
	switch c {
	case CodeOverloaded, CodeEngineClosed, CodeDeadline,
		CodeIntegrity, CodeBackendDown, CodeInternal:
		return true
	}
	return false
}

// RegisterSLOs registers this server's objectives on t. Per service op
// — every op that goes through admission; pings and membership ops are
// probes and control plane, not service — it adds one availability objective (fraction of requests
// answering without a server-owned failure code, see sloBad) and one
// latency objective (fraction of requests answering within
// latencyObjective; the bound effectively rounds up to the histogram's
// enclosing power-of-two bucket). Both use the same target (e.g.
// 0.999). The sources read the request counters and latency histograms
// already collected — call once after NewServer, then t.Start().
func (s *Server) RegisterSLOs(t *obs.SLOTracker, latencyObjective time.Duration, target float64) {
	m := s.met
	for i := range opTable {
		d := &opTable[i]
		if d.name == "" || d.inline {
			continue
		}
		op := Op(i)
		byCode := m.requests[op]
		t.AddObjective(d.name+"_availability",
			"requests answered without a server-owned failure code",
			target, func() (total, bad int64) {
				for code, ctr := range byCode {
					v := ctr.Value()
					total += v
					if sloBad(code) {
						bad += v
					}
				}
				return total, bad
			})
		hist := m.latency[op]
		bound := latencyObjective.Nanoseconds()
		t.AddObjective(d.name+"_latency",
			"requests answered within "+latencyObjective.String(),
			target, func() (total, bad int64) {
				snap := hist.Snapshot()
				return snap.Count, snap.Count - snap.CountAtOrBelow(bound)
			})
	}
}

// finish records one finished request. Unknown ops (which only a
// malformed frame can produce) are folded onto OpModExp's protocol
// counter rather than dropped.
func (m *metrics) finish(op Op, code Code, elapsed time.Duration) {
	if _, ok := m.requests[op]; !ok {
		op = OpModExp
	}
	if _, ok := m.requests[op][code]; !ok {
		code = CodeInternal
	}
	m.requests[op][code].Inc()
	m.latency[op].ObserveDuration(elapsed)
}
