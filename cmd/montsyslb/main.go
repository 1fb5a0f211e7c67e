// Command montsyslb is the cluster tier's front door: a load-balancing
// proxy that speaks the montsysd wire protocol on one side and routes
// to a fleet of montsysd backends on the other. Clients keep using the
// ordinary Client — the proxy is indistinguishable from a very
// reliable, very large montsysd.
//
// Usage:
//
//	montsyslb -backends host1:7077[=zone],host2:7077[,...] | @FILE
//	          [-listen :7070] [-inflight 256] [-idle 2m] [-drain 30s]
//	          [-probe 1s] [-affinity] [-hedge] [-budget 0.1] [-burst 16]
//	          [-integrity-eject 3] [-metrics :9091] [-trace 4096]
//	          [-wide-events stderr|stdout|PATH]
//	          [-slo-latency 500ms] [-slo-target 0.999]
//	          [-qos SPEC|@FILE] [-frame-timeout 10s]
//	          [-zone Z] [-max-members 64] [-backends-watch 2s]
//
// Membership is dynamic. -backends seeds the pool — inline
// "addr[=zone]" entries, or "@path" to load the same grammar from a
// file (one entry per line, #-comments) — and the pool then changes at
// runtime three ways: backends started with montsysd -register
// announce themselves over the wire's join op (and say goodbye when
// they drain); operators edit the @file, which is polled every
// -backends-watch and diffed against the live pool (0 disables the
// watch); and -max-members bounds how large runtime joins can grow the
// table. A joined backend enters rotation only after its first
// successful health probe, so a bogus registration costs nothing.
//
// Membership changes take effect at once. Rendezvous hashing moves
// only the moduli whose home changed, and each of those pays one
// inline Montgomery-context build on its new home — about one F4
// exponentiation on the CIOS kit. A departing backend is retired on
// the spot: its montsys_cluster_backend_up series reads 0 and requests
// in flight on it fail over for free.
//
// -zone names this balancer's failure domain: ties in least-loaded
// routing prefer same-zone backends (labeled via "addr=zone" or the
// join op), and hedges never launch into a zone that is visibly
// absorbing failures.
//
// -frame-timeout arms the slow-loris guard on the proxy's own front
// door, exactly as in montsysd.
//
// -qos arms the proxy's own QoS plane: the same
// "tenant:rate=R,burst=B,weight=W,class=C;..." (or @file) grammar as
// montsysd, enforced at the proxy's admission so one tenant's flood is
// rejected before it can occupy routing capacity. Tenant identity is
// forwarded to the backends on every routed, hedged and failover
// attempt; best-effort traffic is never hedged; per-tenant pick/shed
// counters and the /quotaz page (with -metrics) show who is using —
// and who is abusing — the fleet.
//
// Routing (see internal/cluster): requests are routed to the
// rendezvous-hash home of their modulus so repeat-modulus traffic hits
// warm per-modulus context caches on the backends (-affinity=false
// falls back to least-inflight everywhere); backends are health-probed
// with the wire Ping op, and failed probes and live transport failures
// feed one streak per backend that ejects it (as does one draining
// answer), while only a probe reinstates it, with jittered backoff;
// slow requests are hedged onto a second
// backend after a p99-derived delay; draining/dead backends fail over,
// with a global retry budget capping amplification. Integrity answers
// (a backend admitting its compute was corrupted) fail over for free
// and, after -integrity-eject consecutive ones from the same backend,
// take that backend out of rotation until a probe clears it.
//
// Every op routes through the proxy the same way: its front door
// decodes the request (rejecting a malformed one before it can reach a
// backend connection), forwards the body bytes unchanged with the
// failover/hedging machinery above, and passes the backend's answer
// back undecoded, so application errors reach the client exactly as
// the backend wrote them. The signing ops — RSA keygen/sign/verify and
// ECDSA sign/batch-verify — route on the affinity plane by *key
// handle* (a fingerprint of the key, never raw private material) so
// repeat traffic for one key lands on one warm backend
// (montsys_cluster_keyhandle_requests_total counts these).
//
// On SIGTERM/SIGINT the proxy itself drains gracefully, exactly like
// montsysd: stop accepting, answer new requests with the draining
// code, finish what's admitted (bounded by -drain), exit 0.
//
// With -metrics, /metrics serves the cluster series (backend_up,
// picks_total{backend,reason}, hedges_total, ejections_total,
// affinity_hits_total, ...) and the proxy's own server series on one
// page; scraped next to the backends' pages the whole path client →
// balancer → backend → engine → systolic core is visible. The same
// address serves /statusz (per-op SLO burn rates, -slo-latency /
// -slo-target) and /trace — the balancer's slice of every sampled
// request's trace tree: a proxy server span, one route-attempt span
// per backend try (pick reason, hedge race outcome, budget spend) and
// the backend call spans under them, all joined by trace id to the
// spans the client and the backends record themselves (merge with
// cmd/tracecat). -wide-events renders each of those spans as one JSON
// request-log line (layers "server", "route" and "client").
package main

import (
	"context"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"repro/internal/cluster"
	"repro/internal/obs"
	"repro/internal/qos"
	"repro/internal/server"
)

func main() {
	listen := flag.String("listen", ":7070", "serve the binary protocol on this address")
	backends := flag.String("backends", "", "comma-separated montsysd addresses (required)")
	inflight := flag.Int("inflight", 256, "max in-flight requests before the overloaded fast-fail")
	idle := flag.Duration("idle", 2*time.Minute, "close client connections idle this long (0 disables)")
	drain := flag.Duration("drain", 30*time.Second, "graceful drain budget on SIGTERM")
	probe := flag.Duration("probe", time.Second, "backend health-probe interval")
	affinity := flag.Bool("affinity", true, "route by modulus affinity (rendezvous hashing)")
	hedge := flag.Bool("hedge", true, "hedge slow requests onto a second backend")
	budget := flag.Float64("budget", 0.1, "retry-budget ratio (tokens minted per request)")
	burst := flag.Int("burst", 16, "retry-budget burst (token cap)")
	integrityEject := flag.Int("integrity-eject", 3, "consecutive integrity failures before ejecting a backend (0 disables)")
	metricsAddr := flag.String("metrics", "", "serve /metrics, /statusz and /trace on this address")
	traceCap := flag.Int("trace", 4096, "span ring-buffer capacity for /trace")
	wideDest := flag.String("wide-events", "", "wide-event request log destination: stderr | stdout | file path (empty disables)")
	sloLatency := flag.Duration("slo-latency", 500*time.Millisecond, "per-op latency SLO objective (with -metrics)")
	sloTarget := flag.Float64("slo-target", 0.999, "SLO success-ratio target for availability and latency objectives")
	qosSpec := flag.String("qos", "", "per-tenant QoS spec \"tenant:rate=R,burst=B,weight=W,class=C;...\" or @file (empty disables)")
	frameTimeout := flag.Duration("frame-timeout", 10*time.Second, "per-frame arrival budget once the first byte lands — slow-loris guard (0 disables)")
	zone := flag.String("zone", "", "this balancer's failure-domain label (zone-aware routing)")
	maxMembers := flag.Int("max-members", 64, "member-table bound for runtime joins")
	backendsWatch := flag.Duration("backends-watch", 2*time.Second, "poll interval for -backends @file changes (0 disables)")
	flag.Parse()

	oc := obsConfig{metricsAddr: *metricsAddr, traceCap: *traceCap, wideDest: *wideDest,
		sloLatency: *sloLatency, sloTarget: *sloTarget}
	mc := memConfig{zone: *zone, maxMembers: *maxMembers, watch: *backendsWatch}
	if err := run(*listen, *backends, *inflight, *idle, *drain, *probe, *frameTimeout,
		*affinity, *hedge, *budget, *burst, *integrityEject, *qosSpec, oc, mc); err != nil {
		fmt.Fprintln(os.Stderr, "montsyslb:", err)
		os.Exit(1)
	}
}

// memConfig carries the membership flags into run.
type memConfig struct {
	zone       string
	maxMembers int
	watch      time.Duration
}

// obsConfig carries the observability flags into run.
type obsConfig struct {
	metricsAddr string
	traceCap    int
	wideDest    string
	sloLatency  time.Duration
	sloTarget   float64
}

// seedMembers resolves the -backends flag: "@path" loads a member
// file, anything else parses as an inline "addr[=zone]" list. Returns
// the members and the watched file path ("" when inline).
func seedMembers(backends string) ([]cluster.Member, string, error) {
	if path, ok := strings.CutPrefix(backends, "@"); ok {
		ms, err := cluster.LoadMemberFile(path)
		return ms, path, err
	}
	ms, err := cluster.ParseMemberList(backends)
	return ms, "", err
}

// memberStrings renders members back to the "addr[=zone]" form
// cluster.New seeds from.
func memberStrings(ms []cluster.Member) []string {
	out := make([]string, len(ms))
	for i, m := range ms {
		out[i] = m.Addr
		if m.Zone != "" {
			out[i] += "=" + m.Zone
		}
	}
	return out
}

// watchMemberFile polls a -backends @file and reconciles the live pool
// against it: entries added to the file join (entering rotation after
// their first probe), entries removed say goodbye (retired at once). The reconciler only manages members it sourced from
// the file — a backend that arrived through OpJoin self-registration is
// never goodbyed just because the file doesn't mention it, so the two
// control planes compose instead of fighting. Join/goodbye are
// idempotent, so a pass that races a self-registration is harmless.
func watchMemberFile(ctx context.Context, cl *cluster.Cluster, path string,
	every time.Duration, seeds []cluster.Member) {
	t := time.NewTicker(every)
	defer t.Stop()
	var lastErr string
	prev := make(map[string]bool, len(seeds)) // addrs the file was last known to claim
	for _, m := range seeds {
		prev[m.Addr] = true
	}
	for {
		select {
		case <-ctx.Done():
			return
		case <-t.C:
		}
		desired, err := cluster.LoadMemberFile(path)
		if err != nil {
			if msg := err.Error(); msg != lastErr {
				lastErr = msg
				fmt.Fprintln(os.Stderr, "montsyslb: backends file:", err)
			}
			continue
		}
		lastErr = ""
		want := make(map[string]string, len(desired))
		for _, m := range desired {
			want[m.Addr] = m.Zone
		}
		cur := make(map[string]string)
		for _, m := range cl.Members() {
			cur[m.Addr] = m.Zone
		}
		for addr, zone := range want {
			if z, ok := cur[addr]; !ok || z != zone {
				if _, err := cl.Join(ctx, addr, zone); err != nil {
					fmt.Fprintf(os.Stderr, "montsyslb: join %s: %v\n", addr, err)
				}
			}
		}
		for addr := range prev {
			if _, ok := want[addr]; !ok {
				if _, err := cl.Goodbye(ctx, addr); err != nil {
					fmt.Fprintf(os.Stderr, "montsyslb: goodbye %s: %v\n", addr, err)
				}
			}
		}
		prev = make(map[string]bool, len(want))
		for addr := range want {
			prev[addr] = true
		}
	}
}

func run(listen, backends string, inflight int, idle, drain, probe, frameTimeout time.Duration,
	affinity, hedge bool, budget float64, burst, integrityEject int, qosSpec string,
	oc obsConfig, mc memConfig) error {
	members, watchPath, err := seedMembers(backends)
	if err != nil {
		return fmt.Errorf("-backends: %w", err)
	}
	if len(members) == 0 {
		return fmt.Errorf("no backends given (-backends host1:7077,host2:7077 or @file)")
	}
	addrs := memberStrings(members)

	wide, wideFile, err := obs.OpenWideEvents(oc.wideDest)
	if err != nil {
		return err
	}
	if wideFile != nil {
		defer wideFile.Close()
	}
	tracer := obs.NewTracer(oc.traceCap)
	tracer.SetProcess("montsyslb")
	tracer.SetWideEvents(wide)

	registry := obs.NewRegistry()
	var plane *qos.Plane
	clOpts := []cluster.Option{
		cluster.WithRegistry(registry),
		cluster.WithProbeInterval(probe),
		cluster.WithAffinity(affinity),
		cluster.WithHedging(hedge),
		cluster.WithRetryBudget(budget, burst),
		cluster.WithIntegrityEjectThreshold(integrityEject),
		cluster.WithTracer(tracer),
		cluster.WithZone(mc.zone),
		cluster.WithMaxMembers(mc.maxMembers),
	}
	if qosSpec != "" {
		qcfg, err := qos.ParseSpec(qosSpec)
		if err != nil {
			return fmt.Errorf("-qos: %w", err)
		}
		plane = qos.NewPlane(qcfg, inflight, registry)
		clOpts = append(clOpts, cluster.WithTenants(qcfg.TenantNames()))
	}
	cl, err := cluster.New(addrs, clOpts...)
	if err != nil {
		return err
	}
	defer cl.Close()

	srvOpts := []server.Option{
		server.WithMaxInflight(inflight),
		server.WithIdleTimeout(idle),
		server.WithFrameTimeout(frameTimeout),
		server.WithRegistry(registry),
		server.WithTracer(tracer),
	}
	// A nil *qos.Plane must reach the mux as a nil obs.Quotaz, not a
	// typed nil, so /quotaz answers 404 when -qos is off.
	var quotaz obs.Quotaz
	if plane != nil {
		srvOpts = append(srvOpts, server.WithQoS(plane))
		quotaz = plane
	}
	srv, err := server.NewForwardingServer(cl, srvOpts...)
	if err != nil {
		return err
	}

	if oc.metricsAddr != "" {
		mln, err := net.Listen("tcp", oc.metricsAddr)
		if err != nil {
			return fmt.Errorf("metrics listener: %w", err)
		}
		slo := obs.NewSLOTracker(registry, 0)
		srv.RegisterSLOs(slo, oc.sloLatency, oc.sloTarget)
		slo.Start()
		defer slo.Close()
		fmt.Printf("montsyslb: observability on http://%s/ (/metrics, /statusz, /quotaz, /trace)\n", mln.Addr())
		go func() {
			if err := http.Serve(mln, obs.NewMux(registry, tracer, slo, quotaz)); err != nil {
				fmt.Fprintln(os.Stderr, "montsyslb: metrics server:", err)
			}
		}()
	}

	ln, err := net.Listen("tcp", listen)
	if err != nil {
		return err
	}
	fmt.Printf("montsyslb: balancing %s on %s (affinity=%v hedge=%v)\n",
		strings.Join(addrs, ","), ln.Addr(), affinity, hedge)

	// First SIGTERM/SIGINT starts the graceful drain; a second aborts it.
	sigCtx, stop := signal.NotifyContext(context.Background(), syscall.SIGTERM, syscall.SIGINT)
	defer stop()

	if watchPath != "" && mc.watch > 0 {
		go watchMemberFile(sigCtx, cl, watchPath, mc.watch, members)
	}

	serveErr := make(chan error, 1)
	go func() { serveErr <- srv.Serve(ln) }()

	select {
	case err := <-serveErr:
		return err
	case <-sigCtx.Done():
	}
	stop()
	fmt.Printf("montsyslb: draining (budget %s)...\n", drain)
	ctx, cancel := context.WithTimeout(context.Background(), drain)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		fmt.Fprintln(os.Stderr, "montsyslb: drain incomplete:", err)
	} else {
		fmt.Println("montsyslb: drained cleanly")
	}
	return <-serveErr
}
