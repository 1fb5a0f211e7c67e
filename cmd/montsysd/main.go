// Command montsysd is the network daemon: it boots a multi-core engine
// and serves it over TCP with the montsys binary protocol — the full
// client→network→engine→systolic-core path in one process.
//
// Usage:
//
//	montsysd [-listen :7077] [-workers N] [-kit cios|model|sim|big|auto]
//	         [-variant guarded|faithful] [-queue 0] [-cache 128]
//	         [-inflight 0] [-idle 2m] [-drain 30s] [-frame-timeout 10s]
//	         [-metrics :9090] [-trace 4096]
//	         [-wide-events stderr|stdout|PATH]
//	         [-slo-latency 500ms] [-slo-target 0.999]
//	         [-integrity] [-integrity-sample 1] [-integrity-recompute]
//	         [-fault-rate 0] [-fault-seed 1] [-fault-cores 0,2]
//	         [-sign-blinding=true] [-qos SPEC|@FILE]
//	         [-register lb1:7070,lb2:7070] [-advertise host:port] [-zone Z]
//
// -register turns on self-registration: the daemon announces itself to
// each named montsyslb with the wire protocol's join op (re-announced
// every 15s — registration is idempotent, so this doubles as liveness
// against a balancer restart) and sends a goodbye to each balancer when
// it starts draining, so its warm per-modulus contexts hand over
// gracefully instead of vanishing. -advertise is the address backends
// are told to dial (defaults to the listen address when it names a
// concrete host); -zone labels the daemon's failure domain for the
// balancer's zone-aware routing.
//
// -frame-timeout is the slow-loris guard: once a request frame's first
// byte arrives, the whole frame must arrive within the budget or the
// connection is cut (10s default; 0 disables). Idle connections between
// frames are governed by -idle alone.
//
// -qos arms the multi-tenant QoS plane: per-tenant token-bucket rate
// limits, weighted concurrency shares over the in-flight budget, and
// priority-lane scheduling in the engine (tenants' classes ride the
// wire). The spec grammar is
// "tenant:rate=R,burst=B,weight=W,class=C;..." with "*" as the default
// row, or "@path" to load the same grammar from a file. Per-tenant
// state is served on /quotaz (with -metrics) and the montsys_qos_*
// series land on /metrics.
//
// The daemon serves the signing ops (RSA keygen/sign/verify, ECDSA
// sign/batch-verify) alongside the compute ops. -sign-blinding=false
// turns off message/exponent blinding on the private-key paths — a lab
// configuration for side-channel trace capture (the SCA regression gate
// uses it as its positive control); production leaves it on.
//
// -integrity arms the engine's per-operation result verification (see
// engine.WithIntegrityCheck). -fault-rate > 0 wires in the
// deterministic fault injector — a chaos backend that corrupts its own
// results on purpose. With recompute on (the default) the damage is
// healed internally and only metrics show it; with
// -integrity-recompute=false corrupted jobs answer with the integrity
// wire code, which a cluster front end turns into a free failover —
// the configuration the CI chaos job runs.
//
// The daemon drains gracefully on SIGTERM/SIGINT: it stops accepting
// connections, answers requests that arrive mid-drain with the
// draining code, finishes everything already admitted (bounded by
// -drain), flushes, and exits 0. A second signal aborts the drain and
// tears down immediately.
//
// -kit picks the compute kit every core runs (cios, the default — the
// radix-2^64 CIOS fast path; model — the paper's closed-form cycle
// accounting, the paper-faithful opt-in; sim — the gate-level radix-2
// systolic array; big — the math/big oracle; auto — per-job
// microbenchmark-driven selection).
//
// With -metrics the observability endpoints are served too:
// /metrics carries the engine series and the server series
// (montsys_server_connections, montsys_server_inflight,
// montsys_server_requests_total{op,code}, montsys_server_request_seconds)
// on one page, because the server collects into the engine collector's
// registry. -metrics also arms the SLO plane: per-op availability and
// latency objectives (-slo-latency, -slo-target) with rolling 5m/1h
// burn rates on /metrics and the human /statusz page.
//
// Sampled requests — those arriving on the traced wire ops with the
// sampled bit set — additionally record server and engine spans into
// the /trace ring (joined by trace id to the caller's spans; merge the
// exports with cmd/tracecat) and, with -wide-events, emit one wide
// JSON log line per request per layer.
package main

import (
	"context"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"repro/internal/cryptosvc"
	"repro/internal/engine"
	"repro/internal/faults"
	"repro/internal/kits"
	"repro/internal/obs"
	"repro/internal/qos"
	"repro/internal/server"
	"repro/internal/systolic"
)

func main() {
	listen := flag.String("listen", ":7077", "serve the binary protocol on this address")
	workers := flag.Int("workers", 0, "engine worker cores (0 = GOMAXPROCS)")
	kitName := flag.String("kit", "cios", "compute kit: model | sim | cios | big | auto")
	variantName := flag.String("variant", "guarded", "array variant for the sim kit: guarded | faithful")
	queue := flag.Int("queue", 0, "engine queue depth (0 = engine default)")
	cache := flag.Int("cache", 128, "per-modulus context LRU size")
	inflight := flag.Int("inflight", 0, "max in-flight requests before ErrOverloaded (0 = 4× workers)")
	idle := flag.Duration("idle", 2*time.Minute, "close connections idle this long (0 disables)")
	drain := flag.Duration("drain", 30*time.Second, "graceful drain budget on SIGTERM")
	metricsAddr := flag.String("metrics", "", "serve /metrics, /statusz, /debug/pprof and /trace on this address")
	traceCap := flag.Int("trace", 4096, "span ring-buffer capacity for /trace (with -metrics)")
	wideDest := flag.String("wide-events", "", "wide-event request log destination: stderr | stdout | file path (empty disables)")
	sloLatency := flag.Duration("slo-latency", 500*time.Millisecond, "per-op latency SLO objective (with -metrics)")
	sloTarget := flag.Float64("slo-target", 0.999, "SLO success-ratio target for availability and latency objectives")
	integrity := flag.Bool("integrity", false, "verify every result before answering (quarantine + recompute on mismatch)")
	integritySample := flag.Float64("integrity-sample", 1, "fraction of exponentiations fully re-verified (with -integrity)")
	integrityRecompute := flag.Bool("integrity-recompute", true, "recompute corrupted jobs instead of answering with the integrity code")
	faultRate := flag.Float64("fault-rate", 0, "inject bit-flip faults into this fraction of core results (chaos testing)")
	faultSeed := flag.Int64("fault-seed", 1, "deterministic seed for -fault-rate")
	faultCores := flag.String("fault-cores", "", "comma-separated worker ids to fault (default all)")
	signBlinding := flag.Bool("sign-blinding", true, "blind the signing service's private-key paths (disable only for SCA lab capture)")
	qosSpec := flag.String("qos", "", "per-tenant QoS spec \"tenant:rate=R,burst=B,weight=W,class=C;...\" or @file (empty disables)")
	frameTimeout := flag.Duration("frame-timeout", 10*time.Second, "per-frame arrival budget once the first byte lands — slow-loris guard (0 disables)")
	register := flag.String("register", "", "comma-separated montsyslb addresses to self-register with (empty disables)")
	advertise := flag.String("advertise", "", "address to register as (default: the listen address, when concrete)")
	zone := flag.String("zone", "", "failure-domain label announced on registration")
	flag.Parse()

	fc := faultConfig{rate: *faultRate, seed: *faultSeed, cores: *faultCores,
		integrity: *integrity, sample: *integritySample, recompute: *integrityRecompute}
	oc := obsConfig{metricsAddr: *metricsAddr, traceCap: *traceCap, wideDest: *wideDest,
		sloLatency: *sloLatency, sloTarget: *sloTarget}
	rc := regConfig{balancers: *register, advertise: *advertise, zone: *zone}
	if err := run(*listen, *workers, *kitName, *variantName, *queue, *cache,
		*inflight, *idle, *drain, *frameTimeout, *signBlinding, *qosSpec, oc, fc, rc); err != nil {
		fmt.Fprintln(os.Stderr, "montsysd:", err)
		os.Exit(1)
	}
}

// obsConfig carries the observability flags into run.
type obsConfig struct {
	metricsAddr string
	traceCap    int
	wideDest    string
	sloLatency  time.Duration
	sloTarget   float64
}

// faultConfig carries the chaos/integrity flags into run.
type faultConfig struct {
	rate      float64
	seed      int64
	cores     string
	integrity bool
	sample    float64
	recompute bool
}

// engineOptions translates the fault/integrity flags into engine
// options: the fault injector simulating a flaky core, and the
// integrity checks that keep its corruption from reaching clients.
func (fc faultConfig) engineOptions() ([]engine.Option, error) {
	var opts []engine.Option
	if fc.rate > 0 {
		fOpts := []faults.Option{
			faults.WithRate(fc.rate),
			faults.WithSeed(fc.seed),
			faults.WithBitFlip(-1),
		}
		if fc.cores != "" {
			var ids []int
			for _, s := range strings.Split(fc.cores, ",") {
				id, err := strconv.Atoi(strings.TrimSpace(s))
				if err != nil {
					return nil, fmt.Errorf("bad -fault-cores entry %q: %w", s, err)
				}
				ids = append(ids, id)
			}
			fOpts = append(fOpts, faults.WithCores(ids...))
		}
		opts = append(opts, engine.WithFaultInjector(faults.New(fOpts...)))
	}
	if fc.integrity {
		opts = append(opts,
			engine.WithIntegrityCheck(fc.sample),
			engine.WithIntegrityRecompute(fc.recompute))
	}
	return opts, nil
}

// regConfig carries the self-registration flags into run.
type regConfig struct {
	balancers string // comma-separated montsyslb addresses
	advertise string // address to register as
	zone      string // failure-domain label
}

// registrar keeps the daemon registered with one balancer: an immediate
// join, re-announced every 15s (joins are idempotent, so the cadence
// doubles as liveness against balancer restarts), and a goodbye when
// the daemon starts draining.
type registrar struct {
	clients []*server.Client
	addrs   []string
	adv     string
	cancel  context.CancelFunc
	wg      sync.WaitGroup
}

// startRegistrar resolves the advertised address and begins announcing
// to every balancer in rc. Returns nil (no-op) when -register is empty.
func startRegistrar(rc regConfig, lnAddr net.Addr) (*registrar, error) {
	var lbs []string
	for _, a := range strings.Split(rc.balancers, ",") {
		if a = strings.TrimSpace(a); a != "" {
			lbs = append(lbs, a)
		}
	}
	if len(lbs) == 0 {
		return nil, nil
	}
	adv := rc.advertise
	if adv == "" {
		adv = lnAddr.String()
		host, _, err := net.SplitHostPort(adv)
		if err != nil || host == "" {
			return nil, fmt.Errorf("-register needs -advertise: listen address %q has no host", adv)
		}
		if ip := net.ParseIP(host); ip != nil && ip.IsUnspecified() {
			return nil, fmt.Errorf("-register needs -advertise: listening on the unspecified address %q", adv)
		}
	}
	ctx, cancel := context.WithCancel(context.Background())
	r := &registrar{addrs: lbs, adv: adv, cancel: cancel}
	for _, lb := range lbs {
		cl := server.Dial(lb)
		r.clients = append(r.clients, cl)
		r.wg.Add(1)
		go func(lb string, cl *server.Client) {
			defer r.wg.Done()
			announced := false
			t := time.NewTicker(15 * time.Second)
			defer t.Stop()
			for {
				jctx, jcancel := context.WithTimeout(ctx, 5*time.Second)
				n, err := cl.Join(jctx, adv, rc.zone)
				jcancel()
				if err == nil && !announced {
					announced = true
					fmt.Printf("montsysd: registered with %s as %s (%d members)\n", lb, adv, n)
				}
				select {
				case <-ctx.Done():
					return
				case <-t.C:
				}
			}
		}(lb, cl)
	}
	return r, nil
}

// goodbye deregisters from every balancer (best effort, bounded) and
// stops the announce loops. Called at the start of a drain, BEFORE the
// server stops answering: the balancers pull this daemon out of new
// routing while its in-flight work completes, and its warm contexts
// hand over through the balancers' handover window.
func (r *registrar) goodbye() {
	if r == nil {
		return
	}
	r.cancel()
	r.wg.Wait()
	for i, cl := range r.clients {
		ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
		if _, err := cl.Goodbye(ctx, r.adv); err != nil {
			fmt.Fprintf(os.Stderr, "montsysd: goodbye to %s: %v\n", r.addrs[i], err)
		}
		cancel()
		cl.Close()
	}
}

func run(listen string, workers int, kitName, variantName string, queue, cache,
	inflight int, idle, drain, frameTimeout time.Duration, signBlinding bool, qosSpec string,
	oc obsConfig, fc faultConfig, rc regConfig) error {
	kit, err := kits.Parse(kitName)
	if err != nil {
		return err
	}
	var variant systolic.Variant
	switch variantName {
	case "guarded":
		variant = systolic.Guarded
	case "faithful":
		variant = systolic.Faithful
	default:
		return fmt.Errorf("unknown variant %q", variantName)
	}

	wide, wideFile, err := obs.OpenWideEvents(oc.wideDest)
	if err != nil {
		return err
	}
	if wideFile != nil {
		defer wideFile.Close()
	}

	col := obs.NewCollector(obs.WithTracing(oc.traceCap), obs.WithWideEvents(wide))
	col.Tracer().SetProcess("montsysd")
	engOpts := []engine.Option{
		engine.WithKit(kit),
		engine.WithArrayVariant(variant),
		engine.WithCtxCacheSize(cache),
		engine.WithObserver(col),
	}
	if workers > 0 {
		engOpts = append(engOpts, engine.WithWorkers(workers))
	}
	if queue > 0 {
		engOpts = append(engOpts, engine.WithQueueDepth(queue))
	}
	fcOpts, err := fc.engineOptions()
	if err != nil {
		return err
	}
	engOpts = append(engOpts, fcOpts...)
	var plane *qos.Plane
	if qosSpec != "" {
		qcfg, err := qos.ParseSpec(qosSpec)
		if err != nil {
			return fmt.Errorf("-qos: %w", err)
		}
		// The concurrency shares divide the same in-flight budget the
		// server's admission gate enforces (mirrors its 4×workers
		// default; the plane must exist before the engine so the lane
		// scheduler reports sheds and depths into its metrics).
		w := workers
		if w <= 0 {
			w = runtime.GOMAXPROCS(0)
		}
		budget := inflight
		if budget <= 0 {
			budget = 4 * w
		}
		plane = qos.NewPlane(qcfg, budget, col.Registry())
		engOpts = append(engOpts, engine.WithQoSObserver(plane))
	}
	eng, err := engine.New(engOpts...)
	if err != nil {
		return err
	}
	defer eng.Close()
	col.SetEngineInfo(eng.Workers(), kit.String(), fmt.Sprint(variant))

	srvOpts := []server.Option{
		server.WithIdleTimeout(idle),
		server.WithFrameTimeout(frameTimeout),
		server.WithRegistry(col.Registry()),
		server.WithTracer(col.Tracer()),
		server.WithWideEvents(wide),
		server.WithSignService(cryptosvc.New(eng, cryptosvc.WithBlinding(signBlinding))),
	}
	if inflight > 0 {
		srvOpts = append(srvOpts, server.WithMaxInflight(inflight))
	}
	// A nil *qos.Plane must reach the mux as a nil obs.Quotaz, not a
	// typed nil, so /quotaz answers 404 when -qos is off.
	var quotaz obs.Quotaz
	if plane != nil {
		srvOpts = append(srvOpts, server.WithQoS(plane))
		quotaz = plane
	}
	srv, err := server.NewServer(eng, srvOpts...)
	if err != nil {
		return err
	}

	if oc.metricsAddr != "" {
		mln, err := net.Listen("tcp", oc.metricsAddr)
		if err != nil {
			return fmt.Errorf("metrics listener: %w", err)
		}
		slo := obs.NewSLOTracker(col.Registry(), 0)
		srv.RegisterSLOs(slo, oc.sloLatency, oc.sloTarget)
		slo.Start()
		defer slo.Close()
		fmt.Printf("montsysd: observability on http://%s/ (/metrics, /statusz, /quotaz, /debug/pprof/, /trace)\n", mln.Addr())
		go func() {
			if err := http.Serve(mln, obs.NewQoSMux(col.Registry(), col.Tracer(), slo, quotaz)); err != nil {
				fmt.Fprintln(os.Stderr, "montsysd: metrics server:", err)
			}
		}()
	}

	ln, err := net.Listen("tcp", listen)
	if err != nil {
		return err
	}
	fmt.Printf("montsysd: serving on %s (workers=%d kit=%s)\n", ln.Addr(), eng.Workers(), kit)

	reg, err := startRegistrar(rc, ln.Addr())
	if err != nil {
		ln.Close()
		return err
	}

	// First SIGTERM/SIGINT starts the graceful drain; a second aborts it.
	sigCtx, stop := signal.NotifyContext(context.Background(), syscall.SIGTERM, syscall.SIGINT)
	defer stop()

	serveErr := make(chan error, 1)
	go func() { serveErr <- srv.Serve(ln) }()

	select {
	case err := <-serveErr:
		return err
	case <-sigCtx.Done():
	}
	stop() // restore default handling: a second signal kills the drain
	// Deregister first: the balancers stop routing new work here while
	// the drain below finishes what is already admitted.
	reg.goodbye()
	fmt.Printf("montsysd: draining (budget %s)...\n", drain)
	ctx, cancel := context.WithTimeout(context.Background(), drain)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		fmt.Fprintln(os.Stderr, "montsysd: drain incomplete:", err)
	} else {
		fmt.Println("montsysd: drained cleanly")
	}
	return <-serveErr
}
