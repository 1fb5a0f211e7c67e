// Command loadgen hammers the multi-core engine with a mixed RSA-style
// modexp workload and prints a throughput/latency table per worker
// count, plus the engine's own stats line. It is the quickest way to
// see the replicated-core scaling story (and, on one core, the
// scheduling overhead floor) on real hardware.
//
// Usage:
//
//	loadgen [-workers 1,2,4,8] [-jobs 200] [-bits 512,1024] [-keys 4]
//	        [-kit cios,model,big,auto] [-variant guarded|faithful]
//	        [-exp full|f4] [-queue 0] [-timeout 0]
//	        [-listen :9090] [-linger 0] [-trace 4096] [-trace-sample 0]
//	        [-connect host:7077] [-clients 8] [-retries 3]
//	        [-tolerate integrity,overloaded] [-integrity]
//	        [-fault-rate 0] [-fault-seed 1] [-fault-cores 0]
//	        [-scenario modexp|sign|tenants|soak]
//	        [-duration 60s] [-adversaries 4]
//
// -scenario soak is the composed robustness run (remote only): mixed
// tenants hammer the fleet closed-loop for -duration with Zipf-skewed
// moduli while -adversaries hostile connections attack the same front
// door — slow-loris byte dribblers and malformed-frame senders. The
// scenario is built to run while the fleet churns underneath it
// (backends joining, leaving, being killed -9; see scripts/soak.sh):
// the verdict line demands zero wrong answers from anyone, zero
// client-visible errors for the well-behaved interactive tenant, and
// no windowed-p99 cliff across membership changes. See soak.go.
//
// -scenario tenants runs the multi-tenant isolation experiment (remote
// only): three tenants — a well-behaved interactive one, a hostile one
// flooding at 10× its quota, and best-effort bulk — share the fleet
// through the servers' QoS plane, moduli drawn Zipf-skewed so hot keys
// contend. The run prints per-tenant goodput, p99, and rejection
// counts, and fails if the well-behaved tenant's error rate exceeds
// its budget — the isolation assertion CI runs live. See tenants.go.
//
// -scenario sign drives the signing service instead of raw modexp
// (remote only — signing is a wire surface): RSA keys are generated
// over the wire (deterministic seeds), every job is a blinded RSA-CRT
// sign whose signature is verified client-side with math/big — a wrong
// signature is always fatal, like a wrong modexp answer — and every
// eighth job adds an ECDSA sign whose signature joins a final
// batch-verify call that must answer all-OK. See sign.go.
//
// -kit takes a comma-separated compute-kit list (model | sim | cios |
// big | auto; default cios, the radix-2^64 fast path the daemons serve
// on) and sweeps every (kit, workers) combination, so one run compares
// the paper-faithful radix-2 path (model) against the radix-2^64 CIOS
// fast path, the math/big oracle and the auto-selector side by side —
// the source of BENCH_kits.json. Rows are labelled per kit; under
// `auto` the stats line's kit_* counters show the selector's per-job
// choices.
//
// Each sweep point drives the engine closed-loop from 2×workers
// submitter goroutines, measuring every job's submit→finish latency.
// Every result is self-checked against math/big; the run aborts on any
// mismatch — a wrong answer is always fatal, no flag can tolerate it.
// Ctrl-C (or SIGTERM) cancels the root context, which interrupts a
// sweep mid-flight and reports the partial point's error instead of
// hanging.
//
// Server-side errors are classified (integrity, overloaded, draining,
// backend_down, protocol, ...) and counted per class. By default any
// error aborts the run; -tolerate takes a comma-separated class list
// whose members are counted and skipped instead, and the per-class
// tally is printed at the end — chaos runs drive a faulty fleet with
// `-tolerate integrity` and then assert the integrity count (and every
// self-check) says zero wrong answers reached the client.
//
// In local (in-process) mode, -fault-rate/-fault-seed/-fault-cores
// wire the deterministic fault injector into the sweep engines and
// -integrity/-integrity-sample/-integrity-recompute arm the engine's
// result verification, so the whole chaos story can be rehearsed
// without a network.
//
// With -connect the same workload is fired at remote montsysd (or
// montsyslb) instances over the binary wire protocol instead of an
// in-process engine: -clients concurrent submitters share pooled,
// pipelined wire clients, each call retried per the client's backoff
// policy, and the table reports the round-trip
// (client→network→engine→core) latency distribution. -connect takes a
// comma-separated address list and spreads jobs across the addresses
// round-robin, so a backend fleet can be driven directly — no proxy
// needed — as well as through montsyslb.
//
// With -listen the sweep can be watched live: a shared observability
// collector is attached to every sweep engine and served over HTTP —
// Prometheus text-format /metrics, expvar, /debug/pprof/* (attach
// `go tool pprof host:port/debug/pprof/profile` mid-sweep), and a
// /trace Chrome trace-event export of the last -trace job spans that
// opens in Perfetto. -linger keeps the process (and the endpoints)
// alive after the sweep so the final state can still be scraped.
//
// -trace-sample S mints a root trace context for fraction S of jobs:
// sampled requests travel the traced wire ops end to end, so the
// /trace exports of loadgen, montsyslb and every montsysd each hold
// their slice of the same trace tree (merge with cmd/tracecat). When a
// sampled request fails, loadgen prints its trace id, which greps
// straight into every process's wide-event log and trace export.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"math/big"
	"math/rand"
	"net"
	"net/http"
	"os"
	"os/signal"
	"sort"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"repro/internal/engine"
	"repro/internal/errs"
	"repro/internal/faults"
	"repro/internal/kits"
	"repro/internal/obs"
	"repro/internal/server"
	"repro/internal/systolic"
)

func main() {
	workersList := flag.String("workers", "1,2,4,8", "comma-separated worker counts to sweep")
	jobs := flag.Int("jobs", 200, "jobs per sweep point")
	bitsList := flag.String("bits", "512,1024", "comma-separated modulus bit lengths, mixed round-robin")
	keys := flag.Int("keys", 4, "distinct moduli per bit length (exercises the context LRU)")
	kitList := flag.String("kit", "cios", "comma-separated compute kits to sweep: model | sim | cios | big | auto")
	variantName := flag.String("variant", "guarded", "array variant for the sim kit: guarded | faithful")
	expKind := flag.String("exp", "full", "exponent shape: full (private-key-size) | f4 (65537)")
	queue := flag.Int("queue", 0, "submission queue depth (0 = engine default)")
	timeout := flag.Duration("timeout", 0, "overall deadline per sweep point (0 = none)")
	seed := flag.Int64("seed", 1, "PRNG seed")
	listen := flag.String("listen", "", "serve /metrics, /debug/pprof and /trace on this address (e.g. :9090)")
	linger := flag.Duration("linger", 0, "keep serving the observability endpoints this long after the sweep")
	traceCap := flag.Int("trace", 4096, "span ring-buffer capacity for /trace (with -listen)")
	traceSample := flag.Float64("trace-sample", 0, "fraction of jobs to trace end to end (0 disables, 1 every job)")
	connect := flag.String("connect", "", "drive remote montsysd/montsyslb instance(s) at this comma-separated address list instead of an in-process engine")
	clients := flag.Int("clients", 8, "concurrent submitters in -connect mode")
	retries := flag.Int("retries", 3, "client retry budget per call in -connect mode")
	tolerate := flag.String("tolerate", "", "comma-separated error classes to count instead of abort (e.g. integrity,overloaded)")
	integrity := flag.Bool("integrity", false, "local mode: verify every result inside the engine")
	integritySample := flag.Float64("integrity-sample", 1, "local mode: fraction of exponentiations fully re-verified")
	integrityRecompute := flag.Bool("integrity-recompute", true, "local mode: recompute corrupted jobs instead of failing them")
	faultRate := flag.Float64("fault-rate", 0, "local mode: inject bit-flip faults into this fraction of core results")
	faultSeed := flag.Int64("fault-seed", 1, "local mode: deterministic seed for -fault-rate")
	faultCores := flag.String("fault-cores", "", "local mode: comma-separated worker ids to fault (default all)")
	scenario := flag.String("scenario", "modexp", "workload: modexp | sign | tenants | soak (all but modexp require -connect)")
	duration := flag.Duration("duration", 60*time.Second, "soak scenario run length")
	adversaries := flag.Int("adversaries", 4, "soak scenario: concurrent adversarial connections (slow-loris + malformed frames)")
	flag.Parse()

	// The root context: Ctrl-C / SIGTERM cancels it, which aborts an
	// in-flight sweep (local or remote) cleanly instead of hanging in
	// eng.ModExp or a network wait.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	cfg := sweepConfig{
		scenario: *scenario, duration: *duration, adversaries: *adversaries,
		jobs: *jobs, keys: *keys, expKind: *expKind,
		queue: *queue, timeout: *timeout, seed: *seed,
		connect: *connect, clients: *clients, retries: *retries,
		traceSample: *traceSample,
		tolerate:    parseTolerate(*tolerate),
		integrity:   *integrity, integritySample: *integritySample,
		integrityRecompute: *integrityRecompute,
		faultRate:          *faultRate, faultSeed: *faultSeed, faultCores: *faultCores,
	}
	if *listen != "" {
		col := obs.NewCollector(obs.WithTracing(*traceCap))
		col.Tracer().SetProcess("loadgen")
		cfg.collector = col
		ln, err := net.Listen("tcp", *listen)
		if err != nil {
			fmt.Fprintln(os.Stderr, "loadgen:", err)
			os.Exit(1)
		}
		fmt.Printf("observability: http://%s/  (/metrics, /debug/pprof/, /trace)\n", ln.Addr())
		go func() {
			if err := http.Serve(ln, obs.NewHandler(col)); err != nil {
				fmt.Fprintln(os.Stderr, "loadgen: obs server:", err)
			}
		}()
	}
	if err := run(ctx, *workersList, *bitsList, *kitList, *variantName, cfg); err != nil {
		fmt.Fprintln(os.Stderr, "loadgen:", err)
		os.Exit(1)
	}
	if *listen != "" && *linger > 0 {
		fmt.Printf("lingering %s for scrapes...\n", *linger)
		select {
		case <-time.After(*linger):
		case <-ctx.Done():
		}
	}
}

type sweepConfig struct {
	scenario    string        // "modexp" (default), "sign", "tenants", or "soak"
	duration    time.Duration // soak run length
	adversaries int           // soak adversarial connections
	jobs, keys  int
	expKind     string
	queue       int
	timeout     time.Duration
	seed        int64
	collector   *obs.Collector // nil unless -listen
	connect     string         // nonempty = remote mode
	clients     int
	retries     int

	// traceSample is the fraction of jobs given a root trace context
	// (0 = none). Sampled jobs propagate their trace id through every
	// layer they touch, local or remote.
	traceSample float64

	// tolerate maps error classes (see classify) to "count and keep
	// going instead of aborting". Self-check mismatches are never
	// tolerated.
	tolerate map[string]bool

	// Local-mode chaos/integrity knobs.
	integrity          bool
	integritySample    float64
	integrityRecompute bool
	faultRate          float64
	faultSeed          int64
	faultCores         string
}

// parseTolerate turns the -tolerate comma list into a set.
func parseTolerate(s string) map[string]bool {
	m := make(map[string]bool)
	for _, p := range strings.Split(s, ",") {
		if p = strings.TrimSpace(p); p != "" {
			m[p] = true
		}
	}
	return m
}

// classify buckets a call error into the class names -tolerate uses.
// The classes mirror the wire protocol's error codes, so a chaos run
// can speak the same vocabulary as the server's /metrics page.
func classify(err error) string {
	switch {
	case errors.Is(err, errs.ErrIntegrity):
		return "integrity"
	case errors.Is(err, errs.ErrRateLimited):
		return "rate_limited"
	case errors.Is(err, errs.ErrOverloaded):
		return "overloaded"
	case errors.Is(err, errs.ErrDraining):
		return "draining"
	case errors.Is(err, errs.ErrBackendDown):
		return "backend_down"
	case errors.Is(err, errs.ErrProtocol):
		return "protocol"
	case errors.Is(err, errs.ErrEngineClosed):
		return "closed"
	case errors.Is(err, context.DeadlineExceeded), errors.Is(err, context.Canceled):
		return "canceled"
	default:
		return "other"
	}
}

// errorTally counts tolerated errors per class across submitters.
type errorTally struct {
	mu sync.Mutex
	n  map[string]int
}

func newErrorTally() *errorTally { return &errorTally{n: make(map[string]int)} }

func (t *errorTally) add(class string) {
	t.mu.Lock()
	t.n[class]++
	t.mu.Unlock()
}

func (t *errorTally) total() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	sum := 0
	for _, v := range t.n {
		sum += v
	}
	return sum
}

// String renders "class=N" pairs in stable order, "none" when empty.
func (t *errorTally) String() string {
	t.mu.Lock()
	defer t.mu.Unlock()
	if len(t.n) == 0 {
		return "none"
	}
	classes := make([]string, 0, len(t.n))
	for c := range t.n {
		classes = append(classes, c)
	}
	sort.Strings(classes)
	parts := make([]string, 0, len(classes))
	for _, c := range classes {
		parts = append(parts, fmt.Sprintf("%s=%d", c, t.n[c]))
	}
	return strings.Join(parts, " ")
}

// traceJob mints a root trace context for one job when -trace-sample is
// on; the returned context is what the call should run under. The zero
// TraceContext (sampling off, or this job not picked) means untraced.
func (cfg sweepConfig) traceJob(ctx context.Context) (context.Context, obs.TraceContext) {
	if cfg.traceSample <= 0 {
		return ctx, obs.TraceContext{}
	}
	tc := obs.NewTraceContext(cfg.traceSample)
	return obs.ContextWithTrace(ctx, tc), tc
}

// faultOptions translates the local-mode chaos flags into engine
// options (mirrors montsysd's flag wiring).
func (cfg sweepConfig) faultOptions() ([]engine.Option, error) {
	var opts []engine.Option
	if cfg.faultRate > 0 {
		fOpts := []faults.Option{
			faults.WithRate(cfg.faultRate),
			faults.WithSeed(cfg.faultSeed),
		}
		if cfg.faultCores != "" {
			ids, err := splitInts(cfg.faultCores)
			if err != nil {
				return nil, fmt.Errorf("-fault-cores: %w", err)
			}
			fOpts = append(fOpts, faults.WithCores(ids...))
		}
		opts = append(opts, engine.WithFaultInjector(faults.New(fOpts...)))
	}
	if cfg.integrity {
		opts = append(opts,
			engine.WithIntegrityCheck(cfg.integritySample),
			engine.WithIntegrityRecompute(cfg.integrityRecompute))
	}
	return opts, nil
}

func run(ctx context.Context, workersList, bitsList, kitList, variantName string, cfg sweepConfig) error {
	var sweepKits []kits.Kit
	for _, p := range strings.Split(kitList, ",") {
		k, err := kits.Parse(p)
		if err != nil {
			return err
		}
		sweepKits = append(sweepKits, k)
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
	bits, err := splitInts(bitsList)
	if err != nil {
		return err
	}

	switch cfg.scenario {
	case "", "modexp":
	case "sign":
		return runSign(ctx, cfg, bits)
	case "tenants":
		return runTenants(ctx, cfg, bits)
	case "soak":
		return runSoak(ctx, cfg, bits)
	default:
		return fmt.Errorf("unknown scenario %q", cfg.scenario)
	}

	// One fixed workload, reused across every sweep point so the rows
	// are comparable.
	rng := rand.New(rand.NewSource(cfg.seed))
	moduli := make([]*big.Int, 0, len(bits)*cfg.keys)
	for _, l := range bits {
		for k := 0; k < cfg.keys; k++ {
			n := new(big.Int).Rand(rng, new(big.Int).Lsh(big.NewInt(1), uint(l-1)))
			n.SetBit(n, l-1, 1)
			n.SetBit(n, 0, 1)
			moduli = append(moduli, n)
		}
	}
	batch := make([]engine.ModExpJob, cfg.jobs)
	for i := range batch {
		n := moduli[i%len(moduli)]
		base := new(big.Int).Rand(rng, n)
		var exp *big.Int
		switch cfg.expKind {
		case "full":
			exp = new(big.Int).Rand(rng, n)
			exp.SetBit(exp, 0, 1)
		case "f4":
			exp = big.NewInt(65537)
		default:
			return fmt.Errorf("unknown exponent shape %q", cfg.expKind)
		}
		batch[i] = engine.ModExpJob{N: n, Base: base, Exp: exp}
	}

	if cfg.connect != "" {
		return runRemote(ctx, cfg, bits, batch)
	}

	workers, err := splitInts(workersList)
	if err != nil {
		return err
	}
	kitNames := make([]string, len(sweepKits))
	for i, k := range sweepKits {
		kitNames[i] = k.String()
	}
	fmt.Printf("loadgen: %d jobs, bits=%v, %d moduli, kits=%s, exp=%s\n\n",
		cfg.jobs, bits, len(moduli), strings.Join(kitNames, ","), cfg.expKind)
	fmt.Printf("%-6s %-8s %12s %12s %10s %10s %10s %10s\n",
		"kit", "workers", "wall", "jobs/s", "p50", "p95", "p99", "speedup")

	for _, kit := range sweepKits {
		// The speedup column resets per kit: it shows worker scaling
		// within a kit, not cross-kit ratios (read jobs/s for those).
		var base float64
		for _, w := range workers {
			wall, lats, st, err := sweep(ctx, w, kit, variant, cfg, batch)
			if err != nil {
				return fmt.Errorf("kit=%s w=%d: %w", kit, w, err)
			}
			tput := float64(len(batch)) / wall.Seconds()
			if base == 0 {
				base = tput
			}
			sort.Slice(lats, func(i, j int) bool { return lats[i] < lats[j] })
			fmt.Printf("%-6s %-8d %12s %12.1f %10s %10s %10s %9.2fx\n",
				kit, w, wall.Round(time.Millisecond), tput,
				pct(lats, 50), pct(lats, 95), pct(lats, 99), tput/base)
			fmt.Printf("                stats: %s\n", st)
		}
	}
	return nil
}

// runRemote drives one or more montsysd/montsyslb instances instead of
// an in-process engine: the same workload, submitted by cfg.clients
// concurrent goroutines over pooled pipelined clients — one per
// -connect address, jobs spread round-robin — each result self-checked
// against math/big.
func runRemote(ctx context.Context, cfg sweepConfig, bits []int, batch []engine.ModExpJob) error {
	addrs := strings.Split(cfg.connect, ",")
	clients := make([]*server.Client, 0, len(addrs))
	for _, a := range addrs {
		a = strings.TrimSpace(a)
		if a == "" {
			continue
		}
		clOpts := []server.ClientOption{
			server.WithPoolSize(cfg.clients),
			server.WithMaxRetries(cfg.retries),
		}
		if cfg.collector != nil && cfg.collector.Tracer() != nil {
			// Client-layer spans of sampled jobs record into loadgen's
			// own /trace ring (rate 0: roots are minted per job below,
			// so the sampling decision stays in one place).
			clOpts = append(clOpts, server.WithClientTracing(cfg.collector.Tracer(), 0))
		}
		cl := server.Dial(a, clOpts...)
		defer cl.Close()
		clients = append(clients, cl)
	}
	if len(clients) == 0 {
		return fmt.Errorf("no address in -connect %q", cfg.connect)
	}
	fmt.Printf("loadgen: %d jobs, bits=%v, %d remote(s) %s, %d clients, %d retries\n\n",
		cfg.jobs, bits, len(clients), cfg.connect, cfg.clients, cfg.retries)

	if cfg.timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, cfg.timeout)
		defer cancel()
	}

	submitters := cfg.clients
	if submitters < 1 {
		submitters = 1
	}
	if submitters > len(batch) {
		submitters = len(batch)
	}
	lats := make([]time.Duration, len(batch))
	idx := make(chan int, len(batch))
	for i := range batch {
		idx <- i
	}
	close(idx)

	var wg sync.WaitGroup
	errCh := make(chan error, submitters)
	tally := newErrorTally()
	start := time.Now()
	for s := 0; s < submitters; s++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range idx {
				if ctx.Err() != nil {
					errCh <- ctx.Err()
					return
				}
				j := batch[i]
				callCtx, tc := cfg.traceJob(ctx)
				t0 := time.Now()
				v, err := clients[i%len(clients)].ModExp(callCtx, j.N, j.Base, j.Exp)
				lats[i] = time.Since(t0)
				if err != nil {
					if tc.Sampled {
						// The id greps into every layer's wide-event log
						// and /trace export.
						fmt.Printf("job %d failed: trace_id=%s err=%v\n", i, tc.TraceID, err)
					}
					if class := classify(err); cfg.tolerate[class] {
						tally.add(class)
						lats[i] = -1
						continue
					}
					errCh <- fmt.Errorf("job %d: %w", i, err)
					return
				}
				// A wrong answer is always fatal — no -tolerate class
				// covers it. Zero of these is the chaos-run contract.
				if want := new(big.Int).Exp(j.Base, j.Exp, j.N); v.Cmp(want) != 0 {
					errCh <- fmt.Errorf("job %d: self-check failed (WRONG ANSWER)", i)
					return
				}
			}
		}()
	}
	wg.Wait()
	wall := time.Since(start)
	select {
	case err := <-errCh:
		return err
	default:
	}
	lats = okLats(lats)
	fmt.Printf("%-8s %12s %12s %10s %10s %10s\n",
		"clients", "wall", "jobs/s", "p50", "p95", "p99")
	fmt.Printf("%-8d %12s %12.1f %10s %10s %10s\n",
		cfg.clients, wall.Round(time.Millisecond),
		float64(len(lats))/wall.Seconds(),
		pct(lats, 50), pct(lats, 95), pct(lats, 99))
	fmt.Printf("ok %d/%d  errors: %s\n", len(lats), len(batch), tally)
	return nil
}

// okLats drops the -1 markers of tolerated-error jobs and sorts what
// remains, so percentiles describe only answered requests.
func okLats(lats []time.Duration) []time.Duration {
	out := lats[:0]
	for _, l := range lats {
		if l >= 0 {
			out = append(out, l)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// sweep drives one worker count: 2×workers closed-loop submitters, each
// job's latency measured around the engine call and its result
// self-checked against math/big. The caller's context flows into every
// engine call, so a signal interrupts the sweep promptly.
func sweep(ctx context.Context, w int, kit kits.Kit, variant systolic.Variant, cfg sweepConfig, batch []engine.ModExpJob) (time.Duration, []time.Duration, engine.Stats, error) {
	opts := []engine.Option{
		engine.WithWorkers(w),
		engine.WithKit(kit),
		engine.WithArrayVariant(variant),
	}
	if cfg.queue > 0 {
		opts = append(opts, engine.WithQueueDepth(cfg.queue))
	}
	chaosOpts, err := cfg.faultOptions()
	if err != nil {
		return 0, nil, engine.Stats{}, err
	}
	opts = append(opts, chaosOpts...)
	if cfg.collector != nil {
		opts = append(opts, engine.WithObserver(cfg.collector))
		cfg.collector.SetEngineInfo(w, kit.String(), fmt.Sprint(variant))
	}
	eng, err := engine.New(opts...)
	if err != nil {
		return 0, nil, engine.Stats{}, err
	}
	defer eng.Close()

	if cfg.timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, cfg.timeout)
		defer cancel()
	}

	submitters := 2 * w
	if submitters > len(batch) {
		submitters = len(batch)
	}
	lats := make([]time.Duration, len(batch))
	idx := make(chan int, len(batch))
	for i := range batch {
		idx <- i
	}
	close(idx)

	var wg sync.WaitGroup
	errCh := make(chan error, submitters)
	tally := newErrorTally()
	start := time.Now()
	for s := 0; s < submitters; s++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range idx {
				j := batch[i]
				callCtx, tc := cfg.traceJob(ctx)
				t0 := time.Now()
				v, _, err := eng.ModExp(callCtx, j.N, j.Base, j.Exp)
				lats[i] = time.Since(t0)
				if err != nil {
					if tc.Sampled {
						fmt.Printf("job %d failed: trace_id=%s err=%v\n", i, tc.TraceID, err)
					}
					if class := classify(err); cfg.tolerate[class] {
						tally.add(class)
						lats[i] = -1
						continue
					}
					errCh <- fmt.Errorf("job %d: %w", i, err)
					return
				}
				// Always fatal, regardless of -tolerate: a wrong answer
				// escaped every integrity net.
				if want := new(big.Int).Exp(j.Base, j.Exp, j.N); v.Cmp(want) != 0 {
					errCh <- fmt.Errorf("job %d: self-check failed (WRONG ANSWER)", i)
					return
				}
			}
		}()
	}
	wg.Wait()
	wall := time.Since(start)
	st := eng.Stats()
	select {
	case err := <-errCh:
		return 0, nil, st, err
	default:
	}
	if tally.total() > 0 {
		fmt.Printf("         errors: %s\n", tally)
	}
	return wall, okLats(lats), st, nil
}

// pct returns the p-th percentile of sorted latencies.
func pct(sorted []time.Duration, p int) time.Duration {
	if len(sorted) == 0 {
		return 0
	}
	i := (len(sorted)-1)*p/100 + 1
	if i >= len(sorted) {
		i = len(sorted) - 1
	}
	return sorted[i].Round(100 * time.Microsecond)
}

func splitInts(s string) ([]int, error) {
	parts := strings.Split(s, ",")
	out := make([]int, 0, len(parts))
	for _, p := range parts {
		v, err := strconv.Atoi(strings.TrimSpace(p))
		if err != nil {
			return nil, fmt.Errorf("bad integer list %q: %w", s, err)
		}
		out = append(out, v)
	}
	return out, nil
}
