// Command loadgen hammers the multi-core engine with a mixed RSA-style
// modexp workload and prints a throughput/latency table per worker
// count, plus the engine's own stats line. It is the quickest way to
// see the replicated-core scaling story (and, on one core, the
// scheduling overhead floor) on real hardware.
//
// Usage:
//
//	loadgen [-workers 1,2,4,8] [-jobs 200] [-bits 512,1024] [-keys 4]
//	        [-kit cios,model,big] [-variant guarded|faithful]
//	        [-exp full|f4] [-queue 0] [-timeout 0]
//	        [-listen :9090] [-linger 0] [-trace 4096] [-trace-sample 0]
//	        [-connect host:7077] [-clients 8] [-retries 3]
//	        [-tolerate integrity,overloaded] [-integrity] [-integrity-recompute]
//	        [-fault-rate 0] [-fault-seed 1] [-fault-cores 0]
//	        [-scenario modexp|sign|tenants|soak]
//	        [-duration 60s] [-adversaries 4]
//
// -scenario sign, tenants and soak drive a fleet, so they need
// -connect. sign drives the signing service: wire keygen, blinded
// RSA-CRT signs checked with math/big, and an ECDSA batch verify (see
// sign.go). tenants is the multi-tenant QoS isolation experiment (see
// tenants.go). soak is the composed robustness run under fleet churn
// and hostile connections (see soak.go). Each file's header states the
// scenario's verdict.
//
// -kit takes a comma-separated compute-kit list (model | sim | cios |
// big; default cios, the radix-2^64 fast path the daemons serve on) and
// sweeps every (kit, workers) combination, so one run compares the
// paper-faithful radix-2 path (model) against the radix-2^64 CIOS fast
// path and the math/big oracle side by side. Rows are labelled per kit.
//
// Every scenario is one per-job closure run by one driver (drive):
// N submitter goroutines, closed-loop, for a fixed job count or until
// the run's deadline. Each sweep point drives the engine from
// 2×workers submitters, measuring every job's submit→finish latency.
// Every result is self-checked against math/big; the run aborts on any
// mismatch — a wrong answer is always fatal, no flag can tolerate it.
// Ctrl-C (or SIGTERM) cancels the root context, which interrupts a
// sweep mid-flight and reports the partial point's error instead of
// hanging.
//
// Errors are counted under their wire-code names, the ones the
// server's /metrics page uses (integrity, overloaded, rate_limited,
// draining, backend_down, protocol, engine_closed, deadline, canceled,
// internal, ...). By default any error aborts the run; -tolerate takes
// a comma-separated list of those names whose errors are counted and
// skipped instead, and the per-code tally is printed at the end —
// chaos runs drive a faulty fleet with `-tolerate integrity` and then
// assert the integrity count (and every self-check) says zero wrong
// answers reached the client.
//
// In local (in-process) mode, -fault-rate/-fault-seed/-fault-cores
// wire the deterministic fault injector into the sweep engines and
// -integrity/-integrity-recompute arm the engine's result verification
// (every result checked; a corrupt one recomputed on math/big, or
// failed with recompute off), so the whole chaos story can be
// rehearsed without a network.
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
	"sync/atomic"
	"syscall"
	"time"

	"repro/internal/engine"
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
	kitList := flag.String("kit", "cios", "comma-separated compute kits to sweep: model | sim | cios | big")
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
		integrity:   *integrity, integrityRecompute: *integrityRecompute,
		faultRate: *faultRate, faultSeed: *faultSeed, faultCores: *faultCores,
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
			if err := http.Serve(ln, obs.NewMux(col.Registry(), col.Tracer(), nil, nil)); err != nil {
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

	// tolerate holds the wire-code names (server.Code.String) whose
	// errors are counted instead of aborting the run. Self-check
	// mismatches are never tolerated.
	tolerate map[string]bool

	// Local-mode chaos/integrity knobs.
	integrity          bool
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

// errorTally counts errors per wire-code name across submitters.
type errorTally struct {
	mu sync.Mutex
	n  map[string]int
}

func newErrorTally() *errorTally { return &errorTally{n: make(map[string]int)} }

// add counts err under its wire-code name and returns the name.
func (t *errorTally) add(err error) string {
	code := server.CodeOf(err).String()
	t.mu.Lock()
	t.n[code]++
	t.mu.Unlock()
	return code
}

// count reads one code's tally.
func (t *errorTally) count(code string) int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.n[code]
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

// String renders "code=N" pairs in stable order, "none" when empty.
func (t *errorTally) String() string {
	t.mu.Lock()
	defer t.mu.Unlock()
	if len(t.n) == 0 {
		return "none"
	}
	codes := make([]string, 0, len(t.n))
	for c := range t.n {
		codes = append(codes, c)
	}
	sort.Strings(codes)
	parts := make([]string, 0, len(codes))
	for _, c := range codes {
		parts = append(parts, fmt.Sprintf("%s=%d", c, t.n[c]))
	}
	return strings.Join(parts, " ")
}

// drive is the one load driver every scenario runs on: job(ctx, s, i)
// on submitters closed-loop goroutines, s being the submitter's number,
// for i = 0 … jobs-1 when jobs ≥ 0, or i = 0, 1, 2, … until ctx ends
// when jobs < 0. The first job error stops the pool and is returned; a
// fixed-count run that ctx cuts short returns ctx's error.
func drive(ctx context.Context, jobs, submitters int, job func(ctx context.Context, s, i int) error) error {
	if jobs >= 0 {
		submitters = min(submitters, jobs)
	}
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()
	var (
		next  atomic.Int64
		once  sync.Once
		first error
		wg    sync.WaitGroup
	)
	for s := 0; s < max(submitters, 1); s++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for ctx.Err() == nil {
				i := int(next.Add(1) - 1)
				if jobs >= 0 && i >= jobs {
					return
				}
				if err := job(ctx, s, i); err != nil {
					once.Do(func() { first = err; cancel() })
					return
				}
			}
		}()
	}
	wg.Wait()
	if first == nil && jobs >= 0 && next.Load() < int64(jobs) {
		return ctx.Err()
	}
	return first
}

// deadline applies -timeout: the overall deadline of one sweep point,
// which for a -connect scenario is the whole run.
func (cfg sweepConfig) deadline(ctx context.Context) (context.Context, context.CancelFunc) {
	if cfg.timeout > 0 {
		return context.WithTimeout(ctx, cfg.timeout)
	}
	return context.WithCancel(ctx)
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

// addrs is the -connect address list.
func (cfg sweepConfig) addrs() []string {
	var out []string
	for _, a := range strings.Split(cfg.connect, ",") {
		if a = strings.TrimSpace(a); a != "" {
			out = append(out, a)
		}
	}
	return out
}

// clientSet holds one pooled, pipelined wire client per -connect
// address; job i goes to address i mod len, so a backend fleet can be
// driven directly as well as through montsyslb.
type clientSet []*server.Client

// dial opens the -connect clients with -clients pool slots and
// -retries retries each, then opts.
func (cfg sweepConfig) dial(opts ...server.ClientOption) (clientSet, error) {
	base := []server.ClientOption{server.WithPoolSize(cfg.clients), server.WithMaxRetries(cfg.retries)}
	if cfg.collector != nil && cfg.collector.Tracer() != nil {
		// Client-layer spans of sampled jobs record into loadgen's own
		// /trace ring (rate 0: roots are minted per job by traceJob, so
		// the sampling decision stays in one place).
		base = append(base, server.WithClientTracing(cfg.collector.Tracer(), 0))
	}
	var cs clientSet
	for _, a := range cfg.addrs() {
		cs = append(cs, server.Dial(a, append(base, opts...)...))
	}
	if len(cs) == 0 {
		return nil, fmt.Errorf("no address in -connect %q", cfg.connect)
	}
	return cs, nil
}

func (cs clientSet) pick(i int) *server.Client { return cs[i%len(cs)] }

func (cs clientSet) Close() {
	for _, c := range cs {
		c.Close()
	}
}

// moduli draws keys odd, full-length moduli per bit length from rng:
// the fixed key set of every modexp-shaped scenario, so reruns and
// every backend of a fleet see the same moduli.
func moduli(rng *rand.Rand, bits []int, keys int) []*big.Int {
	out := make([]*big.Int, 0, len(bits)*keys)
	for _, l := range bits {
		for k := 0; k < keys; k++ {
			n := new(big.Int).Rand(rng, new(big.Int).Lsh(big.NewInt(1), uint(l-1)))
			n.SetBit(n, l-1, 1)
			n.SetBit(n, 0, 1)
			out = append(out, n)
		}
	}
	return out
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
	variant, err := systolic.ParseVariant(variantName)
	if err != nil {
		return err
	}
	bits, err := splitInts(bitsList)
	if err != nil {
		return err
	}

	var scenario func(context.Context, sweepConfig, []int) error
	switch cfg.scenario {
	case "", "modexp":
		if cfg.connect == "" {
			workers, err := splitInts(workersList)
			if err != nil {
				return err
			}
			return runLocal(ctx, cfg, bits, workers, sweepKits, variant)
		}
		scenario = runRemote
	case "sign":
		scenario = runSign
	case "tenants":
		scenario = runTenants
	case "soak":
		scenario = runSoak
	default:
		return fmt.Errorf("unknown scenario %q", cfg.scenario)
	}
	if cfg.connect == "" {
		return fmt.Errorf("-scenario %s requires -connect: it drives the wire front door", cfg.scenario)
	}
	ctx, cancel := cfg.deadline(ctx)
	defer cancel()
	return scenario(ctx, cfg, bits)
}

// modexpBatch is the modexp workload: one fixed batch, reused across
// every sweep point so the rows are comparable. It also returns the
// number of distinct moduli.
func (cfg sweepConfig) modexpBatch(bits []int) ([]engine.ModExpJob, int, error) {
	rng := rand.New(rand.NewSource(cfg.seed))
	mods := moduli(rng, bits, cfg.keys)
	batch := make([]engine.ModExpJob, cfg.jobs)
	for i := range batch {
		n := mods[i%len(mods)]
		base := new(big.Int).Rand(rng, n)
		var exp *big.Int
		switch cfg.expKind {
		case "full":
			exp = new(big.Int).Rand(rng, n)
			exp.SetBit(exp, 0, 1)
		case "f4":
			exp = big.NewInt(65537)
		default:
			return nil, 0, fmt.Errorf("unknown exponent shape %q", cfg.expKind)
		}
		batch[i] = engine.ModExpJob{N: n, Base: base, Exp: exp}
	}
	return batch, len(mods), nil
}

// modexpPoint drives batch through call from submitters closed-loop,
// self-checking every answer against math/big — the one job closure of
// the local sweep and the remote run, which differ only in call. It
// returns the wall time, the sorted latencies of the answered jobs and
// the tally of tolerated errors; any other error, or a wrong answer,
// ends the point.
func (cfg sweepConfig) modexpPoint(ctx context.Context, batch []engine.ModExpJob, submitters int,
	call func(ctx context.Context, i int, j engine.ModExpJob) (*big.Int, error)) (time.Duration, []time.Duration, *errorTally, error) {
	lats := make([]time.Duration, len(batch))
	tally := newErrorTally()
	start := time.Now()
	err := drive(ctx, len(batch), submitters, func(ctx context.Context, _, i int) error {
		j := batch[i]
		callCtx, tc := cfg.traceJob(ctx)
		t0 := time.Now()
		v, err := call(callCtx, i, j)
		lats[i] = time.Since(t0)
		if err != nil {
			if tc.Sampled {
				// The id greps into every layer's wide-event log and
				// /trace export.
				fmt.Printf("job %d failed: trace_id=%s err=%v\n", i, tc.TraceID, err)
			}
			if cfg.tolerate[tally.add(err)] {
				lats[i] = -1
				return nil
			}
			return fmt.Errorf("job %d: %w", i, err)
		}
		// A wrong answer is always fatal — no -tolerate name covers it.
		// Zero of these is the chaos-run contract.
		if want := new(big.Int).Exp(j.Base, j.Exp, j.N); v.Cmp(want) != 0 {
			return fmt.Errorf("job %d: self-check failed (WRONG ANSWER)", i)
		}
		return nil
	})
	return time.Since(start), okLats(lats), tally, err
}

// runLocal sweeps every (kit, workers) point over an in-process engine
// from 2×workers submitters, printing one row per point.
func runLocal(ctx context.Context, cfg sweepConfig, bits, workers []int, sweepKits []kits.Kit, variant systolic.Variant) error {
	batch, nmod, err := cfg.modexpBatch(bits)
	if err != nil {
		return err
	}
	kitNames := make([]string, len(sweepKits))
	for i, k := range sweepKits {
		kitNames[i] = k.String()
	}
	fmt.Printf("loadgen: %d jobs, bits=%v, %d moduli, kits=%s, exp=%s\n\n",
		cfg.jobs, bits, nmod, strings.Join(kitNames, ","), cfg.expKind)
	fmt.Printf("%-6s %-8s %12s %12s %10s %10s %10s %10s\n",
		"kit", "workers", "wall", "jobs/s", "p50", "p95", "p99", "speedup")

	for _, kit := range sweepKits {
		// The speedup column resets per kit: it shows worker scaling
		// within a kit, not cross-kit ratios (read jobs/s for those).
		var base float64
		for _, w := range workers {
			eng, err := cfg.engine(w, kit, variant)
			if err != nil {
				return fmt.Errorf("kit=%s w=%d: %w", kit, w, err)
			}
			pctx, cancel := cfg.deadline(ctx)
			wall, lats, tally, err := cfg.modexpPoint(pctx, batch, 2*w,
				func(ctx context.Context, _ int, j engine.ModExpJob) (*big.Int, error) {
					v, _, err := eng.ModExp(ctx, j.N, j.Base, j.Exp)
					return v, err
				})
			cancel()
			st := eng.Stats()
			eng.Close()
			if err != nil {
				return fmt.Errorf("kit=%s w=%d: %w", kit, w, err)
			}
			if tally.total() > 0 {
				fmt.Printf("         errors: %s\n", tally)
			}
			tput := float64(len(batch)) / wall.Seconds()
			if base == 0 {
				base = tput
			}
			fmt.Printf("%-6s %-8d %12s %12.1f %10s %10s %10s %9.2fx\n",
				kit, w, wall.Round(time.Millisecond), tput,
				pct(lats, 50), pct(lats, 95), pct(lats, 99), tput/base)
			fmt.Printf("                stats: %s\n", st)
		}
	}
	return nil
}

// engine builds one sweep point's engine: w workers on kit, with the
// local-mode chaos flags wired in as montsysd wires its own.
func (cfg sweepConfig) engine(w int, kit kits.Kit, variant systolic.Variant) (*engine.Engine, error) {
	opts := []engine.Option{
		engine.WithWorkers(w),
		engine.WithKit(kit),
		engine.WithArrayVariant(variant),
	}
	if cfg.queue > 0 {
		opts = append(opts, engine.WithQueueDepth(cfg.queue))
	}
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
			engine.WithIntegrityCheck(),
			engine.WithIntegrityRecompute(cfg.integrityRecompute))
	}
	if cfg.collector != nil {
		opts = append(opts, engine.WithObserver(cfg.collector))
		cfg.collector.SetEngineInfo(w, kit.String(), fmt.Sprint(variant))
	}
	return engine.New(opts...)
}

// runRemote fires the modexp workload at the -connect addresses from
// -clients submitters; the table reports the round-trip
// (client→network→engine→core) latency distribution.
func runRemote(ctx context.Context, cfg sweepConfig, bits []int) error {
	batch, _, err := cfg.modexpBatch(bits)
	if err != nil {
		return err
	}
	cls, err := cfg.dial()
	if err != nil {
		return err
	}
	defer cls.Close()
	fmt.Printf("loadgen: %d jobs, bits=%v, %d remote(s) %s, %d clients, %d retries\n\n",
		cfg.jobs, bits, len(cls), cfg.connect, cfg.clients, cfg.retries)
	wall, lats, tally, err := cfg.modexpPoint(ctx, batch, cfg.clients,
		func(ctx context.Context, i int, j engine.ModExpJob) (*big.Int, error) {
			return cls.pick(i).ModExp(ctx, j.N, j.Base, j.Exp)
		})
	if err != nil {
		return err
	}
	fmt.Printf("%-8s %12s %12s %10s %10s %10s\n",
		"clients", "wall", "jobs/s", "p50", "p95", "p99")
	fmt.Printf("%-8d %12s %12.1f %10s %10s %10s\n",
		cfg.clients, wall.Round(time.Millisecond),
		float64(len(lats))/wall.Seconds(),
		pct(lats, 50), pct(lats, 95), pct(lats, 99))
	fmt.Printf("ok %d/%d  errors: %s\n", len(lats), len(batch), tally)
	return nil
}

// okLats drops the -1 markers of jobs that got no answer and sorts what
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
