// Package montsys is the public API of this repository: a complete,
// simulation-level reproduction of "Hardware Implementation of a
// Montgomery Modular Multiplier in a Systolic Array" (Örs, Batina,
// Preneel, Vandewalle — IPDPS/IPPS 2003).
//
// The heart of the system is a radix-2 systolic array computing
// Montgomery products x·y·R⁻¹ mod 2N with R = 2^(l+2) and no final
// subtraction (Walter's bound), wrapped in the paper's MMM circuit
// (IDLE/MUL1/MUL2/OUT controller) and modular exponentiator. It exists
// at four fidelity levels — reference arithmetic, cycle-accurate
// behavioural simulation, gate-level netlist simulation, and a
// calibrated Virtex-E technology model — all equivalence-tested against
// one another.
//
// Every construction point accepts a compute kit — the execution
// backend a multiplier, exponentiator or engine core runs on:
//
//	KitModel  radix-2 reference arithmetic + paper cycle formulas (default)
//	KitSim    cycle-accurate simulated systolic circuit
//	KitCIOS   production radix-2^64 CIOS word-serial fast path
//	KitBig    math/big oracle
//
// Quick start:
//
//	m, err := montsys.NewMultiplier(n)                    // reference speed
//	m, err := montsys.NewMultiplier(n, montsys.WithKit(montsys.KitSim)) // cycle-accurate
//	p, err := m.Mont(x, y)                                // x·y·R⁻¹ mod 2N
//
//	ex, err := montsys.NewExponentiator(n)                // reference arithmetic
//	ex, err := montsys.NewExponentiator(n, montsys.WithKit(montsys.KitCIOS)) // fast path
//	c, report, err := ex.ModExp(msg, e)                   // RSA-style exponentiation
//
//	eng, err := montsys.NewEngine(montsys.WithEngineWorkers(8),
//	    montsys.WithEngineKit(montsys.KitCIOS))           // fast path on every core
//	results, err := eng.ModExpBatch(ctx, jobs)            // fan across 8 cores
//
//	srv, err := montsys.NewServer(eng)                    // TCP front door (montsysd)
//	cl := montsys.Dial("host:7077")                       // pooled, pipelined, retrying
//	v, err := cl.ModExp(ctx, n, base, exp)                // same answers over the wire
//
//	hw, err := montsys.Hardware(1024)                     // slices, clock, T_MMM
//
// This package is the library API: the multiplier, exponentiator,
// engine, server and client a caller embeds. The daemons and tools under
// cmd/ configure the internal packages directly — the cluster tier,
// QoS, signing, fault injection, wide events and SLOs live there.
//
// See DESIGN.md for the system inventory and EXPERIMENTS.md for the
// paper-vs-measured record of every table and figure.
package montsys

import (
	"math/big"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/errs"
	"repro/internal/expo"
	"repro/internal/kits"
	"repro/internal/obs"
	"repro/internal/server"
	"repro/internal/systolic"
)

// Typed sentinel errors, shared by every layer (reference arithmetic,
// multiplier, exponentiator, engine). Match with errors.Is — the
// returned errors wrap these with context.
var (
	ErrEvenModulus     = errs.ErrEvenModulus
	ErrModulusTooSmall = errs.ErrModulusTooSmall
	ErrOperandRange    = errs.ErrOperandRange
	ErrEngineClosed    = errs.ErrEngineClosed

	// Serving-layer sentinels: admission-control fast-fail, graceful
	// drain in progress, malformed wire frame, unreachable backend. The
	// wire protocol maps each to a stable response code, so errors.Is
	// keeps working across the network hop — and across the cluster
	// tier's extra hop.
	ErrOverloaded  = errs.ErrOverloaded
	ErrDraining    = errs.ErrDraining
	ErrProtocol    = errs.ErrProtocol
	ErrBackendDown = errs.ErrBackendDown

	// ErrRateLimited marks a per-tenant quota rejection from a server's
	// QoS plane — the tenant's own token bucket is empty, distinct from
	// ErrOverloaded (the server as a whole is saturated). The concrete
	// error is a *RateLimited carrying the retry-after hint; recover it
	// with errors.As, including across the wire.
	ErrRateLimited = errs.ErrRateLimited

	// ErrIntegrity marks a result that failed the engine's end-to-end
	// integrity checks (residue identity, big.Int re-verification, core
	// panic, watchdog timeout). When recompute is enabled callers never
	// see it — corrupted jobs are silently redone on a healthy core —
	// and when it does surface (recompute disabled, or recompute itself
	// failed) the value must not be trusted; the cluster tier fails such
	// answers over to another backend for free.
	ErrIntegrity = errs.ErrIntegrity

	// ErrBadKey marks malformed key material handed to the signing
	// service (inconsistent CRT fields, off-curve public point, unknown
	// curve, scalar out of range). It crosses the wire as its own
	// response code, so errors.Is keeps working remotely.
	ErrBadKey = errs.ErrBadKey
)

// RateLimited is the concrete error behind ErrRateLimited: which tenant
// was limited and when its bucket next refills. It survives the wire —
// errors.As recovers it from a remote rejection.
type RateLimited = errs.RateLimited

// Multiplier is a Montgomery modular multiplier for one odd modulus,
// optionally backed by the cycle-accurate simulated circuit.
type Multiplier = core.Multiplier

// Option configures NewMultiplier.
type Option = core.Option

// HardwareReport summarizes the synthesized circuit for one bit length
// (gate census, LUT/slice mapping, clock period, T_MMM).
type HardwareReport = core.HardwareReport

// Exponentiator performs modular exponentiation over the multiplier.
type Exponentiator = expo.Exponentiator

// Report describes an exponentiation's square/multiply decomposition and
// cycle cost under the paper's accounting.
type Report = expo.Report

// Variant selects the systolic array flavour.
type Variant = systolic.Variant

// Array variants: Faithful is exactly the paper's Fig. 1/2 (subject to
// the documented operand condition y + N ≤ 2^(l+1)); Guarded adds one
// cap cell and one flip-flop and is correct for all operands below 2N.
const (
	Faithful = systolic.Faithful
	Guarded  = systolic.Guarded
)

// Kit names a compute backend: the execution path a Multiplier,
// Exponentiator, or engine worker core runs Montgomery operations on.
type Kit = kits.Kit

// The compute kits.
const (
	KitModel = kits.Model // radix-2 reference arithmetic, paper cycle formulas (default)
	KitSim   = kits.Sim   // cycle-accurate simulated systolic circuit
	KitCIOS  = kits.CIOS  // radix-2^64 CIOS word-serial fast path
	KitBig   = kits.Big   // math/big oracle
)

// ParseKit maps a flag value (model|sim|cios|big, case-insensitive)
// to its Kit.
func ParseKit(s string) (Kit, error) { return kits.Parse(s) }

// NewMultiplier prepares a multiplier for the odd modulus n ≥ 3.
func NewMultiplier(n *big.Int, opts ...Option) (*Multiplier, error) {
	return core.NewMultiplier(n, opts...)
}

// WithKit selects the compute kit for a Multiplier or Exponentiator.
// Kits never change answers — every kit computes the same residues,
// equivalence-tested against one another — only the speed/fidelity
// trade: KitModel and KitSim are the paper's reference and simulation,
// KitCIOS is the production fast path and KitBig the math/big oracle.
func WithKit(k Kit) Option { return core.WithKit(k) }

// WithArrayVariant selects the systolic array variant the KitSim
// circuit simulates (Guarded by default). No effect on other kits.
func WithArrayVariant(v Variant) Option { return core.WithArrayVariant(v) }

// NewExponentiator returns the paper's modular exponentiator for the
// odd modulus n, configured with the same functional options as
// NewMultiplier:
//
//	montsys.NewExponentiator(n)                                  // reference arithmetic
//	montsys.NewExponentiator(n, montsys.WithKit(montsys.KitSim)) // cycle-accurate
//	montsys.NewExponentiator(n, montsys.WithKit(montsys.KitCIOS)) // fast path
//	montsys.NewExponentiator(n, montsys.WithKit(montsys.KitSim),
//	    montsys.WithArrayVariant(montsys.Faithful))              // explicit variant
func NewExponentiator(n *big.Int, opts ...Option) (*Exponentiator, error) {
	return core.NewExponentiator(n, opts...)
}

// Engine is the concurrent multi-core modexp/Mont engine: a pool of
// worker cores (each owning one exclusive exponentiator per modulus,
// which runs both job kinds — simulated cycle-accurate cores included),
// a bounded submission queue with context cancellation and per-job
// deadlines, an LRU cache of per-modulus Montgomery contexts,
// order-preserving batch APIs (ModExpBatch, MontBatch) and Stats, read
// from the metrics it registers. See internal/engine.
type Engine = engine.Engine

// EngineOption configures NewEngine.
type EngineOption = engine.Option

// EngineStats snapshots the engine's registered counters, the same
// instruments an attached Collector's /metrics page renders.
type EngineStats = engine.Stats

// Engine job/result types: results[i] always answers jobs[i].
type (
	ModExpJob    = engine.ModExpJob
	ModExpResult = engine.ModExpResult
	MontJob      = engine.MontJob
	MontResult   = engine.MontResult
)

// NewEngine builds and starts a multi-core engine.
func NewEngine(opts ...EngineOption) (*Engine, error) { return engine.New(opts...) }

// WithEngineWorkers sets the number of worker cores (default GOMAXPROCS).
func WithEngineWorkers(k int) EngineOption { return engine.WithWorkers(k) }

// WithEngineQueueDepth bounds the submission queue (default 4× workers).
func WithEngineQueueDepth(d int) EngineOption { return engine.WithQueueDepth(d) }

// WithEngineKit selects the compute kit worker cores run on (default
// KitModel). Every job runs on it; per-kit job counts appear in
// EngineStats.KitJobs.
func WithEngineKit(k Kit) EngineOption { return engine.WithKit(k) }

// WithEngineCtxCacheSize bounds the per-modulus context LRU (default 128).
func WithEngineCtxCacheSize(n int) EngineOption { return engine.WithCtxCacheSize(n) }

// Observability. The engine counts its jobs, queue, context cache and
// integrity events on instruments (Prometheus-exportable counters,
// gauges and log-bucketed latency histograms with p50/p90/p99/max) that
// it registers on its observer's registry. Collector is the
// batteries-included observer: it owns that registry, which a server
// can share so one /metrics page carries client→server→engine→core end
// to end, and it keeps each job's span for tracing:
//
//	col := montsys.NewCollector()
//	eng, _ := montsys.NewEngine(montsys.WithEngineObserver(col))
//	srv, _ := montsys.NewServer(eng, montsys.WithServerRegistry(col.Registry()))

// EngineObserver supplies the registry an engine counts on and
// receives its job spans and integrity events; see
// internal/engine.Observer for the contract.
type EngineObserver = engine.Observer

// WithEngineObserver attaches an observer to an engine. Without one the
// engine counts into a private registry (EngineStats still reads it)
// and every callback site is a single nil check.
func WithEngineObserver(o EngineObserver) EngineOption { return engine.WithObserver(o) }

// Collector is the engine observer of the obs layer: its registry holds
// the engine's metrics, and it records job spans for tracing.
type Collector = obs.Collector

// CollectorOption configures NewCollector.
type CollectorOption = obs.CollectorOption

// MetricsRegistry holds named metrics and renders Prometheus text.
type MetricsRegistry = obs.Registry

// TraceSpan is one recorded job lifecycle in the span ring buffer.
type TraceSpan = obs.Span

// NewCollector builds an engine observer around an empty registry.
func NewCollector(opts ...CollectorOption) *Collector { return obs.NewCollector(opts...) }

// Serving. The engine's network front door is montsysd (cmd/montsysd):
// a TCP server speaking a compact length-prefixed binary protocol, with
// admission control (bounded in-flight, ErrOverloaded fast-fail),
// per-request deadline propagation, idle timeouts and graceful drain on
// SIGTERM. Client is the matching dialer: pooled, pipelined
// connections with exponential-backoff retries on transient failures.
//
//	srv, _ := montsys.NewServer(eng, montsys.WithServerRegistry(col.Registry()))
//	go srv.Serve(ln)
//	cl := montsys.Dial(ln.Addr().String())
//	v, err := cl.ModExp(ctx, n, base, exp)       // same answers as eng.ModExp
//
// See internal/server for the frame layout and README "Serving".

// Server is the TCP serving layer over an Engine.
type Server = server.Server

// ServerOption configures NewServer.
type ServerOption = server.Option

// NewServer wraps an engine in a protocol server. The engine stays
// caller-owned: draining or closing the server never closes it.
func NewServer(eng *Engine, opts ...ServerOption) (*Server, error) {
	return server.NewServer(eng, opts...)
}

// WithServerRegistry puts the server's metrics (server_connections,
// server_inflight, server_requests_total{op,code}, request-latency
// histogram) on an existing registry, typically a Collector's, so one
// /metrics page carries client→server→engine→core end to end.
func WithServerRegistry(r *MetricsRegistry) ServerOption { return server.WithRegistry(r) }

// Client talks to a montsysd server: pooled pipelined connections,
// context-aware dials and calls, retries with exponential backoff and
// jitter on transient failures (ErrOverloaded, ErrDraining, dropped
// connections — every op is idempotent, so ambiguous drops retry too).
type Client = server.Client

// ClientOption configures Dial.
type ClientOption = server.ClientOption

// Dial prepares a client for addr; connections are established lazily,
// so Dial itself performs no I/O.
func Dial(addr string, opts ...ClientOption) *Client { return server.Dial(addr, opts...) }

// WithClientPoolSize bounds pooled connections (default 2).
func WithClientPoolSize(n int) ClientOption { return server.WithPoolSize(n) }

// WithClientMaxRetries bounds retries after the first attempt
// (default 3; 0 disables).
func WithClientMaxRetries(n int) ClientOption { return server.WithMaxRetries(n) }

// Distributed tracing. A sampled request carries a 16-byte trace id
// across every hop — client, balancer, backend server, engine worker,
// compute kit — via traced wire-op variants, so each process's /trace
// export holds its slice of the same tree and cmd/tracecat merges them
// into one Perfetto-loadable timeline. Sampling is head-based and
// deterministic in the trace id, so a fleet agrees on every verdict
// without coordination:
//
//	tracer := montsys.NewTracer(0)
//	cl := montsys.Dial(addr, montsys.WithClientTracing(tracer, 0.01))
//
// See README "Tracing & SLOs" and DESIGN §2g for the span ↔ paper
// pipeline-stage mapping.

// TraceContext is the per-request trace state (trace id, current span
// id, sampling verdict) that rides a context.Context across layers and
// the wire across processes.
type TraceContext = obs.TraceContext

// Tracer is the bounded ring buffer spans record into; its contents
// export as Chrome trace-event JSON at /trace.
type Tracer = obs.Tracer

// NewTracer builds a span ring keeping the most recent capacity spans
// (≤ 0 selects the default, 4096). Call SetProcess so multi-process
// trace merges attribute spans to the right daemon.
func NewTracer(capacity int) *Tracer { return obs.NewTracer(capacity) }

// NewTraceContext mints a root trace context sampled at rate — for an
// edge process that owns root-span identity itself. Client mints roots
// automatically when given WithClientTracing with a positive rate.
func NewTraceContext(rate float64) TraceContext { return obs.NewTraceContext(rate) }

// WithClientTracing configures a client's tracing: spans for sampled
// calls record into t, and rate sets head sampling for requests that
// arrive without an ambient trace context (0: the client only
// propagates contexts it is handed, never mints roots). Propagation of
// an ambient sampled context is always on, with or without this option.
func WithClientTracing(t *Tracer, rate float64) ClientOption {
	return server.WithClientTracing(t, rate)
}

// Hardware builds and maps the full gate-level MMM circuit for an l-bit
// modulus, reporting area and timing under the Virtex-E model — the
// data behind the paper's Table 2.
func Hardware(l int) (HardwareReport, error) { return core.Hardware(l) }
