package main

import (
	"context"
	"fmt"
	"runtime"
	"time"

	montsys "repro"
)

// callers is the served workloads' closed-loop concurrency: one
// submitter per core of the two-core machine the baseline was measured
// on, sharing one client with two pooled connections.
const callers = 2

// opFunc sends request i (modulo the input set) through cl and checks
// the answer against the one computed during setup.
type opFunc func(ctx context.Context, cl *montsys.Client, i int64) error

func modexpOp(reqs []modexpReq) opFunc {
	return func(ctx context.Context, cl *montsys.Client, i int64) error {
		q := &reqs[i%int64(len(reqs))]
		got, err := cl.ModExp(ctx, q.n, q.base, f4)
		if err != nil {
			return err
		}
		if got.Cmp(q.want) != 0 {
			return fmt.Errorf("%w: modexp %d^65537 mod %d = %d, want %d", errMismatch, q.base, q.n, got, q.want)
		}
		return nil
	}
}

func signOp(reqs []signReq) opFunc {
	return func(ctx context.Context, cl *montsys.Client, i int64) error {
		q := &reqs[i%int64(len(reqs))]
		got, err := cl.SignRSA(ctx, q.key, q.digest)
		if err != nil {
			return err
		}
		if got.Cmp(q.want) != 0 {
			return fmt.Errorf("%w: signature of %d under N=%d is %d, want %d", errMismatch, q.digest, q.key.N, got, q.want)
		}
		return nil
	}
}

func runModexpHot(r *runner) (*result, error) {
	return r.served("modexp-hot", fleetSpec{backends: 1, workers: 2}, modexpOp(hotInputs(r.o.seed)))
}

func runRSASign(r *runner) (*result, error) {
	reqs, err := signInputs(r.o.seed)
	if err != nil {
		return nil, err
	}
	return r.served("rsa-sign", fleetSpec{backends: 1, workers: 2}, signOp(reqs))
}

func runModexpZipfLB(r *runner) (*result, error) {
	return r.served("modexp-zipf-lb", fleetSpec{backends: 2, workers: 1, cache: 64, lb: true},
		modexpOp(zipfInputs(r.o.seed)))
}

// served runs one served workload: launch the fleet several times for
// setup_s (exec of the first daemon to the first answer at the front
// door), warm up on the last fleet, then measure the timed window or,
// traced, the per-layer metrics.
func (r *runner) served(name string, spec fleetSpec, op opFunc) (*result, error) {
	ctx := context.Background() // the per-workload limit bounds every request
	var f *fleet
	var cl *montsys.Client
	setups, err := setupTimes(r.o.setups, callers, false, func() (time.Duration, error) {
		if f != nil {
			cl.Close()
			if err := r.stopFleet(f); err != nil {
				return 0, err
			}
		}
		t0 := time.Now()
		var err error
		if f, err = r.launch(spec); err != nil {
			return 0, err
		}
		cl = montsys.Dial(f.front(), montsys.WithClientPoolSize(callers))
		if err := op(ctx, cl, 0); err != nil {
			return 0, fmt.Errorf("first request: %w", err)
		}
		d := time.Since(t0)
		return d, f.check()
	})
	if err != nil {
		return nil, err
	}
	defer cl.Close()
	ld := &load{callers: callers, op: func(i int64) error { return op(ctx, cl, i) }}
	for _, p := range f.procs() {
		ld.pids = append(ld.pids, p.pid())
	}
	if err := r.warmUp(ld); err != nil {
		return nil, err
	}
	if r.o.trace {
		return r.servedTraced(name, f, ld, op)
	}
	res, err := r.timed(setups, ld)
	if err != nil {
		return nil, err
	}
	return res, r.stopFleet(f)
}

// servedTraced is a served workload's traced run. The window alternates
// quarters on the untraced client and on one that samples traceRate of
// requests through the daemons' trace plane, with the benchmark's own
// span around every request; the daemons' counters are read before and
// after. Then the fleet stops and the ladder runs unloaded; the
// workload's own numbers replace the ladder's for the layers it
// crosses.
func (r *runner) servedTraced(name string, f *fleet, ld *load, op opFunc) (*result, error) {
	ctx := context.Background()
	calls := montsys.NewTracer(4096)
	calls.SetProcess("bench-client")
	tcl := montsys.Dial(f.front(), montsys.WithClientPoolSize(callers), montsys.WithClientTracing(calls, r.o.traceRate))
	defer tcl.Close()
	before, err := scrapeAll(f.procs())
	if err != nil {
		return nil, err
	}
	var mem0, mem1 runtime.MemStats
	runtime.ReadMemStats(&mem0)
	plain, traced, err := r.quarters(ld, r.spanned("request/"+name, func(i int64) error { return op(ctx, tcl, i) }))
	if err != nil {
		return nil, err
	}
	runtime.ReadMemStats(&mem1)
	after, err := scrapeAll(f.procs())
	if err != nil {
		return nil, err
	}
	own, err := r.tracedMetrics(plain, traced)
	if err != nil {
		return nil, err
	}
	ops := plain.ok() + plain.failed + traced.ok() + traced.failed
	layers := fleetLayers(f, before, after, ops, ops)
	self, err := r.fleetSelfTimes(name, f, calls)
	if err != nil {
		return nil, err
	}
	if err := r.stopFleet(f); err != nil {
		return nil, err
	}
	m, err := r.ladder()
	if err != nil {
		return nil, err
	}
	for _, src := range []map[string]metric{layers, self, own} {
		for k, v := range src {
			m[k] = v
		}
	}
	m["client.allocs_per_op"] = metric{float64(mem1.Mallocs-mem0.Mallocs) / float64(ops), "count", ops}
	return &result{Attempted: ops, Failed: plain.failed + traced.failed, Metrics: m}, nil
}

// fleetLayers derives the server, engine and, with a balancer, cluster
// metrics from scrapes of every daemon taken before and after a stretch
// of backendOps requests at the backends (lbOps of them through the
// balancer).
func fleetLayers(f *fleet, before, after map[*proc]scrape, backendOps, lbOps int64) map[string]metric {
	m := map[string]metric{}
	var queue, exec, req []map[float64]float64
	var hits, misses, evictions, muls, mallocs, bytes, gcs, cpu float64
	for _, p := range f.backends {
		a, b := before[p], after[p]
		d := func(name string) float64 { return sum(b.metrics, name, nil) - sum(a.metrics, name, nil) }
		queue = append(queue, bucketDelta(a.metrics, b.metrics, "montsys_job_queue_wait_seconds"))
		exec = append(exec, bucketDelta(a.metrics, b.metrics, "montsys_job_exec_seconds"))
		req = append(req, bucketDelta(a.metrics, b.metrics, "montsys_server_request_seconds"))
		hits += d("montsys_ctx_cache_hits_total")
		misses += d("montsys_ctx_cache_misses_total")
		evictions += d("montsys_ctx_cache_evictions_total")
		muls += d("montsys_mont_muls_total")
		mallocs += b.mem.Mallocs - a.mem.Mallocs
		bytes += b.mem.TotalAlloc - a.mem.TotalAlloc
		gcs += b.mem.NumGC - a.mem.NumGC
		cpu += b.cpu - a.cpu
	}
	n := float64(backendOps)
	lookups := int64(hits + misses)
	m["engine.queue_wait_us.p50"] = quantileUS(addBuckets(queue...), 0.5)
	m["engine.queue_wait_us.p99"] = quantileUS(addBuckets(queue...), 0.99)
	m["engine.exec_us.p50"] = quantileUS(addBuckets(exec...), 0.5)
	m["engine.ctx_hit_ratio"] = ratio(hits, hits+misses)
	m["engine.ctx_hits"] = metric{hits, "count", lookups}
	m["engine.ctx_misses"] = metric{misses, "count", lookups}
	m["engine.ctx_evictions"] = metric{evictions, "count", lookups}
	m["engine.muls_per_op"] = metric{muls / n, "count", backendOps}
	m["server.request_us.p50"] = quantileUS(addBuckets(req...), 0.5)
	m["server.allocs_per_op"] = metric{mallocs / n, "count", backendOps}
	m["server.bytes_per_op"] = metric{bytes / n, "B", backendOps}
	m["server.gc_per_kop"] = metric{gcs * 1000 / n, "count", backendOps}
	m["server.cpu_us_per_op"] = metric{cpu * 1e6 / n, "us", backendOps}
	if f.lb == nil {
		return m
	}
	a, b := before[f.lb], after[f.lb]
	d := func(name string) float64 { return sum(b.metrics, name, nil) - sum(a.metrics, name, nil) }
	affinity, spills := d("montsys_cluster_affinity_hits_total"), d("montsys_cluster_affinity_spills_total")
	hedges, wins := d("montsys_cluster_hedges_total"), d("montsys_cluster_hedge_wins_total")
	l := float64(lbOps)
	m["cluster.request_us.p50"] = quantileUS(bucketDelta(a.metrics, b.metrics, "montsys_cluster_request_seconds"), 0.5)
	m["cluster.affinity_hit_ratio"] = ratio(affinity, affinity+spills)
	m["cluster.hedges_per_kop"] = metric{hedges * 1000 / l, "count", lbOps}
	m["cluster.hedge_win_ratio"] = ratio(wins, hedges)
	m["cluster.allocs_per_op"] = metric{(b.mem.Mallocs - a.mem.Mallocs) / l, "count", lbOps}
	m["cluster.cpu_us_per_op"] = metric{(b.cpu - a.cpu) * 1e6 / l, "us", lbOps}
	return m
}

func quantileUS(cum map[float64]float64, q float64) metric {
	v, n := bucketQuantile(cum, q)
	return metric{v * 1e6, "us", n}
}

// ratio is part/whole with whole as its sample count; with nothing to
// count (whole 0) it reads 0 with 0 samples.
func ratio(part, whole float64) metric {
	if whole == 0 {
		return metric{0, "ratio", 0}
	}
	return metric{part / whole, "ratio", int64(whole)}
}
