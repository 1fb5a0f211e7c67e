package engine

import (
	"fmt"
	"math/big"
	"math/rand"
	"slices"
	"time"

	"repro/internal/errs"
	"repro/internal/expo"
	"repro/internal/faults"
	"repro/internal/integrity"
	"repro/internal/kits"
	"repro/internal/mont"
	"repro/internal/obs"
)

// exponentiator is the result-bearing surface the worker calls
// through, for ModExp and Mont jobs alike. An interface rather than the
// concrete type so a fault injector (internal/faults) or a test fake can
// sit between the worker and the real core.
type exponentiator interface {
	ModExp(base, exp *big.Int) (*big.Int, expo.Report, error)
	Mont(x, y *big.Int) (*big.Int, int, error)
}

// kit is a worker's disposable compute state: its one exclusive
// exponentiator per modulus (exps), which runs both job kinds, and its
// fault-injection handle. It exists as one swappable unit for two
// reasons. Quarantine replaces the kit so a core suspected of
// corruption restarts from fresh circuits — the software analogue of
// resetting the cell array. And the watchdog replaces it when it
// abandons a stuck job: the timed-out goroutine keeps exclusive
// ownership of the old kit (maps, circuits, rand streams are all
// single-owner), so worker and stray never share mutable state.
type kit struct {
	exps  map[string]core
	key   []byte // scratch for an exps lookup's modulus bytes
	fcore *faults.Core
}

// core is one cached exponentiator with the context it was built on,
// so a job's checks and recompute reuse the context its core already
// has instead of looking it up in the shared LRU again.
type core struct {
	ex  exponentiator
	ctx *mont.Ctx
}

// worker is one engine core. It owns its kit outright — simulated
// circuits are mutable and must never be shared (expo.Exponentiator's
// concurrency contract) — while the mont.Ctx inside comes from the
// engine-wide LRU, shared safely because a Ctx is immutable. The
// per-worker cache holds one exponentiator per modulus, which serves
// both job kinds, so repeated moduli skip rebuilding circuits; it is
// bounded and simply reset when full, which is cheap and keeps the
// common steady-state (few hot moduli) fully cached.
type worker struct {
	eng *Engine
	id  int
	kit *kit

	quar       bool       // benched by an integrity failure
	probeFails int        // consecutive failed re-probes, drives backoff
	rng        *rand.Rand // backoff jitter, deterministic per worker
}

// maxLocal bounds each worker's core cache.
const maxLocal = 32

func newWorker(e *Engine, id int) *worker {
	w := &worker{
		eng: e,
		id:  id,
		rng: rand.New(rand.NewSource(int64(id)*7919 + 1)),
	}
	w.kit = w.newKit()
	return w
}

func (w *worker) newKit() *kit {
	k := &kit{exps: make(map[string]core)}
	if in := w.eng.cfg.injector; in != nil {
		k.fcore = in.Core(w.id)
	}
	return k
}

func (w *worker) loop() {
	defer w.eng.wg.Done()
	for {
		j, ok := w.eng.sched.pop(time.Now())
		if !ok {
			return
		}
		w.eng.met.queueDepth.Add(-1)
		w.run(j)
		j.wg.Done()
		w.quarantineWait()
	}
}

// jobResult is what one compute attempt produced. corrupt marks
// results the engine must not trust: a panic, a watchdog timeout, or
// a failed integrity check — all of which quarantine the core.
type jobResult struct {
	v       *big.Int
	rep     expo.Report
	wk      work
	err     error
	corrupt bool
}

// run executes one dequeued job, splitting its latency into queue wait
// (enqueue→dequeue) and execute time (dequeue→finish), and accounts
// its end through Engine.finish.
func (w *worker) run(j *job) {
	dequeued := time.Now()
	queueWait := dequeued.Sub(j.enqueued)
	w.eng.met.queueWait.ObserveDuration(queueWait)

	var integDur time.Duration // tail of execution spent re-verifying
	finish := func(o outcome, wk work) {
		w.eng.finish(j, o, wk, obs.Span{
			Worker: w.id, Start: j.enqueued, QueueWait: queueWait,
			Exec: time.Since(dequeued), Integrity: integDur,
		})
	}
	if err := j.expired(dequeued); err != nil {
		j.fail(err)
		finish(outcomeCanceled, work{})
		return
	}
	if j.n == nil || j.a == nil || j.b == nil {
		j.fail(fmt.Errorf("engine: nil job operand: %w", errs.ErrOperandRange))
		finish(outcomeFailed, work{})
		return
	}
	c, err := w.coreFor(w.kit, j.n)
	if err != nil {
		j.fail(err)
		finish(outcomeFailed, work{})
		return
	}

	res := w.execute(j, c)
	integ := w.eng.cfg.integrity
	if !res.corrupt && res.err == nil && integ {
		vStart := time.Now()
		ierr := verify(j, c.ctx, res.v)
		integDur = time.Since(vStart)
		if ierr != nil {
			w.eng.integrityEvent(evCheckFailed, w.id)
			res = jobResult{err: ierr, corrupt: true}
		}
	}
	if res.corrupt {
		w.quarantine()
		if integ && w.eng.cfg.integrityRecompute {
			res = w.recompute(j, c.ctx)
		}
	}
	if res.err != nil {
		j.fail(res.err)
		finish(outcomeFailed, work{})
		return
	}

	switch j.kind {
	case kindModExp:
		j.expOut.Value = res.v
		j.expOut.Report = res.rep
		j.expOut.Err = nil
	case kindMont:
		j.montOut.Value = res.v
		j.montOut.Err = nil
	}
	finish(outcomeOK, res.wk)
}

// finish is the one place the end of a job is accounted: the outcome
// counters, the latency histograms and, for a completed job, its work
// and kit; then the span goes to the observer. Workers call it once
// per dequeued job, and finalizeShed once per job shed from the queue,
// so every job records exactly one span. s carries the worker and the
// timings.
func (e *Engine) finish(j *job, o outcome, wk work, s obs.Span) {
	m := e.met
	m.outcomes[j.kind][o].Inc()
	m.finished[j.kind].Inc()
	total := s.QueueWait + s.Exec
	if o == outcomeOK {
		m.latency[j.kind].ObserveDuration(total)
		m.kitLat[wk.kit].ObserveDuration(total)
		m.exec.ObserveDuration(s.Exec)
		m.muls[j.kind].Add(wk.muls)
		m.modelCycles.Add(wk.modelCycles)
		m.simCycles.Add(wk.simCycles)
		s.Kit = wk.kit.String()
		s.Muls, s.ModelCycles, s.SimCycles = wk.muls, wk.modelCycles, wk.simCycles
	} else {
		m.failedLat.ObserveDuration(total)
	}
	ob := e.cfg.observer
	if ob == nil {
		return
	}
	s.Name, s.Outcome = j.kind.kindName(), outcomeNames[o]
	if tc, ok := obs.TraceFromContext(j.ctx); ok && tc.Sampled {
		s.TraceID, s.Parent, s.SpanID = tc.TraceID, tc.SpanID, obs.NewSpanID()
	}
	ob.JobSpan(s)
}

// work is one completed job's own accounting: the kit that computed it
// and what it cost, reported in its span and added to the engine-wide
// counters.
type work struct {
	kit                          kits.Kit
	muls, modelCycles, simCycles int64
}

// fail records err on whichever result slot the job carries.
func (j *job) fail(err error) {
	switch j.kind {
	case kindModExp:
		j.expOut.Err = err
	case kindMont:
		j.montOut.Err = err
	}
}

// execute runs the job on its core, under the watchdog when armed.
// On a watchdog timeout the worker abandons its kit to the stuck
// goroutine (see kit) and reports the job corrupt.
func (w *worker) execute(j *job, c core) jobResult {
	if w.eng.cfg.watchdogK <= 0 {
		return w.compute(j, c.ex)
	}
	budget := watchdogBudget(w.eng.cfg.watchdogK, j.kind, c.ctx.L)
	ch := make(chan jobResult, 1)
	go func() { ch <- w.compute(j, c.ex) }()
	select {
	case res := <-ch:
		return res
	case <-w.eng.cfg.clk.After(budget):
		w.eng.integrityEvent(evWatchdog, w.id)
		w.kit = w.newKit()
		return jobResult{
			err: fmt.Errorf("engine: worker %d: watchdog: %s stuck past %v (k=%g × %d cycles): %w",
				w.id, j.kind.kindName(), budget, w.eng.cfg.watchdogK,
				cycleBound(j.kind, c.ctx.L), errs.ErrIntegrity),
			corrupt: true,
		}
	}
}

// cycleBound is the paper's cycle count for one operation at modulus
// length l: 3l+4 for a Montgomery product, the Eq. 10 upper bound for
// a full exponentiation.
func cycleBound(kind jobKind, l int) int64 {
	if kind == kindMont {
		return int64(3*l + 4)
	}
	ll := int64(l)
	return 6*ll*ll + 14*ll + 12
}

// watchdogCycleTime is the wall-time budget granted per hardware
// cycle. The reference arithmetic spends nanoseconds per cycle and the
// gate-level simulation microseconds, so 1µs × k leaves generous
// headroom for the Model path while still bounding a genuinely hung
// core; simulation users should scale k accordingly.
const watchdogCycleTime = time.Microsecond

func watchdogBudget(k float64, kind jobKind, l int) time.Duration {
	d := time.Duration(k * float64(cycleBound(kind, l)) * float64(watchdogCycleTime))
	if d <= 0 {
		d = watchdogCycleTime
	}
	return d
}

// compute runs the job on the worker's core ex. A panicking core is
// recovered here: the panic fails this job with a wrapped ErrIntegrity
// instead of killing the process, and marks the result corrupt so the
// core is quarantined.
func (w *worker) compute(j *job, ex exponentiator) (res jobResult) {
	defer func() {
		if r := recover(); r != nil {
			w.eng.integrityEvent(evPanic, w.id)
			res = jobResult{
				err: fmt.Errorf("engine: worker %d: core panicked: %v: %w",
					w.id, r, errs.ErrIntegrity),
				corrupt: true,
			}
		}
	}()
	return runOn(j, ex, w.eng.cfg.kit)
}

// runOn runs the job on ex and accounts it to kit kt: a Montgomery
// product costs the paper's 3l+4 cycles plus whatever the core
// simulated; an exponentiation its report's squares and multiplies
// plus the explicit pre- and post-products.
func runOn(j *job, ex exponentiator, kt kits.Kit) jobResult {
	if j.kind == kindMont {
		v, cycles, err := ex.Mont(j.a, j.b)
		if err != nil {
			return jobResult{err: err}
		}
		return jobResult{v: v, wk: work{kit: kt, muls: 1,
			modelCycles: cycleBound(kindMont, j.n.BitLen()), simCycles: int64(cycles)}}
	}
	v, rep, err := ex.ModExp(j.a, j.b)
	if err != nil {
		return jobResult{err: err}
	}
	return jobResult{v: v, rep: rep, wk: work{
		kit:         kt,
		muls:        int64(rep.Squares + rep.Multiplies + 2),
		modelCycles: int64(rep.TotalCycles),
		simCycles:   int64(rep.SimulatedMulCycles),
	}}
}

// verify is the check every result gets with integrity on: a
// Montgomery product its range and residue identity (no witness
// crosses the exponentiator interface, and residues alone cannot
// verify a mod-N congruence — see internal/integrity), an
// exponentiation a full math/big re-verification.
func verify(j *job, ctx *mont.Ctx, v *big.Int) error {
	if j.kind == kindMont {
		return integrity.CheckMont(ctx, j.a, j.b, v)
	}
	return integrity.CheckModExp(j.n, j.a, j.b, v)
}

// recompute is the one recovery path for a corrupt result: the job runs
// again inline on a fresh math/big exponentiator — the oracle
// CheckModExp already trusts, outside the worker's (possibly
// fault-wrapped) cores — and its value passes the same check every
// result gets before it is handed back. The report is the same
// Algorithm-3 accounting every kit produces, so only the kit label
// tells a recomputed job apart.
func (w *worker) recompute(j *job, ctx *mont.Ctx) jobResult {
	w.eng.integrityEvent(evRecompute, w.id)
	ex, err := expo.NewKitFromCtx(ctx, kits.Big)
	if err != nil {
		return jobResult{err: err}
	}
	res := runOn(j, ex, kits.Big)
	if res.err == nil {
		res.err = verify(j, ctx, res.v)
	}
	return res
}

// coreFor returns the kit's exclusive core for modulus n, building it
// over the shared LRU-cached context on first use. Only that first use
// looks the context up, so a job counts at most one LRU lookup.
func (w *worker) coreFor(k *kit, n *big.Int) (core, error) {
	// The cache is keyed by the modulus' big-endian bytes. They are
	// filled into the kit's scratch, and a map index by string(bytes)
	// does not allocate, so only a miss allocates its key.
	size := (n.BitLen() + 7) / 8
	k.key = n.FillBytes(slices.Grow(k.key[:0], size)[:size])
	if c, ok := k.exps[string(k.key)]; ok {
		return c, nil
	}
	ctx, err := w.eng.modCtx(n)
	if err != nil {
		return core{}, err
	}
	ex, err := w.newExponentiator(k, ctx)
	if err != nil {
		return core{}, err
	}
	if len(k.exps) >= maxLocal {
		k.exps = make(map[string]core)
	}
	c := core{ex: ex, ctx: ctx}
	k.exps[string(k.key)] = c
	return c, nil
}

// newExponentiator builds an exponentiator over ctx on the engine's
// compute kit, wrapped with the kit's fault injector when one is
// configured. Jobs and the health probe both compute through it.
func (w *worker) newExponentiator(k *kit, ctx *mont.Ctx) (exponentiator, error) {
	var ex exponentiator
	var err error
	if f := w.eng.cfg.factory; f != nil {
		ex, err = f(w.id, ctx)
	} else {
		ex, err = expo.NewKitFromCtx(ctx, w.eng.cfg.kit, expo.WithVariant(w.eng.cfg.variant))
	}
	if err != nil {
		return nil, err
	}
	if k.fcore != nil {
		ex = k.fcore.Wrap(ex, ctx.L)
	}
	return ex, nil
}
