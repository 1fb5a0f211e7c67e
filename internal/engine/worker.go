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
// exponentiator per modulus (exps), which runs both job kinds, its
// fault-injection handle and its integrity sampler. It exists as one
// swappable unit for two reasons. Quarantine replaces the kit so a
// core suspected of corruption restarts from fresh circuits — the
// software analogue of resetting the cell array. And the watchdog
// replaces it when it abandons a stuck job: the timed-out goroutine
// keeps exclusive ownership of the old kit (maps, circuits, rand
// streams are all single-owner), so worker and stray never share
// mutable state.
type kit struct {
	exps    map[string]exponentiator
	key     []byte // scratch for an exps lookup's modulus bytes
	fcore   *faults.Core
	sampler *integrity.Sampler
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

// maxRedo bounds integrity-driven requeues per job before the worker
// falls back to the inline reference oracle.
const maxRedo = 2

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
	k := &kit{exps: make(map[string]exponentiator)}
	if in := w.eng.cfg.injector; in != nil {
		k.fcore = in.Core(w.id)
	}
	if w.eng.cfg.integrity {
		k.sampler = integrity.NewSampler(w.eng.cfg.integritySample)
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
		if w.run(j) {
			j.wg.Done()
		}
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
// its end through Engine.finish. It returns false when the job was
// requeued for recompute on another core — the job is not finished and
// its WaitGroup must not be released yet.
func (w *worker) run(j *job) bool {
	dequeued := time.Now()
	start := j.enqueued // redirect re-stamps j.enqueued for the next run
	queueWait := dequeued.Sub(start)
	w.eng.met.queueWait.ObserveDuration(queueWait)

	var integDur time.Duration // tail of execution spent re-verifying
	finish := func(o outcome, wk work) {
		w.eng.finish(j, o, wk, obs.Span{
			Worker: w.id, Start: start, QueueWait: queueWait,
			Exec: time.Since(dequeued), Integrity: integDur,
		})
	}

	if err := j.expired(dequeued); err != nil {
		j.fail(err)
		finish(outcomeCanceled, work{})
		return true
	}
	if j.n == nil || j.a == nil || j.b == nil {
		j.fail(fmt.Errorf("engine: nil job operand: %w", errs.ErrOperandRange))
		finish(outcomeFailed, work{})
		return true
	}

	res := w.execute(j)
	if !res.corrupt && res.err == nil && w.eng.cfg.integrity {
		vStart := time.Now()
		ierr := w.verify(j, res.v)
		integDur = time.Since(vStart)
		if ierr != nil {
			w.eng.integrityEvent(evCheckFailed, w.id)
			res = jobResult{err: ierr, corrupt: true}
		}
	}
	if res.corrupt {
		w.quarantine()
		if w.eng.cfg.integrity && w.eng.cfg.integrityRecompute {
			// Hold the batch open until the requeued span is recorded:
			// once the job is back in the queue another core may finish
			// it and release the caller.
			j.wg.Add(1)
			if w.redirect(j) {
				finish(outcomeRequeued, work{})
				j.wg.Done()
				return false
			}
			j.wg.Done()
			res = w.recomputeInline(j, res)
		}
	}
	if res.err != nil {
		j.fail(res.err)
		finish(outcomeFailed, work{})
		return true
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
	return true
}

// finish is the one place the end of a job's run is accounted: the
// outcome counters, the latency histograms and, for a completed job,
// its work and kit; then the span goes to the observer. Workers call it
// for every run, requeued ones included, and finalizeShed for a job
// shed from the queue. s carries the worker and the timings.
func (e *Engine) finish(j *job, o outcome, wk work, s obs.Span) {
	m := e.met
	m.outcomes[j.kind][o].Inc()
	total := s.QueueWait + s.Exec
	switch o {
	case outcomeOK:
		m.finished[j.kind].Inc()
		m.latency[j.kind].ObserveDuration(total)
		m.kitLat[wk.kit].ObserveDuration(total)
		m.exec.ObserveDuration(s.Exec)
		m.muls[j.kind].Add(wk.muls)
		m.modelCycles.Add(wk.modelCycles)
		m.simCycles.Add(wk.simCycles)
		s.Kit = wk.kit.String()
		s.Muls, s.ModelCycles, s.SimCycles = wk.muls, wk.modelCycles, wk.simCycles
	case outcomeRequeued:
		// Not terminal: the job's next run does the accounting.
	default:
		m.finished[j.kind].Inc()
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

// execute runs the job's arithmetic, under the watchdog when armed.
// On a watchdog timeout the worker abandons its kit to the stuck
// goroutine (see kit) and reports the job corrupt.
func (w *worker) execute(j *job) jobResult {
	if w.eng.cfg.watchdogK <= 0 {
		return w.compute(j, w.kit)
	}
	ctx, err := w.eng.modCtx(j.n)
	if err != nil {
		return jobResult{err: err}
	}
	budget := watchdogBudget(w.eng.cfg.watchdogK, j.kind, ctx.L)
	ch := make(chan jobResult, 1)
	k := w.kit
	go func() { ch <- w.compute(j, k) }()
	select {
	case res := <-ch:
		return res
	case <-w.eng.cfg.clk.After(budget):
		w.eng.integrityEvent(evWatchdog, w.id)
		w.kit = w.newKit()
		return jobResult{
			err: fmt.Errorf("engine: worker %d: watchdog: %s stuck past %v (k=%g × %d cycles): %w",
				w.id, j.kind.kindName(), budget, w.eng.cfg.watchdogK,
				cycleBound(j.kind, ctx.L), errs.ErrIntegrity),
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

// compute runs the job on the given kit and returns its result. A
// panicking core is recovered here: the panic fails this job with a
// wrapped ErrIntegrity instead of killing the process, and marks the
// result corrupt so the core is quarantined.
func (w *worker) compute(j *job, k *kit) (res jobResult) {
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
	ex, err := w.exponentiatorIn(k, j.n)
	if err != nil {
		return jobResult{err: err}
	}
	kt := w.eng.cfg.kit
	if j.kind == kindMont {
		v, cycles, err := ex.Mont(j.a, j.b)
		if err != nil {
			return jobResult{err: err}
		}
		return jobResult{v: v, wk: montWork(kt, j.n.BitLen(), cycles)}
	}
	v, rep, err := ex.ModExp(j.a, j.b)
	if err != nil {
		return jobResult{err: err}
	}
	return jobResult{v: v, rep: rep, wk: modExpWork(kt, rep)}
}

// montWork accounts one Montgomery product at modulus length l on kit
// kt: the paper's 3l+4 cycles, and the cycles the core simulated.
func montWork(kt kits.Kit, l, simCycles int) work {
	return work{kit: kt, muls: 1, modelCycles: cycleBound(kindMont, l), simCycles: int64(simCycles)}
}

// modExpWork accounts one exponentiation on kit kt from its report:
// squares and multiplies plus the explicit pre- and post-products.
func modExpWork(kt kits.Kit, rep expo.Report) work {
	return work{
		kit:         kt,
		muls:        int64(rep.Squares + rep.Multiplies + 2),
		modelCycles: int64(rep.TotalCycles),
		simCycles:   int64(rep.SimulatedMulCycles),
	}
}

// verify applies the integrity checks: every Montgomery product gets
// the full residue-identity check (no witness crosses the exponentiator
// interface, and residues alone cannot verify a mod-N congruence —
// see internal/integrity), and a sampled fraction of exponentiations
// get the big.Int re-verification.
func (w *worker) verify(j *job, v *big.Int) error {
	switch j.kind {
	case kindMont:
		ctx, err := w.eng.modCtx(j.n)
		if err != nil {
			return err
		}
		return integrity.CheckMont(ctx, j.a, j.b, v)
	case kindModExp:
		if w.kit.sampler.Next() {
			return integrity.CheckModExp(j.n, j.a, j.b, v)
		}
	}
	return nil
}

// redirect requeues a corrupted job so a different core recomputes it.
// False means the caller must recompute inline: the job already used
// its retries, no healthy core exists to pick it up, the queue is
// full, or the engine is closing.
func (w *worker) redirect(j *job) bool {
	if j.redo >= maxRedo || w.eng.healthy.Load() <= 0 {
		return false
	}
	j.redo++
	j.enqueued = time.Now()
	if !w.eng.requeue(j) {
		return false
	}
	w.eng.integrityEvent(evRecompute, w.id)
	return true
}

// recomputeInline is the last-resort recovery path: recompute on the
// trusted reference arithmetic, verify, and only then hand the value
// back. It bypasses the worker's (possibly fault-wrapped) cores
// entirely.
func (w *worker) recomputeInline(j *job, failed jobResult) jobResult {
	w.eng.integrityEvent(evRecompute, w.id)
	ctx, err := w.eng.modCtx(j.n)
	if err != nil {
		return jobResult{err: err}
	}
	switch j.kind {
	case kindMont:
		v, err := w.eng.integ.RecomputeMont(ctx, j.a, j.b)
		if err != nil {
			return jobResult{err: err}
		}
		return jobResult{v: v, wk: montWork(kits.Model, ctx.L, 0)}
	case kindModExp:
		ex, err := expo.NewKitFromCtx(ctx, kits.Model)
		if err != nil {
			return jobResult{err: err}
		}
		v, rep, err := ex.ModExp(j.a, j.b)
		if err != nil {
			return jobResult{err: err}
		}
		if ierr := integrity.CheckModExp(j.n, j.a, j.b, v); ierr != nil {
			return jobResult{err: ierr}
		}
		return jobResult{v: v, rep: rep, wk: modExpWork(kits.Model, rep)}
	}
	return failed
}

// exponentiatorIn returns the kit's exclusive exponentiator for
// modulus n on the engine's compute kit, building it over the shared
// LRU-cached context on first use and wrapping it with the fault
// injector when one is configured. ModExp jobs, Mont jobs and the
// health probe all compute through it.
func (w *worker) exponentiatorIn(k *kit, n *big.Int) (exponentiator, error) {
	// The cache is keyed by the modulus' big-endian bytes. They are
	// filled into the kit's scratch, and a map index by string(bytes)
	// does not allocate, so only a miss allocates its key.
	size := (n.BitLen() + 7) / 8
	k.key = n.FillBytes(slices.Grow(k.key[:0], size)[:size])
	if ex, ok := k.exps[string(k.key)]; ok {
		return ex, nil
	}
	ctx, err := w.eng.modCtx(n)
	if err != nil {
		return nil, err
	}
	var ex exponentiator
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
	if len(k.exps) >= maxLocal {
		k.exps = make(map[string]exponentiator)
	}
	k.exps[string(k.key)] = ex
	return ex, nil
}
