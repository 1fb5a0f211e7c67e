package engine

import (
	"math/big"
	"time"

	"repro/internal/integrity"
	"repro/internal/mont"
)

// clock abstracts the engine's timers (quarantine backoff, watchdog)
// so tests can drive them with a fake. The real engine sleeps; a test
// fires the channel by hand.
type clock interface {
	After(d time.Duration) <-chan time.Time
}

type realClock struct{}

func (realClock) After(d time.Duration) <-chan time.Time { return time.After(d) }

// integrityEvent counts a lifecycle event and forwards it to the
// observer, if any.
func (e *Engine) integrityEvent(ev integEvent, worker int) {
	e.met.integrity[ev].Inc()
	if ob := e.cfg.observer; ob != nil {
		ob.IntegrityEvent(eventNames[ev], worker)
	}
}

// quarantine benches this worker: it stops consuming jobs (the load
// drains naturally to the healthy cores, the mirror image of the
// cluster tier ejecting a backend) and its kit is replaced so any
// corrupt circuit state is discarded. Re-entry is by known-answer
// probe in quarantineWait.
func (w *worker) quarantine() {
	if w.quar {
		return
	}
	w.quar = true
	w.probeFails = 0
	w.kit = w.newKit()
	w.eng.healthy.Add(-1)
	w.eng.met.quarantined.Add(1)
	w.eng.integrityEvent(evQuarantine, w.id)
}

// quarantineWait is where a benched worker sits between jobs: backoff,
// probe, repeat — until a probe passes (reinstatement) or the engine
// starts closing (resume draining so Close never waits on a timer).
//
// Degraded mode: if every worker is quarantined, refusing to serve
// would starve the queue and deadlock batch callers, so the worker
// probes once without waiting and then serves the next job anyway —
// safely, because quarantine implies the integrity checks that caught
// the fault are still active and every further corrupt result is
// recomputed on math/big.
func (w *worker) quarantineWait() {
	for w.quar {
		if w.eng.healthy.Load() <= 0 {
			w.probeOnce()
			return
		}
		select {
		case <-w.eng.cfg.clk.After(w.backoff()):
		case <-w.eng.closing:
			return
		}
		w.probeOnce()
	}
}

// Quarantine re-probe schedule: the first known-answer probe runs
// after quarantineBase, doubling per failed probe up to quarantineMax.
const (
	quarantineBase = 100 * time.Millisecond
	quarantineMax  = 10 * time.Second
)

// backoff is the jittered exponential re-probe schedule:
// quarantineBase·2^fails clamped to quarantineMax, ±50% jitter — the
// same shape as the cluster tier's backend reinstatement so thundering
// re-entries don't line up.
func (w *worker) backoff() time.Duration {
	shift := w.probeFails
	if shift > 20 {
		shift = 20
	}
	d := quarantineBase << shift
	if d > quarantineMax {
		d = quarantineMax
	}
	return d/2 + time.Duration(w.rng.Int63n(int64(d)))
}

// probeOnce runs one known-answer probe and applies its verdict.
func (w *worker) probeOnce() {
	if w.probe() {
		w.quar = false
		w.probeFails = 0
		w.eng.healthy.Add(1)
		w.eng.met.quarantined.Add(-1)
		w.eng.integrityEvent(evReinstate, w.id)
		return
	}
	w.probeFails++
	w.eng.integrityEvent(evProbeFailed, w.id)
}

// katCtx is the probe context, over the Mersenne prime 2⁶¹−1: small
// enough that even a gate-level simulated probe is cheap, large enough
// that a stuck or flipped bit in the probe results is very unlikely to
// hide for all katProbeOps products. It is built once and kept out of
// the engine's context LRU, so a probe never evicts a serving modulus
// or moves the cache counters.
var katCtx = func() *mont.Ctx {
	ctx, err := mont.NewCtx(new(big.Int).SetUint64(1<<61 - 1))
	if err != nil {
		panic(err)
	}
	return ctx
}()

const katProbeOps = 16

// probe runs known-answer Montgomery products through this worker's
// own compute path — including its fault wrapper, so a persistent
// injected fault keeps the core benched — and checks each against the
// residue identity. A panicking core fails the probe rather than the
// process.
func (w *worker) probe() (ok bool) {
	defer func() {
		if recover() != nil {
			ok = false
		}
	}()
	ex, err := w.newExponentiator(w.kit, katCtx)
	if err != nil {
		return false
	}
	x := new(big.Int).SetUint64(0x0123456789ABCDEF)
	y := new(big.Int).SetUint64(0x0FEDCBA987654321)
	step := new(big.Int).SetUint64(0x9E3779B97F4A7C15) // golden-ratio stride
	for i := 0; i < katProbeOps; i++ {
		x.Add(x, step).Mod(x, katCtx.N2)
		y.Add(y, step).Mod(y, katCtx.N2)
		v, _, err := ex.Mont(x, y)
		if err != nil || integrity.CheckMont(katCtx, x, y, v) != nil {
			return false
		}
	}
	return true
}
