package engine

import (
	"time"

	"repro/internal/obs"
)

// Observer receives engine lifecycle callbacks: job submission,
// dequeue, completion, modulus-context cache traffic and integrity
// events. Attach one with WithObserver to feed an external
// metrics/tracing sink (see internal/obs.Collector, which satisfies
// this interface); leave it unset and the engine skips every callback
// with a single nil check — instrumentation is strictly opt-in and
// near-zero-cost when disabled.
//
// Callbacks run inline on the submission path (JobSubmitted) and the
// worker cores (everything else), possibly concurrently, so
// implementations must be safe for concurrent use and should return
// quickly — a slow observer stalls the pool it is watching.
type Observer interface {
	// JobSubmitted fires when a job is accepted into the queue.
	// kind is "modexp" or "mont".
	JobSubmitted(kind string)

	// JobStarted fires when a worker core dequeues a job, after it
	// waited queueWait in the queue. It fires for every dequeued job,
	// including ones that immediately fail expiry checks.
	JobStarted(kind string, worker int, queueWait time.Duration)

	// JobSpan fires once when a job reaches a terminal state — Outcome
	// "ok", "failed" (invalid operands or arithmetic errors) or
	// "canceled" (batch context done / per-job deadline passed) — and
	// once more with Outcome "requeued" each time a job whose result
	// failed an integrity check goes back on the queue for recompute
	// (not terminal: the same job finishes later on another core).
	// Start is the enqueue instant; QueueWait and Exec partition the
	// job's total latency, Integrity is the tail of Exec spent
	// re-verifying the result. Muls, ModelCycles, SimCycles and Kit
	// report the work the job performed and the kit that did
	// it (zero unless Outcome is "ok"). For requests sampled by the
	// tracing plane the trace/span ids join this job into its
	// request's cross-process trace tree.
	JobSpan(s obs.Span)

	// CacheHit / CacheMiss / CacheEviction fire on modulus-context LRU
	// traffic: a context reused, a precomputation run, a context
	// dropped at capacity.
	CacheHit()
	CacheMiss()
	CacheEviction()

	// IntegrityEvent fires on integrity lifecycle events. event is one
	// of "check_failed" (a result failed its residue/re-verification
	// check), "quarantine" / "probe_failed" / "reinstate" (the
	// benched-core lifecycle), "panic" (a core panicked mid-job),
	// "watchdog" (a job blew its cycle budget) or "recompute" (a
	// corrupted job was redone, by requeue or inline oracle). It may
	// fire after the worker has moved on: watchdog-abandoned
	// goroutines report "panic" late.
	IntegrityEvent(event string, worker int)
}

// internal/obs.Collector must keep satisfying Observer without obs
// importing engine (the interface is matched structurally).
var _ Observer = (*obs.Collector)(nil)

// kindName reports the observer-facing name of a job kind.
func (k jobKind) kindName() string {
	if k == kindMont {
		return "mont"
	}
	return "modexp"
}

// outcome strings reported in Observer.JobSpan.
const (
	outcomeOK       = "ok"
	outcomeFailed   = "failed"
	outcomeCanceled = "canceled"
	outcomeRequeued = "requeued"
)
