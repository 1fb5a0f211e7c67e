package engine

import (
	"repro/internal/obs"
)

// Observer is the engine's link to an observability sink (see
// internal/obs.Collector, which satisfies this interface). Attach one
// with WithObserver. The engine registers its counters, gauges and
// histograms on the observer's Registry, so /metrics renders the same
// instruments Stats reads; the two callbacks carry what a counter
// cannot, the per-job span and the per-event worker id. Leave it unset
// and the engine counts into a private registry and skips every
// callback with a single nil check.
//
// Callbacks run inline on the worker cores and the submission path,
// possibly concurrently, so implementations must be safe for
// concurrent use and should return quickly — a slow observer stalls
// the pool it is watching.
type Observer interface {
	// Registry is where the engine registers its instruments. Engines
	// sharing one registry share its totals. nil selects a private
	// registry.
	Registry() *obs.Registry

	// JobSpan fires exactly once per job, when it reaches its terminal
	// state — Outcome "ok", "failed" (invalid operands, arithmetic
	// errors, a corrupt result with recompute off, or shed from the
	// queue under overload) or "canceled" (batch context done /
	// per-job deadline passed). Start is the enqueue instant; QueueWait
	// and Exec partition the job's total latency, Integrity is the tail
	// of Exec spent re-verifying the result. Worker is −1 for a job
	// shed before any core ran it. Muls, ModelCycles, SimCycles and Kit
	// report the work the job performed and the kit that did it (zero
	// unless Outcome is "ok"; Kit is "big" for a job recomputed after
	// an integrity failure). For requests sampled by the tracing plane
	// the trace/span ids join this job into its request's
	// cross-process trace tree.
	JobSpan(s obs.Span)

	// IntegrityEvent fires on integrity lifecycle events. event is one
	// of "check_failed" (a result failed its residue/re-verification
	// check), "quarantine" / "probe_failed" / "reinstate" (the
	// benched-core lifecycle), "panic" (a core panicked mid-job),
	// "watchdog" (a job blew its cycle budget) or "recompute" (a
	// corrupted job was redone inline on math/big). It may
	// fire after the worker has moved on: watchdog-abandoned
	// goroutines report "panic" late.
	IntegrityEvent(event string, worker int)
}

// internal/obs.Collector must keep satisfying Observer without obs
// importing engine (the interface is matched structurally).
var _ Observer = (*obs.Collector)(nil)

var kindNames = [numKinds]string{"modexp", "mont"}

// kindName reports the metric-label and span name of a job kind.
func (k jobKind) kindName() string { return kindNames[k] }
