package engine

import (
	"repro/internal/kits"
	"repro/internal/obs"
)

// metrics is the engine's one set of counters: instruments registered
// on the observer's registry (a private one without an observer), so
// Stats and /metrics read the same values. Everything is registered in
// New, so the job path never takes the registry lock. Engines sharing a
// registry share these totals.
//
//	montsys_jobs_submitted_total{kind}        jobs accepted into the queue
//	montsys_jobs_finished_total{kind}         jobs that reached a terminal state
//	montsys_job_outcomes_total{kind,outcome}  ok | failed | canceled
//	montsys_mont_muls_total{kind}             Montgomery products of completed jobs
//	montsys_model_cycles_total                cycles by the paper's accounting
//	montsys_simulated_cycles_total            cycles measured on simulated MMMCs
//	montsys_queue_depth                       jobs waiting in the queue (gauge)
//	montsys_queue_high_watermark              deepest the queue has been (gauge)
//	montsys_job_latency_seconds{kind}         submit→finish, completed jobs
//	montsys_job_kit_latency_seconds{kit}      the same, by compute kit
//	montsys_job_failed_latency_seconds        submit→finish, failed and canceled jobs
//	montsys_job_queue_wait_seconds            enqueue→dequeue, every dequeued job
//	montsys_job_exec_seconds                  dequeue→finish, completed jobs
//	montsys_ctx_cache_{hits,misses,evictions}_total  modulus-context LRU traffic
//	montsys_integrity_events_total{event}     integrity lifecycle events
//	montsys_quarantined_workers               cores benched right now (gauge)
type metrics struct {
	submitted [numKinds]*obs.Counter
	finished  [numKinds]*obs.Counter
	outcomes  [numKinds][numOutcomes]*obs.Counter
	muls      [numKinds]*obs.Counter
	latency   [numKinds]*obs.Histogram

	// kitLat is registered for the engine's kit and kits.Big, the kit
	// of the integrity recompute; the other entries stay nil.
	kitLat [kits.NumKits]*obs.Histogram

	modelCycles, simCycles     *obs.Counter
	queueDepth, queueHighWater *obs.Gauge
	failedLat, queueWait, exec *obs.Histogram

	ctxHits, ctxMisses, ctxEvictions *obs.Counter

	integrity   [numEvents]*obs.Counter
	quarantined *obs.Gauge
}

// outcome is how a job ended.
type outcome uint8

const (
	outcomeOK       outcome = iota
	outcomeFailed           // invalid operands or arithmetic errors
	outcomeCanceled         // batch context done or per-job deadline passed
	numOutcomes
)

var outcomeNames = [numOutcomes]string{"ok", "failed", "canceled"}

// integEvent is one integrity lifecycle event (see
// Observer.IntegrityEvent).
type integEvent uint8

const (
	evCheckFailed integEvent = iota
	evQuarantine
	evProbeFailed
	evReinstate
	evPanic
	evWatchdog
	evRecompute
	numEvents
)

var eventNames = [numEvents]string{
	"check_failed", "quarantine", "probe_failed", "reinstate",
	"panic", "watchdog", "recompute",
}

func newMetrics(reg *obs.Registry, kit kits.Kit) *metrics {
	m := &metrics{}
	for k := jobKind(0); k < numKinds; k++ {
		kind := obs.Label("kind", k.kindName())
		m.submitted[k] = reg.CounterLabeled("montsys_jobs_submitted_total",
			"Jobs accepted into the engine queue.", kind)
		m.finished[k] = reg.CounterLabeled("montsys_jobs_finished_total",
			"Jobs that reached a terminal state.", kind)
		m.muls[k] = reg.CounterLabeled("montsys_mont_muls_total",
			"Montgomery products executed across all cores.", kind)
		m.latency[k] = reg.HistogramLabeled("montsys_job_latency_seconds",
			"Submit-to-finish latency of completed jobs.", kind)
		for o := outcome(0); o < numOutcomes; o++ {
			m.outcomes[k][o] = reg.CounterLabeled("montsys_job_outcomes_total",
				"Job outcomes by kind: ok, failed or canceled.",
				kind, obs.Label("outcome", outcomeNames[o]))
		}
	}
	for _, kt := range []kits.Kit{kit, kits.Big} {
		m.kitLat[kt] = reg.HistogramLabeled("montsys_job_kit_latency_seconds",
			"Submit-to-finish latency of completed jobs by concrete compute kit.",
			obs.Label("kit", kt.String()))
	}
	m.queueDepth = reg.Gauge("montsys_queue_depth",
		"Jobs currently waiting in the submission queue.")
	m.queueHighWater = reg.Gauge("montsys_queue_high_watermark",
		"Deepest the submission queue has been.")
	m.modelCycles = reg.Counter("montsys_model_cycles_total",
		"Cycles by the paper's Eq.-based accounting (Model mode reports).")
	m.simCycles = reg.Counter("montsys_simulated_cycles_total",
		"Clock cycles measured on simulated MMMC circuits (Simulate mode).")
	m.queueWait = reg.Histogram("montsys_job_queue_wait_seconds",
		"Enqueue-to-dequeue wait of every job a core picked up.")
	m.exec = reg.Histogram("montsys_job_exec_seconds",
		"Dequeue-to-finish execution time of completed jobs.")
	m.failedLat = reg.Histogram("montsys_job_failed_latency_seconds",
		"Submit-to-finish latency of failed and canceled jobs.")
	m.ctxHits = reg.Counter("montsys_ctx_cache_hits_total",
		"Modulus-context LRU hits.")
	m.ctxMisses = reg.Counter("montsys_ctx_cache_misses_total",
		"Modulus-context LRU misses (precomputations run).")
	m.ctxEvictions = reg.Counter("montsys_ctx_cache_evictions_total",
		"Modulus contexts evicted from the LRU.")
	for ev := integEvent(0); ev < numEvents; ev++ {
		m.integrity[ev] = reg.CounterLabeled("montsys_integrity_events_total",
			"Engine integrity lifecycle events (failed checks, quarantines, probes, recomputes).",
			obs.Label("event", eventNames[ev]))
	}
	m.quarantined = reg.Gauge("montsys_quarantined_workers",
		"Worker cores currently benched by the integrity subsystem.")
	return m
}
