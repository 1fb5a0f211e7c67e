package engine

import (
	"fmt"
	"time"

	"repro/internal/kits"
	"repro/internal/obs"
	"repro/internal/qos"
)

// Stats is a consistent-enough snapshot of the engine's counters.
// Completed + Failed + Canceled = jobs finished; Submitted − finished −
// QueueDepth = jobs currently executing on a core.
type Stats struct {
	Workers        int
	Submitted      int64
	Completed      int64
	Failed         int64
	Canceled       int64
	QueueDepth     int64
	QueueHighWater int64 // deepest the submission queue has been
	Sheds          int64 // queued jobs evicted by shed-lowest-class-first

	// LaneDepths is the per-class queue split at snapshot time, indexed
	// by qos.Class (interactive, batch, best-effort).
	LaneDepths [qos.NumClasses]int

	Muls         int64 // Montgomery products across all cores
	ModelCycles  int64 // cycles by the paper's §4.5 accounting
	SimCycles    int64 // cycles measured on simulated circuits
	CtxHits      int64 // modulus-context LRU hits
	CtxMisses    int64 // modulus-context LRU misses (precomputations run)
	CtxEvictions int64 // modulus contexts dropped at LRU capacity

	// KitJobs counts completed jobs by the kit that computed them: the
	// engine's kit, plus kits.Big for every job an integrity failure
	// sent to the inline math/big recompute.
	KitJobs map[kits.Kit]int64

	// Integrity subsystem (all zero unless WithIntegrityCheck or the
	// watchdog is in effect or a core panicked).
	IntegrityFailures int64 // results refuted by a residue/re-verification check
	Panics            int64 // core panics recovered into job failures
	WatchdogTimeouts  int64 // jobs declared stuck past their cycle budget
	Quarantines       int64 // cores benched by the integrity subsystem
	Reinstatements    int64 // benched cores returned after a clean probe
	Recomputes        int64 // corrupted jobs redone inline on math/big
	HealthyWorkers    int   // workers currently serving (not quarantined)

	// Latency distributions, all in nanoseconds. Latency covers
	// completed jobs submit→finish; FailedLatency covers failed and
	// canceled jobs (they used to vanish from latency accounting
	// entirely); QueueWait and ExecTime split Latency into scheduling
	// delay vs. compute.
	Latency       obs.HistogramSnapshot
	FailedLatency obs.HistogramSnapshot
	QueueWait     obs.HistogramSnapshot
	ExecTime      obs.HistogramSnapshot

	TotalWall time.Duration // summed latency of completed jobs
}

// Stats snapshots the engine's registered instruments — the same ones
// /metrics renders — plus the engine-local shed count, lane split and
// healthy-worker count.
func (e *Engine) Stats() Stats {
	m := e.met
	s := Stats{
		Workers:        e.cfg.workers,
		QueueDepth:     m.queueDepth.Value(),
		QueueHighWater: m.queueHighWater.Value(),
		Sheds:          e.sheds.Load(),
		LaneDepths:     e.laneDepths(),
		ModelCycles:    m.modelCycles.Value(),
		SimCycles:      m.simCycles.Value(),
		CtxHits:        m.ctxHits.Value(),
		CtxMisses:      m.ctxMisses.Value(),
		CtxEvictions:   m.ctxEvictions.Value(),
		KitJobs:        make(map[kits.Kit]int64, 2),

		IntegrityFailures: m.integrity[evCheckFailed].Value(),
		Panics:            m.integrity[evPanic].Value(),
		WatchdogTimeouts:  m.integrity[evWatchdog].Value(),
		Quarantines:       m.integrity[evQuarantine].Value(),
		Reinstatements:    m.integrity[evReinstate].Value(),
		Recomputes:        m.integrity[evRecompute].Value(),
		HealthyWorkers:    int(e.healthy.Load()),

		Latency:       obs.Merge(m.latency[:]...),
		FailedLatency: m.failedLat.Snapshot(),
		QueueWait:     m.queueWait.Snapshot(),
		ExecTime:      m.exec.Snapshot(),
	}
	for k := jobKind(0); k < numKinds; k++ {
		s.Submitted += m.submitted[k].Value()
		s.Completed += m.outcomes[k][outcomeOK].Value()
		s.Failed += m.outcomes[k][outcomeFailed].Value()
		s.Canceled += m.outcomes[k][outcomeCanceled].Value()
		s.Muls += m.muls[k].Value()
	}
	for kt, h := range m.kitLat {
		if h == nil {
			continue
		}
		if n := h.Snapshot().Count; n > 0 {
			s.KitJobs[kits.Kit(kt)] = n
		}
	}
	s.TotalWall = time.Duration(s.Latency.Sum)
	return s
}

// laneDepths snapshots the per-class queue split.
func (e *Engine) laneDepths() (d [qos.NumClasses]int) {
	for c := qos.Class(0); c < qos.NumClasses; c++ {
		d[c] = e.sched.laneDepth(c)
	}
	return d
}

// MeanLatency returns the average submit→finish latency of completed
// jobs, 0 if none completed.
func (s Stats) MeanLatency() time.Duration {
	if s.Completed == 0 {
		return 0
	}
	return s.TotalWall / time.Duration(s.Completed)
}

// String renders the snapshot as one line, loadgen/debug friendly.
// Integrity counters appear only when something happened — the common
// clean-path line stays as short as before.
func (s Stats) String() string {
	line := fmt.Sprintf(
		"workers=%d submitted=%d completed=%d failed=%d canceled=%d queue=%d hw=%d "+
			"muls=%d ctx=%d/%d evict=%d mean=%s p50=%s p99=%s max=%s qwait_p99=%s",
		s.Workers, s.Submitted, s.Completed, s.Failed, s.Canceled, s.QueueDepth,
		s.QueueHighWater, s.Muls, s.CtxHits, s.CtxHits+s.CtxMisses, s.CtxEvictions,
		s.MeanLatency(), time.Duration(s.Latency.P50), time.Duration(s.Latency.P99),
		time.Duration(s.Latency.Max), time.Duration(s.QueueWait.P99))
	if s.Sheds > 0 {
		line += fmt.Sprintf(" sheds=%d lanes=%d/%d/%d",
			s.Sheds, s.LaneDepths[0], s.LaneDepths[1], s.LaneDepths[2])
	}
	if s.IntegrityFailures+s.Panics+s.WatchdogTimeouts+s.Quarantines > 0 {
		line += fmt.Sprintf(" integ=%d panics=%d watchdog=%d recomputed=%d quar=%d/%d healthy=%d/%d",
			s.IntegrityFailures, s.Panics, s.WatchdogTimeouts, s.Recomputes,
			s.Quarantines, s.Reinstatements, s.HealthyWorkers, s.Workers)
	}
	// Per-kit spread, only when some kit other than the default ran
	// jobs — the all-Model common case stays as short as before.
	nonModel := false
	for k, v := range s.KitJobs {
		if k != kits.Model && v > 0 {
			nonModel = true
			break
		}
	}
	if nonModel {
		for i := 0; i < kits.NumKits; i++ {
			if v := s.KitJobs[kits.Kit(i)]; v > 0 {
				line += fmt.Sprintf(" kit_%s=%d", kits.Kit(i), v)
			}
		}
	}
	return line
}
