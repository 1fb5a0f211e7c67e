package engine

import (
	"context"
	"errors"
	"math/big"
	"math/rand"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/errs"
	"repro/internal/obs"
	"repro/internal/qos"
)

// recordingObserver keeps what the engine's callbacks deliver, for
// asserting hook placement without pulling the full collector in. Its
// nil Registry makes the engine count into a private one.
type recordingObserver struct {
	mu               sync.Mutex
	finished         map[string]int // by outcome
	sawWork, sawExec bool
}

func newRecordingObserver() *recordingObserver {
	return &recordingObserver{finished: make(map[string]int)}
}

func (r *recordingObserver) Registry() *obs.Registry { return nil }

func (r *recordingObserver) JobSpan(s obs.Span) {
	r.mu.Lock()
	r.finished[s.Outcome]++
	if s.Muls > 0 && s.ModelCycles > 0 {
		r.sawWork = true
	}
	if s.Exec > 0 {
		r.sawExec = true
	}
	r.mu.Unlock()
}

func (r *recordingObserver) IntegrityEvent(string, int) {}

// TestObserverLifecycle: every job produces exactly one span, with work
// accounting on successes, and the engine's own counters see every
// submission and dequeue.
func TestObserverLifecycle(t *testing.T) {
	rec := newRecordingObserver()
	eng, err := New(WithWorkers(2), WithObserver(rec))
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()

	n := big.NewInt(0xF1F1)
	const count = 12
	jobs := make([]ModExpJob, count)
	for i := range jobs {
		jobs[i] = ModExpJob{N: n, Base: big.NewInt(int64(i + 2)), Exp: big.NewInt(17)}
	}
	if _, err := eng.ModExpBatch(context.Background(), jobs); err != nil {
		t.Fatal(err)
	}
	// One invalid job → "failed" outcome.
	if _, _, err := eng.ModExp(context.Background(), big.NewInt(100), big.NewInt(2), big.NewInt(3)); err == nil {
		t.Fatal("even modulus accepted")
	}

	st := eng.Stats()
	if st.Submitted != count+1 || st.QueueWait.Count != count+1 {
		t.Errorf("submitted/dequeued = %d/%d, want %d", st.Submitted, st.QueueWait.Count, count+1)
	}
	if st.CtxMisses == 0 {
		t.Error("no cache misses counted")
	}
	rec.mu.Lock()
	defer rec.mu.Unlock()
	if rec.finished["ok"] != count || rec.finished["failed"] != 1 {
		t.Errorf("finished = %v", rec.finished)
	}
	if !rec.sawWork || !rec.sawExec {
		t.Errorf("missing measurements: work=%v exec=%v", rec.sawWork, rec.sawExec)
	}
}

// promSum adds up the integer samples of one metric family in a
// Prometheus text page, keeping the series whose labels contain every
// filter string.
func promSum(page, family string, filters ...string) int64 {
	var sum int64
	for _, line := range strings.Split(page, "\n") {
		sp := strings.LastIndexByte(line, ' ')
		if sp < 0 || strings.HasPrefix(line, "#") {
			continue
		}
		name := line[:sp]
		if name != family && !strings.HasPrefix(name, family+"{") {
			continue
		}
		keep := true
		for _, f := range filters {
			keep = keep && strings.Contains(name, f)
		}
		if v, err := strconv.ParseInt(line[sp+1:], 10, 64); err == nil && keep {
			sum += v
		}
	}
	return sum
}

// checkMetricsAgree renders col's registry after the engine closed and
// checks it tells Stats' story: an empty queue, the same outcome
// totals, and jobs_finished counting terminal outcomes only.
func checkMetricsAgree(t *testing.T, phase string, col *obs.Collector, st Stats) string {
	t.Helper()
	var sb strings.Builder
	if err := col.Registry().WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	page := sb.String()
	if got := promSum(page, "montsys_queue_depth"); got != 0 || !strings.Contains(page, "\nmontsys_queue_depth 0\n") {
		t.Errorf("%s: montsys_queue_depth %d after Close, want 0", phase, got)
	}
	for _, c := range []struct {
		outcome string
		want    int64
	}{{"ok", st.Completed}, {"failed", st.Failed}, {"canceled", st.Canceled}} {
		if got := promSum(page, "montsys_job_outcomes_total", `outcome="`+c.outcome+`"`); got != c.want {
			t.Errorf("%s: outcome %q: /metrics %d, Stats %d", phase, c.outcome, got, c.want)
		}
	}
	terminal := st.Completed + st.Failed + st.Canceled
	if got := promSum(page, "montsys_jobs_finished_total"); got != terminal {
		t.Errorf("%s: montsys_jobs_finished_total %d, want %d terminal outcomes", phase, got, terminal)
	}
	return page
}

// TestObserverCollectorAgreesWithStats runs the real obs.Collector as
// the observer and cross-checks its /metrics page against
// engine.Stats in two phases — clean traffic and overload sheds — so
// the two views must tell the same story on the failure path too
// (TestIntegrityRecomputeOneSpanPerJob adds the integrity recompute).
func TestObserverCollectorAgreesWithStats(t *testing.T) {
	t.Run("clean", func(t *testing.T) {
		col := obs.NewCollector(obs.WithTracing(64))
		eng, err := New(WithWorkers(2), WithCtxCacheSize(1), WithObserver(col))
		if err != nil {
			t.Fatal(err)
		}
		rng := rand.New(rand.NewSource(7))
		n1, n2 := randOdd(rng, 128), randOdd(rng, 128)
		const count = 20
		jobs := make([]ModExpJob, count)
		for i := range jobs {
			n := n1
			if i%2 == 1 {
				n = n2
			}
			jobs[i] = ModExpJob{N: n, Base: new(big.Int).Rand(rng, n), Exp: big.NewInt(65537)}
		}
		if _, err := eng.ModExpBatch(context.Background(), jobs); err != nil {
			t.Fatal(err)
		}
		// A Mont job past its deadline → canceled.
		if _, err := eng.MontBatch(context.Background(), []MontJob{
			{N: n1, X: big.NewInt(3), Y: big.NewInt(5), Deadline: time.Now().Add(-time.Second)},
		}); err != nil {
			t.Fatal(err)
		}
		if err := eng.Close(); err != nil {
			t.Fatal(err)
		}
		st := eng.Stats()
		out := checkMetricsAgree(t, "clean", col, st)
		for _, want := range []string{
			`montsys_jobs_submitted_total{kind="modexp"} 20`,
			`montsys_jobs_submitted_total{kind="mont"} 1`,
			`montsys_job_outcomes_total{kind="modexp",outcome="ok"} 20`,
			`montsys_job_outcomes_total{kind="mont",outcome="canceled"} 1`,
			`montsys_job_latency_seconds_count{kind="modexp"} 20`,
			"montsys_job_failed_latency_seconds_count 1",
			"montsys_job_queue_wait_seconds_count 21",
			"montsys_job_exec_seconds_count 20",
			"# TYPE montsys_job_latency_seconds histogram",
			`montsys_mont_muls_total{kind="modexp"} ` + strconv.FormatInt(st.Muls, 10),
			"montsys_model_cycles_total " + strconv.FormatInt(st.ModelCycles, 10),
			"montsys_ctx_cache_hits_total " + strconv.FormatInt(st.CtxHits, 10),
			"montsys_ctx_cache_misses_total " + strconv.FormatInt(st.CtxMisses, 10),
			"montsys_ctx_cache_evictions_total " + strconv.FormatInt(st.CtxEvictions, 10),
			"montsys_queue_high_watermark " + strconv.FormatInt(st.QueueHighWater, 10),
		} {
			if !strings.Contains(out, want) {
				t.Errorf("collector missing %q", want)
			}
		}
		if st.Completed != count || st.Latency.Count != count || st.Canceled != 1 {
			t.Errorf("stats: completed=%d latency.count=%d canceled=%d",
				st.Completed, st.Latency.Count, st.Canceled)
		}
		if st.CtxEvictions == 0 {
			t.Error("two moduli over a one-entry context cache evicted nothing")
		}
		if tr := col.Tracer(); tr.Len() != count+1 {
			t.Errorf("tracer holds %d spans, want %d", tr.Len(), count+1)
		}
	})

	t.Run("shed", func(t *testing.T) {
		col := obs.NewCollector()
		eng, err := New(WithWorkers(1), WithQueueDepth(2), WithObserver(col))
		if err != nil {
			t.Fatal(err)
		}
		rng := rand.New(rand.NewSource(11))
		n := randOdd(rng, 1024)
		// 256-bit exponents keep the core busy for tens of
		// milliseconds per job, so the queue stays full long enough to
		// be seen.
		batch := func() []ModExpJob {
			jobs := make([]ModExpJob, 6)
			for i := range jobs {
				jobs[i] = ModExpJob{N: n, Base: new(big.Int).Rand(rng, n), Exp: randOdd(rng, 256)}
			}
			return jobs
		}
		beJobs, intJobs := batch(), batch()
		beCtx := qos.WithIdentity(context.Background(), qos.Identity{Tenant: "bulk", Class: qos.BestEffort})
		intCtx := qos.WithIdentity(context.Background(), qos.Identity{Tenant: "live", Class: qos.Interactive})

		beDone := make(chan []ModExpResult, 1)
		go func() {
			res, _ := eng.ModExpBatch(beCtx, beJobs)
			beDone <- res
		}()
		// Let the best-effort jobs fill the queue, so interactive
		// submissions have something to shed.
		waitFor(t, 5*time.Second, "a full queue", func() bool { return eng.Stats().QueueDepth >= 2 })
		intRes, err := eng.ModExpBatch(intCtx, intJobs)
		if err != nil {
			t.Fatal(err)
		}
		var overloaded int64
		for _, r := range append(<-beDone, intRes...) {
			if errors.Is(r.Err, errs.ErrOverloaded) {
				overloaded++
			} else if r.Err != nil {
				t.Errorf("unexpected job error: %v", r.Err)
			}
		}
		if err := eng.Close(); err != nil {
			t.Fatal(err)
		}
		st := eng.Stats()
		if overloaded == 0 || st.Sheds != overloaded {
			t.Errorf("Sheds = %d, ErrOverloaded results = %d (want equal and > 0)", st.Sheds, overloaded)
		}
		checkMetricsAgree(t, "shed", col, st)
	})
}

// TestFailedJobsHaveLatency: canceled and failed jobs land in
// FailedLatency rather than vanishing from the accounting.
func TestFailedJobsHaveLatency(t *testing.T) {
	eng, err := New(WithWorkers(1))
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()

	// Expired per-job deadline → canceled.
	n := big.NewInt(0xF1F1)
	res, err := eng.ModExpBatch(context.Background(), []ModExpJob{
		{N: n, Base: big.NewInt(5), Exp: big.NewInt(3), Deadline: time.Now().Add(-time.Second)},
	})
	if err != nil || res[0].Err == nil {
		t.Fatalf("expired job: err=%v res=%v", err, res[0].Err)
	}
	// Even modulus → failed.
	if _, _, err := eng.ModExp(context.Background(), big.NewInt(100), big.NewInt(2), big.NewInt(3)); err == nil {
		t.Fatal("even modulus accepted")
	}

	st := eng.Stats()
	if st.Canceled != 1 || st.Failed != 1 {
		t.Fatalf("canceled=%d failed=%d", st.Canceled, st.Failed)
	}
	if st.FailedLatency.Count != 2 {
		t.Errorf("failed-latency histogram holds %d samples, want 2", st.FailedLatency.Count)
	}
	if st.Latency.Count != 0 {
		t.Errorf("completed-latency histogram holds %d samples, want 0", st.Latency.Count)
	}
}

// TestQueueHighWatermark: with one worker and a deep queue, the
// high-watermark reflects the backlog and survives the drain.
func TestQueueHighWatermark(t *testing.T) {
	eng, err := New(WithWorkers(1), WithQueueDepth(64))
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()

	rng := rand.New(rand.NewSource(3))
	n := randOdd(rng, 256)
	const count = 16
	jobs := make([]ModExpJob, count)
	for i := range jobs {
		exp := new(big.Int).Rand(rng, n)
		exp.SetBit(exp, 0, 1)
		jobs[i] = ModExpJob{N: n, Base: new(big.Int).Rand(rng, n), Exp: exp}
	}
	if _, err := eng.ModExpBatch(context.Background(), jobs); err != nil {
		t.Fatal(err)
	}
	st := eng.Stats()
	if st.QueueDepth != 0 {
		t.Errorf("queue not drained: %d", st.QueueDepth)
	}
	// One worker, 16 jobs submitted as fast as the queue accepts them:
	// the backlog must have reached at least a few jobs.
	if st.QueueHighWater < 2 {
		t.Errorf("high watermark %d, want ≥ 2", st.QueueHighWater)
	}
	if st.QueueHighWater > count {
		t.Errorf("high watermark %d exceeds submissions", st.QueueHighWater)
	}
}

// TestStatsStringMentionsNewFields keeps the one-line render in sync
// with the new accounting.
func TestStatsStringMentionsNewFields(t *testing.T) {
	s := Stats{Workers: 1}
	for _, want := range []string{"evict=", "hw=", "p50=", "p99=", "qwait_p99="} {
		if !strings.Contains(s.String(), want) {
			t.Errorf("Stats.String missing %q: %s", want, s.String())
		}
	}
}

// TestCtxCacheObserverHooks: context-cache hits, misses and evictions
// land on the observer's registry, and Stats reads the same counts.
func TestCtxCacheObserverHooks(t *testing.T) {
	col := obs.NewCollector()
	eng, err := New(WithWorkers(1), WithCtxCacheSize(1), WithObserver(col))
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	n1, n2 := big.NewInt(101), big.NewInt(103)
	for _, n := range []*big.Int{n1, n1, n2} { // miss, hit, miss+evict
		if _, err := eng.modCtx(n); err != nil {
			t.Fatal(err)
		}
	}
	st := eng.Stats()
	if st.CtxHits != 1 || st.CtxMisses != 2 || st.CtxEvictions != 1 {
		t.Errorf("stats: hits=%d misses=%d evictions=%d", st.CtxHits, st.CtxMisses, st.CtxEvictions)
	}
	var sb strings.Builder
	if err := col.Registry().WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		"montsys_ctx_cache_hits_total 1",
		"montsys_ctx_cache_misses_total 2",
		"montsys_ctx_cache_evictions_total 1",
	} {
		if !strings.Contains(sb.String(), want) {
			t.Errorf("/metrics missing %q", want)
		}
	}
}
