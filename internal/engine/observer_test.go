package engine

import (
	"context"
	"math/big"
	"math/rand"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/obs"
)

// recordingObserver counts callbacks, for asserting hook placement
// without pulling the full collector in.
type recordingObserver struct {
	mu                             sync.Mutex
	submitted, started             int
	finished                       map[string]int // by outcome
	hits, misses, evictions        int
	sawWork, sawQueueWait, sawExec bool
}

func newRecordingObserver() *recordingObserver {
	return &recordingObserver{finished: make(map[string]int)}
}

func (r *recordingObserver) JobSubmitted(kind string) {
	r.mu.Lock()
	r.submitted++
	r.mu.Unlock()
}

func (r *recordingObserver) JobStarted(kind string, worker int, queueWait time.Duration) {
	r.mu.Lock()
	r.started++
	if queueWait >= 0 {
		r.sawQueueWait = true
	}
	r.mu.Unlock()
}

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

func (r *recordingObserver) CacheHit()                  { r.mu.Lock(); r.hits++; r.mu.Unlock() }
func (r *recordingObserver) CacheMiss()                 { r.mu.Lock(); r.misses++; r.mu.Unlock() }
func (r *recordingObserver) CacheEviction()             { r.mu.Lock(); r.evictions++; r.mu.Unlock() }
func (r *recordingObserver) IntegrityEvent(string, int) {}

// TestObserverLifecycle: every job produces exactly one submit, one
// start and one finish callback, with work accounting on successes.
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

	rec.mu.Lock()
	defer rec.mu.Unlock()
	if rec.submitted != count+1 || rec.started != count+1 {
		t.Errorf("submitted/started = %d/%d, want %d", rec.submitted, rec.started, count+1)
	}
	if rec.finished["ok"] != count || rec.finished["failed"] != 1 {
		t.Errorf("finished = %v", rec.finished)
	}
	if !rec.sawWork || !rec.sawQueueWait || !rec.sawExec {
		t.Errorf("missing measurements: work=%v qwait=%v exec=%v",
			rec.sawWork, rec.sawQueueWait, rec.sawExec)
	}
	if rec.misses == 0 {
		t.Error("no cache misses observed")
	}
}

// TestObserverCollectorAgreesWithStats runs the real obs.Collector as
// the observer and cross-checks its registry against engine.Stats —
// the two accounting paths must tell the same story.
func TestObserverCollectorAgreesWithStats(t *testing.T) {
	col := obs.NewCollector(obs.WithTracing(64))
	eng, err := New(WithWorkers(2), WithObserver(col))
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()

	rng := rand.New(rand.NewSource(7))
	n := randOdd(rng, 128)
	const count = 20
	jobs := make([]ModExpJob, count)
	for i := range jobs {
		jobs[i] = ModExpJob{N: n, Base: new(big.Int).Rand(rng, n), Exp: big.NewInt(65537)}
	}
	if _, err := eng.ModExpBatch(context.Background(), jobs); err != nil {
		t.Fatal(err)
	}
	st := eng.Stats()

	var sb strings.Builder
	if err := col.Registry().WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{
		`montsys_jobs_submitted_total{kind="modexp"} 20`,
		`montsys_job_outcomes_total{kind="modexp",outcome="ok"} 20`,
		`montsys_job_latency_seconds_count{kind="modexp"} 20`,
		"montsys_job_queue_wait_seconds_count 20",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("collector missing %q", want)
		}
	}
	if st.Completed != count || st.Latency.Count != count {
		t.Errorf("stats: completed=%d latency.count=%d", st.Completed, st.Latency.Count)
	}
	if tr := col.Tracer(); tr.Len() != count {
		t.Errorf("tracer holds %d spans, want %d", tr.Len(), count)
	}
	// Model-cycle totals agree between the two paths.
	if !strings.Contains(out, "montsys_model_cycles_total "+big.NewInt(st.ModelCycles).String()) {
		t.Errorf("model cycles disagree: stats=%d, metrics:\n%s", st.ModelCycles, out)
	}
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

// TestCtxCacheObserverHooks: hit/miss/eviction callbacks fire from the
// shared cache.
func TestCtxCacheObserverHooks(t *testing.T) {
	rec := newRecordingObserver()
	c := newCtxCache(1)
	c.obs = rec
	n1, n2 := big.NewInt(101), big.NewInt(103)
	for _, n := range []*big.Int{n1, n1, n2} { // miss, hit, miss+evict
		if _, err := c.get(n); err != nil {
			t.Fatal(err)
		}
	}
	if rec.hits != 1 || rec.misses != 2 || rec.evictions != 1 {
		t.Errorf("hooks: hits=%d misses=%d evictions=%d", rec.hits, rec.misses, rec.evictions)
	}
	if _, _, ev := c.counts(); ev != 1 {
		t.Errorf("eviction counter: %d", ev)
	}
}
