package engine

import (
	"context"
	"errors"
	"math/big"
	"math/rand"
	"sync"
	"testing"
	"time"

	"repro/internal/errs"
	"repro/internal/faults"
	"repro/internal/kits"
	"repro/internal/mont"
	"repro/internal/obs"
	"repro/internal/qos"
)

// spanRecorder is an Observer that keeps every span the engine
// delivers through JobSpan.
type spanRecorder struct {
	mu    sync.Mutex
	spans []obs.Span
}

func (r *spanRecorder) Registry() *obs.Registry    { return nil }
func (r *spanRecorder) IntegrityEvent(string, int) {}
func (r *spanRecorder) JobSpan(s obs.Span) {
	r.mu.Lock()
	r.spans = append(r.spans, s)
	r.mu.Unlock()
}

// byOutcome returns the recorded spans bucketed by outcome.
func (r *spanRecorder) byOutcome() map[string][]obs.Span {
	r.mu.Lock()
	defer r.mu.Unlock()
	m := map[string][]obs.Span{}
	for _, s := range r.spans {
		m[s.Outcome] = append(m[s.Outcome], s)
	}
	return m
}

// TestJobSpanOncePerJob: every job lands in JobSpan exactly once, OK
// spans carrying the kit and the work accounting.
func TestJobSpanOncePerJob(t *testing.T) {
	rec := &spanRecorder{}
	eng, err := New(WithWorkers(2), WithObserver(rec))
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()

	n := big.NewInt(0xF1F1)
	const count = 6
	jobs := make([]ModExpJob, count)
	for i := range jobs {
		jobs[i] = ModExpJob{N: n, Base: big.NewInt(int64(i + 2)), Exp: big.NewInt(17)}
	}
	if _, err := eng.ModExpBatch(context.Background(), jobs); err != nil {
		t.Fatal(err)
	}

	by := rec.byOutcome()
	if len(by["ok"]) != count || len(by) != 1 {
		t.Fatalf("spans by outcome = %d ok of %d buckets, want %d ok only", len(by["ok"]), len(by), count)
	}
	for _, s := range by["ok"] {
		if s.Kit == "" {
			t.Errorf("ok span missing its kit: %+v", s)
		}
		if s.Muls == 0 || s.ModelCycles == 0 {
			t.Errorf("ok span missing work accounting: %+v", s)
		}
	}
}

// TestJobSpanCanceled: a job whose deadline expired before a worker
// picked it up finishes as a "canceled" span that still carries the
// sampled request's trace ids — failures must stay joined to their
// trace, or the traces that matter most are the ones with holes.
func TestJobSpanCanceled(t *testing.T) {
	rec := &spanRecorder{}
	eng, err := New(WithWorkers(1), WithObserver(rec))
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()

	tc := obs.TraceContext{TraceID: obs.NewTraceID(), SpanID: obs.NewSpanID(), Sampled: true}
	ctx := obs.ContextWithTrace(context.Background(), tc)
	n := big.NewInt(0xF1F1)
	res, err := eng.ModExpBatch(ctx, []ModExpJob{
		{N: n, Base: big.NewInt(5), Exp: big.NewInt(3), Deadline: time.Now().Add(-time.Second)},
	})
	if err != nil || res[0].Err == nil {
		t.Fatalf("expired job: err=%v res=%v", err, res[0].Err)
	}

	by := rec.byOutcome()
	if len(by["canceled"]) != 1 {
		t.Fatalf("canceled spans = %d, want 1 (%v)", len(by["canceled"]), by)
	}
	s := by["canceled"][0]
	if s.TraceID != tc.TraceID || s.Parent != tc.SpanID || s.SpanID.IsZero() {
		t.Fatalf("canceled span lost its trace join: %+v", s)
	}
	if s.Kit != "" {
		t.Errorf("canceled span claims a kit: %+v", s)
	}
}

// TestJobSpanShed: a queued job shed under overload finishes as one
// "failed" span that keeps its sampled request's trace ids, so a shed
// request still shows in the trace and the wide events. No core ran
// it: worker −1, no execution time, no kit.
func TestJobSpanShed(t *testing.T) {
	gate := make(chan struct{})
	rec := &spanRecorder{}
	eng, err := New(WithWorkers(1), WithQueueDepth(1), WithObserver(rec),
		withFactory(func(worker int, ctx *mont.Ctx) (exponentiator, error) {
			return blockingMul{gate: gate, ctx: ctx}, nil
		}))
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()

	n := big.NewInt(0xF1F1)
	job := []ModExpJob{{N: n, Base: big.NewInt(5), Exp: big.NewInt(3)}}
	tc := obs.TraceContext{TraceID: obs.NewTraceID(), SpanID: obs.NewSpanID(), Sampled: true}
	beCtx := qos.WithIdentity(obs.ContextWithTrace(context.Background(), tc),
		qos.Identity{Tenant: "bulk", Class: qos.BestEffort})

	// Wedge the core on one job, queue the sampled best-effort job
	// behind it, then let an interactive job shed it.
	var wg sync.WaitGroup
	run := func(ctx context.Context) chan []ModExpResult {
		out := make(chan []ModExpResult, 1)
		wg.Add(1)
		go func() {
			defer wg.Done()
			res, _ := eng.ModExpBatch(ctx, job)
			out <- res
		}()
		return out
	}
	run(context.Background())
	waitFor(t, 5*time.Second, "the core to take the first job", func() bool {
		return eng.Stats().QueueWait.Count == 1
	})
	shed := run(beCtx)
	waitFor(t, 5*time.Second, "a queued job", func() bool { return eng.Stats().QueueDepth == 1 })
	run(context.Background())
	res := <-shed
	close(gate)
	wg.Wait()

	if !errors.Is(res[0].Err, errs.ErrOverloaded) {
		t.Fatalf("best-effort job: err = %v, want ErrOverloaded", res[0].Err)
	}
	by := rec.byOutcome()
	if len(by["failed"]) != 1 || len(by["ok"]) != 2 {
		t.Fatalf("spans by outcome = %v, want 1 failed and 2 ok", by)
	}
	s := by["failed"][0]
	if s.TraceID != tc.TraceID || s.Parent != tc.SpanID || s.SpanID.IsZero() {
		t.Errorf("shed span lost its trace join: %+v", s)
	}
	if s.Worker != -1 || s.Exec != 0 || s.Kit != "" || s.QueueWait <= 0 {
		t.Errorf("shed span: %+v", s)
	}
	if st := eng.Stats(); st.Sheds != 1 || st.Failed != 1 {
		t.Errorf("Sheds = %d, Failed = %d, want 1 and 1", st.Sheds, st.Failed)
	}
}

// TestJobSpanIntegrityFailed: a corrupted result that integrity
// checking catches (recompute off, so the failure surfaces) finishes
// as a "failed" span, trace ids intact.
func TestJobSpanIntegrityFailed(t *testing.T) {
	rec := &spanRecorder{}
	eng, err := New(
		WithWorkers(1),
		WithObserver(rec),
		WithFaultInjector(faults.New(faults.WithRate(1), faults.WithSeed(1), faults.WithBitFlip(-1))),
		WithIntegrityCheck(),
		WithIntegrityRecompute(false),
	)
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()

	tc := obs.TraceContext{TraceID: obs.NewTraceID(), SpanID: obs.NewSpanID(), Sampled: true}
	ctx := obs.ContextWithTrace(context.Background(), tc)
	rng := rand.New(rand.NewSource(21))
	n := randOdd(rng, 64)
	_, _, err = eng.ModExp(ctx, n, big.NewInt(5), big.NewInt(65537))
	if !errors.Is(err, errs.ErrIntegrity) {
		t.Fatalf("err = %v, want wrapped ErrIntegrity", err)
	}

	by := rec.byOutcome()
	if len(by["failed"]) != 1 {
		t.Fatalf("failed spans = %d, want 1 (%v)", len(by["failed"]), by)
	}
	s := by["failed"][0]
	if s.TraceID != tc.TraceID || s.Parent != tc.SpanID {
		t.Fatalf("failed span lost its trace join: %+v", s)
	}
	if len(by["ok"]) != 0 {
		t.Errorf("corrupted job also finished ok: %v", by["ok"])
	}
}

// TestJobSpanWatchdogAbandoned: a job the watchdog abandons finishes
// as a "failed" span — the stuck goroutine never reports, the worker
// does, so the trace still closes.
func TestJobSpanWatchdogAbandoned(t *testing.T) {
	gate := make(chan struct{})
	clk := &fakeClock{}
	rec := &spanRecorder{}
	eng, err := New(
		WithWorkers(1),
		WithObserver(rec),
		withWatchdog(4),
		withClock(clk),
		withFactory(func(worker int, ctx *mont.Ctx) (exponentiator, error) {
			return blockingMul{gate: gate, ctx: ctx}, nil
		}),
	)
	if err != nil {
		t.Fatal(err)
	}

	rng := rand.New(rand.NewSource(61))
	n := randOdd(rng, 64)
	tc := obs.TraceContext{TraceID: obs.NewTraceID(), SpanID: obs.NewSpanID(), Sampled: true}
	ctx := obs.ContextWithTrace(context.Background(), tc)

	montErr := make(chan error, 1)
	go func() {
		_, err := eng.Mont(ctx, n, big.NewInt(5), big.NewInt(7))
		montErr <- err
	}()
	clk.fire(t, 5*time.Second) // expire the watchdog budget
	select {
	case err := <-montErr:
		if !errors.Is(err, errs.ErrIntegrity) {
			t.Fatalf("err = %v, want wrapped ErrIntegrity", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("watchdog never fired")
	}

	by := rec.byOutcome()
	if len(by["failed"]) != 1 {
		t.Fatalf("failed spans = %d, want 1 (%v)", len(by["failed"]), by)
	}
	if s := by["failed"][0]; s.TraceID != tc.TraceID {
		t.Fatalf("watchdog span lost its trace join: %+v", s)
	}
	if eng.Stats().WatchdogTimeouts != 1 {
		t.Fatalf("WatchdogTimeouts = %d, want 1", eng.Stats().WatchdogTimeouts)
	}

	// Unwedge the stray goroutine so the engine can close cleanly.
	close(gate)
	waitFor(t, 5*time.Second, "reinstatement", func() bool {
		return eng.HealthyWorkers() == 1
	})
	if err := eng.Close(); err != nil {
		t.Fatal(err)
	}
}

// spanTee is the real collector with every job span also kept in a
// spanRecorder, so a test can count spans and read /metrics together.
type spanTee struct {
	*obs.Collector
	rec spanRecorder
}

func (t *spanTee) JobSpan(s obs.Span) {
	t.rec.JobSpan(s)
	t.Collector.JobSpan(s)
}

// TestIntegrityRecomputeOneSpanPerJob: with recompute on, every
// corrupt result is redone inline on math/big and its job still ends
// exactly once — one ok span with the right answer, one terminal
// outcome, the recompute counted under kit big — and the queue gauge
// comes back to rest.
func TestIntegrityRecomputeOneSpanPerJob(t *testing.T) {
	tee := &spanTee{Collector: obs.NewCollector()}
	inj := faults.New(faults.WithBitFlip(-1), faults.WithRate(0.5), faults.WithSeed(9))
	eng, err := New(
		WithWorkers(4),
		WithKit(kits.CIOS),
		WithObserver(tee),
		WithFaultInjector(inj),
		WithIntegrityCheck(),
	)
	if err != nil {
		t.Fatal(err)
	}

	rng := rand.New(rand.NewSource(29))
	n := randOdd(rng, 256)
	ctx, err := mont.NewCtx(n)
	if err != nil {
		t.Fatal(err)
	}
	const count = 48
	exps := make([]ModExpJob, count)
	monts := make([]MontJob, count)
	for i := range exps {
		exps[i] = ModExpJob{N: n, Base: new(big.Int).Rand(rng, n), Exp: big.NewInt(65537)}
		monts[i] = MontJob{N: n, X: new(big.Int).Rand(rng, ctx.N2), Y: new(big.Int).Rand(rng, ctx.N2)}
	}
	expRes, err := eng.ModExpBatch(context.Background(), exps)
	if err != nil {
		t.Fatal(err)
	}
	montRes, err := eng.MontBatch(context.Background(), monts)
	if err != nil {
		t.Fatal(err)
	}
	if err := eng.Close(); err != nil {
		t.Fatal(err)
	}
	for i, r := range expRes {
		if r.Err != nil || r.Value.Cmp(new(big.Int).Exp(exps[i].Base, exps[i].Exp, n)) != 0 {
			t.Fatalf("modexp job %d: value %v, err %v: not math/big's answer", i, r.Value, r.Err)
		}
	}
	for i, r := range montRes {
		// CIOS and the math/big recompute both answer below N.
		if r.Err != nil || r.Value.Cmp(ctx.MulClosedForm(monts[i].X, monts[i].Y)) != 0 {
			t.Fatalf("mont job %d: value %v, err %v: not the closed form", i, r.Value, r.Err)
		}
	}

	st := eng.Stats()
	if inj.Injected() == 0 || st.Recomputes == 0 {
		t.Fatalf("injected %d faults, %d recomputes: the test proves nothing", inj.Injected(), st.Recomputes)
	}
	if st.Recomputes != st.KitJobs[kits.Big] {
		t.Errorf("Recomputes = %d, KitJobs[big] = %d, want equal", st.Recomputes, st.KitJobs[kits.Big])
	}
	if st.KitJobs[kits.CIOS]+st.KitJobs[kits.Big] != 2*count {
		t.Errorf("KitJobs = %v, want %d jobs between cios and big", st.KitJobs, 2*count)
	}
	if sum := st.Completed + st.Failed + st.Canceled; sum != st.Submitted || st.Completed != 2*count {
		t.Errorf("outcomes ok=%d failed=%d canceled=%d sum to %d, submitted %d",
			st.Completed, st.Failed, st.Canceled, sum, st.Submitted)
	}
	if st.QueueDepth != 0 {
		t.Errorf("QueueDepth = %d after Close, want 0", st.QueueDepth)
	}
	by := tee.rec.byOutcome()
	if len(by["ok"]) != 2*count || len(by) != 1 {
		t.Errorf("spans: %d ok in %d outcome buckets, want %d ok only", len(by["ok"]), len(by), 2*count)
	}
	var bigSpans int64
	for _, s := range by["ok"] {
		if s.Kit == kits.Big.String() {
			bigSpans++
		}
	}
	if bigSpans != st.Recomputes {
		t.Errorf("%d spans on kit big, want one per recompute (%d)", bigSpans, st.Recomputes)
	}
	t.Logf("%s", st)
	checkMetricsAgree(t, "recompute", tee.Collector, st)
}
