package engine

import (
	"context"
	"errors"
	"fmt"
	"math/big"
	"math/rand"
	"sync"
	"testing"
	"time"

	"repro/internal/errs"
	"repro/internal/expo"
	"repro/internal/faults"
	"repro/internal/mont"
)

// fakeClock is a hand-fired clock: After parks callers on channels the
// test releases one by one, so quarantine backoffs and watchdog budgets
// elapse exactly when the test says so.
type fakeClock struct {
	mu      sync.Mutex
	waiters []chan time.Time
}

func (c *fakeClock) After(d time.Duration) <-chan time.Time {
	ch := make(chan time.Time, 1)
	c.mu.Lock()
	c.waiters = append(c.waiters, ch)
	c.mu.Unlock()
	return ch
}

// fire releases the oldest parked waiter, polling until one shows up
// (the worker may not have reached its select yet) or the deadline
// passes.
func (c *fakeClock) fire(t *testing.T, deadline time.Duration) {
	t.Helper()
	stop := time.Now().Add(deadline)
	for {
		c.mu.Lock()
		if len(c.waiters) > 0 {
			ch := c.waiters[0]
			c.waiters = c.waiters[1:]
			c.mu.Unlock()
			ch <- time.Time{}
			return
		}
		c.mu.Unlock()
		if time.Now().After(stop) {
			t.Fatal("no clock waiter appeared")
		}
		time.Sleep(time.Millisecond)
	}
}

// waitFor polls cond until it holds or the deadline passes.
func waitFor(t *testing.T, d time.Duration, what string, cond func() bool) {
	t.Helper()
	stop := time.Now().Add(d)
	for !cond() {
		if time.Now().After(stop) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestQuarantineLifecycle is the full fault→quarantine→drain→reinstate
// story: a persistent stuck-at defect in 1 of 4 cores corrupts results,
// the integrity check catches every one, the poisoned core is benched
// while every answer comes back recomputed or clean, and once
// the fault clears a known-answer probe brings the core back.
func TestQuarantineLifecycle(t *testing.T) {
	inj := faults.New(faults.WithStuckAt(-1, 0), faults.WithCores(0), faults.WithSeed(11))
	clk := &fakeClock{}
	eng, err := New(
		WithWorkers(4),
		WithIntegrityCheck(),
		WithFaultInjector(inj),
		withClock(clk),
	)
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()

	rng := rand.New(rand.NewSource(21))
	n := randOdd(rng, 256)

	// Submit batches until the defect manifests on core 0 and benches
	// it. Which worker picks up which job is the scheduler's business —
	// a batch can even drain entirely on one core — so the loop, not a
	// single batch, is what guarantees core 0 eventually computes
	// (faultily) under its persistent defect.
	deadline := time.Now().Add(30 * time.Second)
	for eng.Stats().Quarantines == 0 {
		if time.Now().After(deadline) {
			t.Fatal("the stuck-at defect never manifested — test proves nothing")
		}
		jobs := make([]ModExpJob, 16)
		for i := range jobs {
			jobs[i] = ModExpJob{N: n, Base: new(big.Int).Rand(rng, n), Exp: big.NewInt(65537)}
		}
		results, err := eng.ModExpBatch(context.Background(), jobs)
		if err != nil {
			t.Fatal(err)
		}
		for i, r := range results {
			if r.Err != nil {
				t.Fatalf("job %d failed: %v", i, r.Err)
			}
			if want := new(big.Int).Exp(jobs[i].Base, jobs[i].Exp, n); r.Value.Cmp(want) != 0 {
				t.Fatalf("job %d: WRONG ANSWER reached the caller", i)
			}
		}
	}

	if inj.Injected() == 0 {
		t.Fatal("quarantine without an injected fault")
	}
	st := eng.Stats()
	if st.IntegrityFailures == 0 {
		t.Fatal("manifested faults but no integrity failures recorded")
	}
	if st.Quarantines == 0 {
		t.Fatal("integrity failures but no quarantine")
	}
	if st.Recomputes == 0 {
		t.Fatal("corrupted jobs but no recomputes")
	}
	if got := eng.HealthyWorkers(); got != 3 {
		t.Fatalf("HealthyWorkers = %d, want 3 (core 0 benched)", got)
	}

	// The fault is persistent, so a re-probe while it is armed must keep
	// the core benched... unless the stuck-at happens not to manifest on
	// any of the 16 KAT products, in which case the core is reinstated
	// and the next corrupt job re-benches it — either way no wrong
	// answer escapes. To keep this test deterministic we only probe
	// after healing the defect.
	inj.Clear()
	clk.fire(t, 5*time.Second) // release core 0's backoff sleep → probe
	waitFor(t, 5*time.Second, "reinstatement", func() bool {
		return eng.HealthyWorkers() == 4
	})
	if eng.Stats().Reinstatements == 0 {
		t.Fatal("healthy probe did not count a reinstatement")
	}

	// The reinstated core serves clean work again.
	v, _, err := eng.ModExp(context.Background(), n, big.NewInt(3), big.NewInt(1001))
	if err != nil {
		t.Fatal(err)
	}
	if want := new(big.Int).Exp(big.NewInt(3), big.NewInt(1001), n); v.Cmp(want) != 0 {
		t.Fatal("wrong answer after reinstatement")
	}
}

// TestIntegrityRecomputeOff: with recompute disabled a corrupted job
// surfaces as a wrapped ErrIntegrity instead of being healed — the mode
// chaos runs use to make corruption visible on the wire.
func TestIntegrityRecomputeOff(t *testing.T) {
	inj := faults.New(faults.WithBitFlip(-1), faults.WithSeed(5))
	eng, err := New(
		WithWorkers(1),
		WithIntegrityCheck(),
		WithIntegrityRecompute(false),
		WithFaultInjector(inj),
	)
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()

	rng := rand.New(rand.NewSource(31))
	n := randOdd(rng, 128)
	_, _, err = eng.ModExp(context.Background(), n, big.NewInt(7), big.NewInt(65537))
	if !errors.Is(err, errs.ErrIntegrity) {
		t.Fatalf("err = %v, want wrapped ErrIntegrity", err)
	}
	if eng.Stats().IntegrityFailures == 0 {
		t.Fatal("no integrity failure recorded")
	}
}

// TestZeroWrongAnswersUnderFaults hammers a faulty 4-core engine (every
// core flips bits on half its results) and requires every answer the
// engine returns to be correct — the end-to-end guarantee the whole
// subsystem exists for.
func TestZeroWrongAnswersUnderFaults(t *testing.T) {
	inj := faults.New(faults.WithBitFlip(-1), faults.WithRate(0.5), faults.WithSeed(77))
	eng, err := New(WithWorkers(4), WithIntegrityCheck(), WithFaultInjector(inj))
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()

	rng := rand.New(rand.NewSource(41))
	n := randOdd(rng, 192)
	jobs := make([]ModExpJob, 96)
	for i := range jobs {
		jobs[i] = ModExpJob{N: n, Base: new(big.Int).Rand(rng, n), Exp: big.NewInt(65537)}
	}
	results, err := eng.ModExpBatch(context.Background(), jobs)
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range results {
		if r.Err != nil {
			t.Fatalf("job %d failed: %v", i, r.Err)
		}
		if want := new(big.Int).Exp(jobs[i].Base, jobs[i].Exp, n); r.Value.Cmp(want) != 0 {
			t.Fatalf("job %d: WRONG ANSWER with integrity checking on", i)
		}
	}
	if inj.Injected() == 0 {
		t.Fatal("rate-0.5 injector never fired over 96 jobs")
	}
	// Mont products go through the same net.
	x := new(big.Int).Rand(rng, n)
	y := new(big.Int).Rand(rng, n)
	ctx, err := mont.NewCtx(n)
	if err != nil {
		t.Fatal(err)
	}
	v, err := eng.Mont(context.Background(), n, x, y)
	if err != nil {
		t.Fatal(err)
	}
	if v.Cmp(ctx.Mul(x, y)) != 0 {
		t.Fatal("Mont WRONG ANSWER with integrity checking on")
	}
}

// panicExp is a deliberately broken core: it panics partway through an
// exponentiation, the software analogue of a core whose control logic
// wedges.
type panicExp struct{}

func (panicExp) ModExp(base, exp *big.Int) (*big.Int, expo.Report, error) {
	panic("injected core panic")
}

func (panicExp) Mont(x, y *big.Int) (*big.Int, int, error) {
	panic("injected core panic")
}

// TestPanickingCoreRecovered: a panicking core must fail its job with a
// typed error and quarantine — never kill the process. With integrity +
// recompute on, the caller still gets the right answer via the inline
// math/big recompute.
func TestPanickingCoreRecovered(t *testing.T) {
	rng := rand.New(rand.NewSource(51))
	n := randOdd(rng, 128)
	want := new(big.Int).Exp(big.NewInt(5), big.NewInt(65537), n)

	t.Run("integrity off: typed failure", func(t *testing.T) {
		eng, err := New(
			WithWorkers(1),
			withFactory(func(worker int, ctx *mont.Ctx) (exponentiator, error) {
				return panicExp{}, nil
			}),
		)
		if err != nil {
			t.Fatal(err)
		}
		defer eng.Close()
		_, _, err = eng.ModExp(context.Background(), n, big.NewInt(5), big.NewInt(65537))
		if !errors.Is(err, errs.ErrIntegrity) {
			t.Fatalf("err = %v, want wrapped ErrIntegrity", err)
		}
		st := eng.Stats()
		if st.Panics != 1 || st.Quarantines != 1 {
			t.Fatalf("panics=%d quarantines=%d, want 1/1", st.Panics, st.Quarantines)
		}
	})

	t.Run("integrity on: healed inline", func(t *testing.T) {
		eng, err := New(
			WithWorkers(1),
			WithIntegrityCheck(),
			withFactory(func(worker int, ctx *mont.Ctx) (exponentiator, error) {
				return panicExp{}, nil
			}),
		)
		if err != nil {
			t.Fatal(err)
		}
		defer eng.Close()
		// Every core panics: the inline math/big recompute must answer.
		v, _, err := eng.ModExp(context.Background(), n, big.NewInt(5), big.NewInt(65537))
		if err != nil {
			t.Fatal(err)
		}
		if v.Cmp(want) != 0 {
			t.Fatal("inline recompute returned a wrong answer")
		}
		if eng.Stats().Panics == 0 {
			t.Fatal("panic not counted")
		}
	})
}

// blockingMul wedges its callers until the gate opens, then behaves
// like the reference core — a hung core the watchdog must catch
// without the stray goroutine corrupting later work.
type blockingMul struct {
	gate <-chan struct{}
	ctx  *mont.Ctx
}

func (b blockingMul) Mont(x, y *big.Int) (*big.Int, int, error) {
	<-b.gate
	return b.ctx.Mul(x, y), 0, nil
}

func (b blockingMul) ModExp(base, exp *big.Int) (*big.Int, expo.Report, error) {
	<-b.gate
	return new(big.Int).Exp(base, exp, b.ctx.N), expo.Report{}, nil
}

// TestWatchdogTimeout: a stuck job is abandoned when its k×(3l+4)-cycle
// budget elapses, failed with a typed error, and its core quarantined
// with a fresh kit while the stray goroutine keeps the old one.
func TestWatchdogTimeout(t *testing.T) {
	gate := make(chan struct{})
	clk := &fakeClock{}
	eng, err := New(
		WithWorkers(1),
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
	x := new(big.Int).Rand(rng, n)
	y := new(big.Int).Rand(rng, n)

	montErr := make(chan error, 1)
	go func() {
		_, err := eng.Mont(context.Background(), n, x, y)
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
	st := eng.Stats()
	if st.WatchdogTimeouts != 1 {
		t.Fatalf("WatchdogTimeouts = %d, want 1", st.WatchdogTimeouts)
	}
	if st.Quarantines != 1 {
		t.Fatalf("Quarantines = %d, want 1", st.Quarantines)
	}

	// Unwedge the stray goroutine and the re-probe path, then confirm
	// the reinstated worker computes correctly on its fresh kit.
	close(gate)
	waitFor(t, 5*time.Second, "reinstatement", func() bool {
		return eng.HealthyWorkers() == 1
	})
	ctx, err := mont.NewCtx(n)
	if err != nil {
		t.Fatal(err)
	}
	v, err := eng.Mont(context.Background(), n, x, y)
	if err != nil {
		t.Fatal(err)
	}
	if v.Cmp(ctx.Mul(x, y)) != 0 {
		t.Fatal("wrong Mont product after watchdog recovery")
	}
	if err := eng.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestWatchdogBudget pins the budget arithmetic to the paper's cycle
// counts: 3l+4 for a product, 6l²+14l+12 (Eq. 10) for an
// exponentiation, 1µs per cycle, scaled by k.
func TestWatchdogBudget(t *testing.T) {
	if got, want := cycleBound(kindMont, 512), int64(3*512+4); got != want {
		t.Fatalf("mont cycle bound = %d, want %d", got, want)
	}
	if got, want := cycleBound(kindModExp, 512), int64(6*512*512+14*512+12); got != want {
		t.Fatalf("modexp cycle bound = %d, want %d", got, want)
	}
	if got, want := watchdogBudget(2, kindMont, 512), time.Duration(2*(3*512+4))*time.Microsecond; got != want {
		t.Fatalf("budget = %v, want %v", got, want)
	}
	if watchdogBudget(0.0000001, kindMont, 4) <= 0 {
		t.Fatal("budget must stay positive")
	}
}

// TestIntegrityStatsString: once integrity activity exists, the Stats
// line reports it.
func TestIntegrityStatsString(t *testing.T) {
	inj := faults.New(faults.WithBitFlip(-1), faults.WithSeed(5))
	eng, err := New(WithWorkers(1), WithIntegrityCheck(), WithFaultInjector(inj))
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	rng := rand.New(rand.NewSource(71))
	n := randOdd(rng, 128)
	if _, _, err := eng.ModExp(context.Background(), n, big.NewInt(9), big.NewInt(65537)); err != nil {
		t.Fatal(err)
	}
	s := fmt.Sprint(eng.Stats())
	for _, want := range []string{"integ=", "quar=", "healthy="} {
		if !containsStr(s, want) {
			t.Fatalf("Stats string %q missing %q", s, want)
		}
	}
}

func containsStr(s, sub string) bool {
	for i := 0; i+len(sub) <= len(s); i++ {
		if s[i:i+len(sub)] == sub {
			return true
		}
	}
	return false
}
