package cluster

import (
	"context"
	"math/big"
	"testing"
	"time"

	"repro/internal/engine"
	"repro/internal/faults"
)

// TestClusterIntegrityFailover is the end-to-end chaos story in one
// process: a two-backend fleet where one backend's only core flips a
// bit in every result. That backend runs integrity checking with
// recompute off, so it answers with the integrity wire code instead of
// a wrong value; the cluster fails those answers over for free, ejects
// the backend after the consecutive-failure threshold, and the client
// sees nothing but correct results.
func TestClusterIntegrityFailover(t *testing.T) {
	faultyOpts := []engine.Option{
		engine.WithWorkers(1),
		engine.WithIntegrityCheck(),
		engine.WithIntegrityRecompute(false),
		engine.WithFaultInjector(faults.New(faults.WithBitFlip(-1), faults.WithSeed(9))),
	}
	_, _, faulty := startBackend(t, faultyOpts, nil)
	_, _, healthy := startBackend(t, []engine.Option{engine.WithWorkers(1)}, nil)

	// Long probe interval: once the faulty backend is ejected it stays
	// out for the rest of the test (its transport Ping still succeeds,
	// so a probe would reinstate it — deliberately, see the package doc
	// on integrity ejection being a duty cycle).
	c, err := New([]string{faulty, healthy},
		WithHedging(false),
		WithProbeInterval(10*time.Minute),
		WithIntegrityEjectThreshold(3),
	)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	cl := front(t, c)

	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()

	// Distinct moduli spread the affinity homes across both backends,
	// so the faulty one keeps being picked until it is ejected.
	for i := 0; i < 24; i++ {
		n := testModulus(t, 128)
		base := big.NewInt(int64(100 + i))
		exp := big.NewInt(65537)
		got, err := cl.ModExp(ctx, n, base, exp)
		if err != nil {
			t.Fatalf("ModExp %d: %v", i, err)
		}
		if got.Cmp(wantModExp(n, base, exp)) != 0 {
			t.Fatalf("ModExp %d: WRONG ANSWER reached the client", i)
		}
	}

	var fb *backend
	for _, b := range c.pool.Load().backends {
		if b.addr == faulty {
			fb = b
		}
	}
	if fb.met.integrityFailures.Value() == 0 {
		t.Fatal("faulty backend never produced an integrity answer — routing starved it")
	}
	if c.met.failovers.Value() == 0 {
		t.Fatal("integrity answers did not fail over")
	}
	if fb.met.ejections.Value() == 0 {
		t.Fatalf("no ejection after %d integrity failures (threshold 3)",
			fb.met.integrityFailures.Value())
	}
	if fb.up() {
		t.Fatal("persistently corrupting backend still in rotation")
	}

	// Ejected-and-benched: further traffic lands on the healthy backend
	// and keeps being correct.
	n := testModulus(t, 128)
	got, err := cl.ModExp(ctx, n, big.NewInt(3), big.NewInt(1001))
	if err != nil {
		t.Fatal(err)
	}
	if got.Cmp(wantModExp(n, big.NewInt(3), big.NewInt(1001))) != 0 {
		t.Fatal("wrong answer after ejection")
	}
}

// TestClusterIntegrityStreakReset: a success from a backend resets its
// consecutive-integrity-failure streak, so sporadic (one-shot) faults
// never eject.
func TestClusterIntegrityStreakReset(t *testing.T) {
	// One-shot fault: exactly one corrupted answer, then clean forever.
	faultyOpts := []engine.Option{
		engine.WithWorkers(1),
		engine.WithIntegrityCheck(),
		engine.WithIntegrityRecompute(false),
		engine.WithFaultInjector(faults.New(
			faults.WithBitFlip(-1), faults.WithSeed(13), faults.WithOneShot())),
	}
	_, _, a1 := startBackend(t, faultyOpts, nil)
	c, err := New([]string{a1},
		WithHedging(false),
		WithProbeInterval(10*time.Minute),
		WithIntegrityEjectThreshold(2),
	)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	cl := front(t, c)

	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	n := testModulus(t, 128)

	// Single backend: the one corrupted answer cannot fail over anywhere
	// else, so the first call errors. That is expected — this test is
	// about the streak, not the failover.
	sawIntegrity := false
	for i := 0; i < 8; i++ {
		_, err := cl.ModExp(ctx, n, big.NewInt(int64(5+i)), big.NewInt(65537))
		if err != nil {
			sawIntegrity = true
		}
	}
	if !sawIntegrity {
		t.Fatal("one-shot fault never surfaced")
	}
	b := c.pool.Load().backends[0]
	if b.met.ejections.Value() != 0 {
		t.Fatal("a single integrity failure ejected the backend despite threshold 2")
	}
	if !b.up() {
		t.Fatal("backend out of rotation after its streak was broken by successes")
	}
	if b.integrityStreak.Load() != 0 {
		t.Fatalf("streak = %d after clean answers, want 0", b.integrityStreak.Load())
	}
}
