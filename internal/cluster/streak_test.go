package cluster

import (
	"context"
	"fmt"
	"math/big"
	"net"
	"testing"
	"time"

	"repro/internal/engine"
	"repro/internal/errs"
	"repro/internal/server"
)

// deadAddr returns a loopback address nothing listens on (nothing will
// ever listen there again, probably).
func deadAddr(t *testing.T) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	ln.Close()
	return addr
}

// streakCluster is a two-backend cluster, one live and one dead, whose
// probes never run on their own: every probe outcome in these tests is
// applied by hand through probed, the same function the probe loop
// calls. It returns a client of its front, the dead backend and a
// modulus homed on it, so every request tries the dead backend first.
func streakCluster(t *testing.T) (*Cluster, *server.Client, *backend, *big.Int) {
	t.Helper()
	_, _, live := startBackend(t, []engine.Option{engine.WithWorkers(1)}, nil)
	dead := deadAddr(t)
	c, err := New([]string{dead, live},
		WithHedging(false),
		WithProbeInterval(time.Hour),
		WithFailThreshold(3),
		WithClientOptions(server.WithDialTimeout(time.Second)))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	var db *backend
	for _, b := range c.pool.Load().backends {
		if b.addr == dead {
			db = b
		}
	}
	return c, front(t, c), db, modulusHomedOn(t, []string{dead, live}, dead)
}

// modExpOK runs one request and fails the test on any client-visible
// error or wrong answer.
func modExpOK(t *testing.T, cl *server.Client, n *big.Int, e int64) {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	got, err := cl.ModExp(ctx, n, big.NewInt(3), big.NewInt(e))
	if err != nil {
		t.Fatalf("ModExp: client saw %v, want free failover", err)
	}
	if got.Cmp(wantModExp(n, big.NewInt(3), big.NewInt(e))) != 0 {
		t.Fatal("wrong answer")
	}
}

// Exactly failThreshold live ErrBackendDown answers eject a dead
// backend, and the client never sees one of them.
func TestStreakLiveFailuresEjectAtThreshold(t *testing.T) {
	c, cl, db, n := streakCluster(t)
	for i := 1; i <= 3; i++ {
		modExpOK(t, cl, n, int64(i))
		if got := db.transportStreak.Load(); got != int64(i) {
			t.Fatalf("after %d live failures streak = %d", i, got)
		}
		if wantUp := i < 3; db.up() != wantUp {
			t.Fatalf("after %d live failures up = %v, want %v (threshold 3)", i, db.up(), wantUp)
		}
	}
	if got := db.met.ejections.Value(); got != 1 {
		t.Fatalf("ejections = %d, want 1", got)
	}
	if got := c.met.failovers.Value(); got != 3 {
		t.Fatalf("failovers = %d, want 3 (one per live failure)", got)
	}
	// Out of rotation: the next request goes straight to the live backend.
	picks := db.met.picks["affinity"].Value()
	modExpOK(t, cl, n, 4)
	if db.met.picks["affinity"].Value() != picks {
		t.Fatal("ejected backend still picked")
	}
}

// A success in between — live or probe — resets the streak, so
// non-consecutive failures never eject.
func TestStreakSuccessResets(t *testing.T) {
	c, cl, db, n := streakCluster(t)
	modExpOK(t, cl, n, 1)
	modExpOK(t, cl, n, 2)
	c.observe(db, nil, time.Millisecond) // a live success
	if got := db.transportStreak.Load(); got != 0 {
		t.Fatalf("streak after a live success = %d, want 0", got)
	}
	modExpOK(t, cl, n, 3)
	modExpOK(t, cl, n, 4)
	c.probed(db, nil) // a probe success
	if got := db.transportStreak.Load(); got != 0 {
		t.Fatalf("streak after a probe success = %d, want 0", got)
	}
	modExpOK(t, cl, n, 5)
	modExpOK(t, cl, n, 6)
	if !db.up() || db.met.ejections.Value() != 0 {
		t.Fatal("non-consecutive failures ejected the backend")
	}
}

// A failed probe and a live failure add to the same count.
func TestStreakProbeAndLiveShareCount(t *testing.T) {
	c, cl, db, n := streakCluster(t)
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	probe := func() {
		_, err := db.cl.Ping(ctx)
		if err == nil {
			t.Fatal("probe of a dead backend succeeded")
		}
		c.probed(db, err)
	}
	probe()
	modExpOK(t, cl, n, 1)
	if !db.up() {
		t.Fatal("ejected after 2 of 3 failures")
	}
	probe()
	if db.up() {
		t.Fatal("probe, live, probe failures did not eject at threshold 3")
	}
	if got := db.met.probeFailures.Value(); got != 2 {
		t.Fatalf("probe failures = %d, want 2", got)
	}
	if got := db.met.ejections.Value(); got != 1 {
		t.Fatalf("ejections = %d, want 1", got)
	}
}

// Live traffic never reinstates an ejected backend; only a successful
// probe does. One draining answer ejects at once.
func TestStreakOnlyProbeReinstates(t *testing.T) {
	c, cl, db, n := streakCluster(t)
	for i := 1; i <= 3; i++ {
		modExpOK(t, cl, n, int64(i))
	}
	if db.up() {
		t.Fatal("not ejected at threshold")
	}
	// A request picked before the ejection may still answer afterwards.
	c.observe(db, nil, time.Millisecond)
	if db.up() {
		t.Fatal("a live success reinstated an ejected backend")
	}
	c.probed(db, nil)
	if !db.up() || db.met.up.Value() != 1 {
		t.Fatal("a successful probe did not reinstate the backend")
	}
	if got := db.met.reinstatements.Value(); got != 1 {
		t.Fatalf("reinstatements = %d, want 1", got)
	}
	c.observe(db, fmt.Errorf("backend: %w", errs.ErrDraining), time.Millisecond)
	if db.up() || db.met.up.Value() != 0 {
		t.Fatal("a live draining answer did not eject")
	}
	if got := db.met.ejections.Value(); got != 2 {
		t.Fatalf("ejections = %d, want 2", got)
	}
}
