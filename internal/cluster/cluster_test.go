package cluster

import (
	"context"
	"crypto/rand"
	"errors"
	"fmt"
	"io"
	"math/big"
	"net"
	"sync"
	"testing"
	"time"

	"repro/internal/cryptosvc"
	"repro/internal/engine"
	"repro/internal/errs"
	"repro/internal/server"
)

// startBackend boots a real engine + wire server on 127.0.0.1:0, like a
// montsysd would, and returns the pieces a routing test needs: the
// server (to drain it mid-test), the engine (to read its context-cache
// stats), and the address.
func startBackend(t *testing.T, engOpts []engine.Option, srvOpts []server.Option) (*server.Server, *engine.Engine, string) {
	t.Helper()
	eng, err := engine.New(engOpts...)
	if err != nil {
		t.Fatal(err)
	}
	srv, err := server.NewServer(eng, srvOpts...)
	if err != nil {
		eng.Close()
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		eng.Close()
		t.Fatal(err)
	}
	serveErr := make(chan error, 1)
	go func() { serveErr <- srv.Serve(ln) }()
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		srv.Shutdown(ctx) // tests that drained already get an error we ignore
		// A test can finish before the Serve goroutine is scheduled at
		// all; Serve then observes the shutdown and returns ErrDraining,
		// which is fine.
		if err := <-serveErr; err != nil && !errors.Is(err, errs.ErrDraining) {
			t.Errorf("Serve: %v", err)
		}
		eng.Close()
	})
	return srv, eng, ln.Addr().String()
}

// front stands c up behind a forwarding wire server on loopback, the
// composition montsyslb runs, and returns a client of it. The client
// makes no retries of its own, so every failover and ejection a test
// sees is the cluster's.
func front(t *testing.T, c *Cluster, srvOpts ...server.Option) *server.Client {
	t.Helper()
	srv, err := server.NewForwardingServer(c, srvOpts...)
	if err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve(ln)
	cl := server.Dial(ln.Addr().String(), server.WithMaxRetries(0))
	t.Cleanup(func() {
		cl.Close()
		srv.Close()
	})
	return cl
}

// testModulus returns a random odd l-bit modulus.
func testModulus(t *testing.T, l int) *big.Int {
	t.Helper()
	n, err := rand.Prime(rand.Reader, l)
	if err != nil {
		t.Fatal(err)
	}
	return n
}

func wantModExp(n, base, exp *big.Int) *big.Int {
	return new(big.Int).Exp(base, exp, n)
}

// A two-backend cluster answers single ops and batches correctly.
func TestClusterModExpAndBatch(t *testing.T) {
	_, _, a1 := startBackend(t, []engine.Option{engine.WithWorkers(2)}, nil)
	_, _, a2 := startBackend(t, []engine.Option{engine.WithWorkers(2)}, nil)
	c, err := New([]string{a1, a2})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	cl := front(t, c)

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	n := testModulus(t, 256)
	for i := 0; i < 8; i++ {
		base := big.NewInt(int64(1000 + i))
		exp := big.NewInt(int64(65537 + i))
		got, err := cl.ModExp(ctx, n, base, exp)
		if err != nil {
			t.Fatalf("ModExp: %v", err)
		}
		if got.Cmp(wantModExp(n, base, exp)) != 0 {
			t.Fatalf("ModExp wrong result for i=%d", i)
		}
	}

	jobs := make([]engine.ModExpJob, 6)
	for i := range jobs {
		jobs[i] = engine.ModExpJob{N: n, Base: big.NewInt(int64(7 + i)), Exp: big.NewInt(int64(101 + i))}
	}
	res, err := cl.ModExpBatch(ctx, jobs)
	if err != nil {
		t.Fatalf("ModExpBatch: %v", err)
	}
	if len(res) != len(jobs) {
		t.Fatalf("batch returned %d results for %d jobs", len(res), len(jobs))
	}
	for i, r := range res {
		if r.Err != nil {
			t.Fatalf("job %d: %v", i, r.Err)
		}
		if r.Value.Cmp(wantModExp(jobs[i].N, jobs[i].Base, jobs[i].Exp)) != 0 {
			t.Fatalf("job %d: wrong value", i)
		}
	}

	if got := len(c.Status()); got != 2 {
		t.Fatalf("Status() has %d backends, want 2", got)
	}
	for _, st := range c.Status() {
		if !st.Up {
			t.Fatalf("healthy backend status %+v", st)
		}
	}
}

// Affinity routing partitions the modulus space: with single-worker
// engines, each distinct modulus precomputes its Montgomery context on
// exactly ONE backend, so the fleet-wide miss count equals the number
// of distinct moduli. (Random or least-inflight routing would
// precompute most moduli on both backends.)
func TestClusterAffinityPartitionsCtxCache(t *testing.T) {
	_, e1, a1 := startBackend(t, []engine.Option{engine.WithWorkers(1)}, nil)
	_, e2, a2 := startBackend(t, []engine.Option{engine.WithWorkers(1)}, nil)
	c, err := New([]string{a1, a2}, WithHedging(false)) // determinism: no hedges to a non-home backend
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	cl := front(t, c)

	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	const moduli = 12
	ns := make([]*big.Int, moduli)
	for i := range ns {
		ns[i] = testModulus(t, 192)
	}
	// Three passes over the working set, sequentially (in-flight is zero
	// at each pick, so no spills).
	total := 0
	for pass := 0; pass < 3; pass++ {
		for i, n := range ns {
			base, exp := big.NewInt(int64(2+i)), big.NewInt(int64(65537+pass))
			got, err := cl.ModExp(ctx, n, base, exp)
			if err != nil {
				t.Fatalf("ModExp: %v", err)
			}
			if got.Cmp(wantModExp(n, base, exp)) != 0 {
				t.Fatal("wrong result")
			}
			total++
		}
	}

	misses := e1.Stats().CtxMisses + e2.Stats().CtxMisses
	if misses != moduli {
		t.Errorf("fleet ctx-cache misses = %d, want exactly %d (one home per modulus)", misses, moduli)
	}
	if hits := c.met.affinityHits.Value(); hits != int64(total) {
		t.Errorf("affinity hits = %d, want %d (every pick should be an affinity hit)", hits, total)
	}
	if e1.Stats().CtxMisses == 0 || e2.Stats().CtxMisses == 0 {
		t.Errorf("moduli did not spread: misses %d / %d", e1.Stats().CtxMisses, e2.Stats().CtxMisses)
	}
}

// The drain-failover acceptance test: one of two backends is drained
// mid-flight (exactly what SIGTERM triggers in montsysd) and every
// request — in-flight, retried, and new — completes with zero
// client-visible errors.
func TestClusterDrainFailoverZeroErrors(t *testing.T) {
	srv1, _, a1 := startBackend(t,
		[]engine.Option{engine.WithWorkers(2)},
		[]server.Option{server.WithMaxInflight(256)})
	_, _, a2 := startBackend(t,
		[]engine.Option{engine.WithWorkers(2)},
		[]server.Option{server.WithMaxInflight(256)})
	c, err := New([]string{a1, a2},
		WithProbeInterval(20*time.Millisecond),
		WithProbeTimeout(time.Second),
		WithRetryBudget(1.0, 64), // generous: the test wants zero errors, not budget pressure
	)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	cl := front(t, c)

	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	n := testModulus(t, 192)

	const workers, perWorker = 8, 25
	var wg sync.WaitGroup
	errc := make(chan error, workers*perWorker)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				base := big.NewInt(int64(w*1000 + i + 2))
				exp := big.NewInt(int64(65537 + i))
				got, err := cl.ModExp(ctx, n, base, exp)
				if err != nil {
					errc <- fmt.Errorf("worker %d req %d: %w", w, i, err)
					return
				}
				if got.Cmp(wantModExp(n, base, exp)) != 0 {
					errc <- fmt.Errorf("worker %d req %d: wrong result", w, i)
					return
				}
			}
		}(w)
	}

	// Pull one backend out from under the load, mid-flight.
	drained := make(chan struct{})
	go func() {
		defer close(drained)
		time.Sleep(30 * time.Millisecond)
		sctx, scancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer scancel()
		if err := srv1.Shutdown(sctx); err != nil {
			errc <- fmt.Errorf("drain: %w", err)
		}
	}()

	wg.Wait()
	<-drained
	close(errc)
	for err := range errc {
		t.Error(err)
	}

	// The probes must have noticed: the drained backend is out of
	// rotation by now (it answered draining or its listener is gone).
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if st := c.Status(); !st[0].Up {
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Error("drained backend still in rotation after 5s of probes")
}

// A cluster whose every backend is unreachable surfaces a typed
// ErrBackendDown.
func TestClusterAllBackendsDown(t *testing.T) {
	addr := deadAddr(t)
	c, err := New([]string{addr},
		WithProbeInterval(time.Hour), // no probe interference
		WithClientOptions(server.WithDialTimeout(time.Second)))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	cl := front(t, c)

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	_, err = cl.ModExp(ctx, big.NewInt(13), big.NewInt(2), big.NewInt(5))
	if !errors.Is(err, errs.ErrBackendDown) {
		t.Fatalf("error does not wrap ErrBackendDown: %v", err)
	}
}

// Health probes eject a dead backend and reinstate it when it returns
// on the same address.
func TestClusterEjectAndReinstate(t *testing.T) {
	eng1, err := engine.New(engine.WithWorkers(1))
	if err != nil {
		t.Fatal(err)
	}
	srv1, err := server.NewServer(eng1)
	if err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	serveErr := make(chan error, 1)
	go func() { serveErr <- srv1.Serve(ln) }()

	c, err := New([]string{addr},
		WithProbeInterval(10*time.Millisecond),
		WithProbeTimeout(200*time.Millisecond),
		WithFailThreshold(2),
		WithReinstateBackoff(10*time.Millisecond, 50*time.Millisecond))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	cl := front(t, c)

	waitUp := func(want bool, what string) {
		t.Helper()
		deadline := time.Now().Add(10 * time.Second)
		for time.Now().Before(deadline) {
			if c.Status()[0].Up == want {
				return
			}
			time.Sleep(5 * time.Millisecond)
		}
		t.Fatalf("timeout waiting for %s", what)
	}

	// Kill the backend; probes eject it.
	sctx, scancel := context.WithTimeout(context.Background(), 5*time.Second)
	srv1.Shutdown(sctx)
	scancel()
	<-serveErr
	eng1.Close()
	waitUp(false, "ejection of a dead backend")

	// Resurrect it on the same address; backed-off probes reinstate it.
	eng2, err := engine.New(engine.WithWorkers(1))
	if err != nil {
		t.Fatal(err)
	}
	srv2, err := server.NewServer(eng2)
	if err != nil {
		t.Fatal(err)
	}
	ln2, err := net.Listen("tcp", addr)
	if err != nil {
		t.Skipf("could not rebind %s: %v", addr, err) // port stolen between listens: rare, not our bug
	}
	serveErr2 := make(chan error, 1)
	go func() { serveErr2 <- srv2.Serve(ln2) }()
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		srv2.Shutdown(ctx)
		<-serveErr2
		eng2.Close()
	})
	waitUp(true, "reinstatement of a recovered backend")

	// And it serves again.
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	n := testModulus(t, 128)
	got, err := cl.ModExp(ctx, n, big.NewInt(3), big.NewInt(19))
	if err != nil {
		t.Fatalf("ModExp after reinstatement: %v", err)
	}
	if got.Cmp(wantModExp(n, big.NewInt(3), big.NewInt(19))) != 0 {
		t.Fatal("wrong result after reinstatement")
	}
}

// startStuckBackend listens for connections it accepts and never
// answers, swallowing every byte — the worst failure mode: no error,
// just silence. It returns the listen address.
func startStuckBackend(t *testing.T) string {
	t.Helper()
	stuck, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { stuck.Close() })
	go func() {
		for {
			nc, err := stuck.Accept()
			if err != nil {
				return
			}
			go func(nc net.Conn) { defer nc.Close(); io.Copy(io.Discard, nc) }(nc)
		}
	}()
	return stuck.Addr().String()
}

// A backend that accepts connections but never answers (the worst
// failure mode: no error, just silence) is rescued by the hedge — the
// request races onto the healthy backend and completes.
func TestClusterHedgesPastStuckBackend(t *testing.T) {
	_, _, healthy := startBackend(t, []engine.Option{engine.WithWorkers(1)}, nil)
	addrs := []string{startStuckBackend(t), healthy}

	c, err := New(addrs,
		WithProbeInterval(time.Hour), // probes must not eject the stuck backend mid-test
		WithHedgeDelayBounds(5*time.Millisecond, 20*time.Millisecond))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	cl := front(t, c)

	// A modulus whose affinity home is the stuck backend: the primary
	// pick is guaranteed to hang and only the hedge can win.
	n := modulusHomedOn(t, addrs, addrs[0])

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	got, err := cl.ModExp(ctx, n, big.NewInt(2), big.NewInt(10))
	if err != nil {
		t.Fatalf("hedged ModExp: %v", err)
	}
	if got.Cmp(wantModExp(n, big.NewInt(2), big.NewInt(10))) != 0 {
		t.Fatal("wrong result from hedge")
	}
	if c.met.hedges.Value() < 1 {
		t.Error("no hedge launched against a stuck primary")
	}
	if c.met.hedgeWins.Value() < 1 {
		t.Error("hedge launched but did not win against a stuck primary")
	}

	// Ops answered per item are never hedged: homed on the stuck
	// backend, a batch waits out its context instead of racing a copy
	// onto the healthy one.
	var qx *big.Int
	for i := int64(1); ; i++ {
		cand := big.NewInt(i)
		h := cryptosvc.ECDSAKeyHandle(cryptosvc.CurveP256, cand, cand)
		if hrwScore(h, addrs[0]) > hrwScore(h, addrs[1]) {
			qx = cand
			break
		}
	}
	item := cryptosvc.ECDSAVerifyItem{Qx: qx, Qy: qx, R: big.NewInt(1), S: big.NewInt(1), Digest: big.NewInt(1)}
	for _, tc := range []struct {
		name string
		call func(context.Context) error
	}{
		{"batch_modexp", func(ctx context.Context) error {
			_, err := cl.ModExpBatch(ctx, []engine.ModExpJob{{N: n, Base: big.NewInt(2), Exp: big.NewInt(10)}})
			return err
		}},
		{"verify_ecdsa_batch", func(ctx context.Context) error {
			_, err := cl.VerifyECDSABatch(ctx, cryptosvc.CurveP256, []cryptosvc.ECDSAVerifyItem{item})
			return err
		}},
	} {
		hedges := c.met.hedges.Value()
		bctx, bcancel := context.WithTimeout(context.Background(), 300*time.Millisecond)
		err := tc.call(bctx)
		bcancel()
		if !errors.Is(err, context.DeadlineExceeded) {
			t.Errorf("%s homed on the stuck backend: err = %v, want DeadlineExceeded", tc.name, err)
		}
		if d := c.met.hedges.Value() - hedges; d != 0 {
			t.Errorf("%s launched %d hedges; per-item ops must never hedge", tc.name, d)
		}
	}
}

// Calls after Close fail fast with ErrEngineClosed.
func TestClusterClosed(t *testing.T) {
	_, _, a1 := startBackend(t, []engine.Option{engine.WithWorkers(1)}, nil)
	c, err := New([]string{a1})
	if err != nil {
		t.Fatal(err)
	}
	cl := front(t, c)
	c.Close()
	c.Close() // idempotent
	_, err = cl.ModExp(context.Background(), big.NewInt(13), big.NewInt(2), big.NewInt(5))
	if !errors.Is(err, errs.ErrEngineClosed) {
		t.Fatalf("post-Close error = %v, want ErrEngineClosed", err)
	}
}

// Duplicate and empty addresses are dropped; an empty pool is an error.
func TestClusterNewValidation(t *testing.T) {
	if _, err := New(nil); err == nil {
		t.Error("New(nil) succeeded")
	}
	if _, err := New([]string{"", ""}); err == nil {
		t.Error("New with only empty addresses succeeded")
	}
	_, _, a1 := startBackend(t, []engine.Option{engine.WithWorkers(1)}, nil)
	c, err := New([]string{a1, a1, ""})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if got := c.Status(); len(got) != 1 || got[0].Addr != a1 {
		t.Fatalf("Status() = %v, want just %s deduped", got, a1)
	}
}
