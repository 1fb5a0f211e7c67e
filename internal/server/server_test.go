package server

import (
	"bytes"
	"context"
	"errors"
	"math/big"
	"math/rand"
	"net"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/engine"
	"repro/internal/errs"
)

// testModulus returns a deterministic odd l-bit modulus.
func testModulus(t testing.TB, rng *rand.Rand, l int) *big.Int {
	t.Helper()
	n := new(big.Int).Rand(rng, new(big.Int).Lsh(big.NewInt(1), uint(l-1)))
	n.SetBit(n, l-1, 1)
	n.SetBit(n, 0, 1)
	return n
}

// startServer boots an engine and a server on a loopback port and
// registers cleanup. The engine is returned so tests can also call it
// directly for equivalence checks.
func startServer(t testing.TB, engOpts []engine.Option, srvOpts []Option) (*Server, *engine.Engine, string) {
	t.Helper()
	eng, err := engine.New(engOpts...)
	if err != nil {
		t.Fatal(err)
	}
	srv, err := NewServer(eng, srvOpts...)
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
		srv.Shutdown(ctx) // idempotent-ish; tests that drained already get an error we ignore
		if err := <-serveErr; err != nil {
			t.Errorf("Serve: %v", err)
		}
		eng.Close()
	})
	return srv, eng, ln.Addr().String()
}

// The acceptance-criteria core: N concurrent clients × batched ModExp
// over TCP return results identical to direct engine calls (and to
// math/big).
func TestConcurrentBatchesMatchEngine(t *testing.T) {
	_, eng, addr := startServer(t,
		[]engine.Option{engine.WithWorkers(4)}, nil)

	rng := rand.New(rand.NewSource(7))
	moduli := []*big.Int{
		testModulus(t, rng, 96), testModulus(t, rng, 128), testModulus(t, rng, 160),
	}
	const clients, perBatch = 4, 8
	type out struct {
		jobs    []engine.ModExpJob
		viaWire []engine.ModExpResult
	}
	outs := make([]out, clients)
	var mu sync.Mutex
	batches := make([][]engine.ModExpJob, clients)
	for ci := range batches {
		jobs := make([]engine.ModExpJob, perBatch)
		for i := range jobs {
			n := moduli[(ci+i)%len(moduli)]
			base := new(big.Int).Rand(rng, n)
			exp := new(big.Int).Rand(rng, n)
			exp.SetBit(exp, 0, 1)
			jobs[i] = engine.ModExpJob{N: n, Base: base, Exp: exp}
		}
		batches[ci] = jobs
	}

	var wg sync.WaitGroup
	for ci := 0; ci < clients; ci++ {
		wg.Add(1)
		go func(ci int) {
			defer wg.Done()
			cl := Dial(addr, WithPoolSize(1))
			defer cl.Close()
			res, err := cl.ModExpBatch(context.Background(), batches[ci])
			if err != nil {
				t.Errorf("client %d: %v", ci, err)
				return
			}
			mu.Lock()
			outs[ci] = out{jobs: batches[ci], viaWire: res}
			mu.Unlock()
		}(ci)
	}
	wg.Wait()
	if t.Failed() {
		return
	}

	for ci, o := range outs {
		direct, err := eng.ModExpBatch(context.Background(), o.jobs)
		if err != nil {
			t.Fatal(err)
		}
		for i := range o.jobs {
			if o.viaWire[i].Err != nil || direct[i].Err != nil {
				t.Fatalf("client %d job %d: errs wire=%v direct=%v",
					ci, i, o.viaWire[i].Err, direct[i].Err)
			}
			if o.viaWire[i].Value.Cmp(direct[i].Value) != 0 {
				t.Fatalf("client %d job %d: wire and direct engine disagree", ci, i)
			}
			want := new(big.Int).Exp(o.jobs[i].Base, o.jobs[i].Exp, o.jobs[i].N)
			if o.viaWire[i].Value.Cmp(want) != 0 {
				t.Fatalf("client %d job %d: wrong value", ci, i)
			}
		}
	}
}

// A single pipelined connection carries concurrent calls, answered by
// request id regardless of completion order, for every op.
func TestPipelinedConnection(t *testing.T) {
	_, eng, addr := startServer(t, []engine.Option{engine.WithWorkers(4)}, nil)
	rng := rand.New(rand.NewSource(11))
	n := testModulus(t, rng, 128)

	cl := Dial(addr, WithPoolSize(1))
	defer cl.Close()

	var wg sync.WaitGroup
	for i := 0; i < 16; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			base := big.NewInt(int64(i + 2))
			if i%2 == 0 {
				exp := big.NewInt(int64(1000 + i))
				got, err := cl.ModExp(context.Background(), n, base, exp)
				if err != nil {
					t.Errorf("modexp %d: %v", i, err)
					return
				}
				if want := new(big.Int).Exp(base, exp, n); got.Cmp(want) != 0 {
					t.Errorf("modexp %d: wrong value", i)
				}
			} else {
				y := big.NewInt(int64(3000 + i))
				got, err := cl.Mont(context.Background(), n, base, y)
				if err != nil {
					t.Errorf("mont %d: %v", i, err)
					return
				}
				want, err := eng.Mont(context.Background(), n, base, y)
				if err != nil {
					t.Errorf("mont direct %d: %v", i, err)
					return
				}
				if got.Cmp(want) != 0 {
					t.Errorf("mont %d: wire and direct disagree", i)
				}
			}
		}(i)
	}
	wg.Wait()
}

// Batch items fail individually: one even modulus poisons only its own
// slot, and the sentinel survives the wire.
func TestBatchPerItemErrors(t *testing.T) {
	_, _, addr := startServer(t, []engine.Option{engine.WithWorkers(2)}, nil)
	rng := rand.New(rand.NewSource(13))
	n := testModulus(t, rng, 96)

	cl := Dial(addr)
	defer cl.Close()
	jobs := []engine.ModExpJob{
		{N: n, Base: big.NewInt(3), Exp: big.NewInt(7)},
		{N: big.NewInt(100), Base: big.NewInt(3), Exp: big.NewInt(7)}, // even
		{N: n, Base: big.NewInt(5), Exp: big.NewInt(11)},
	}
	res, err := cl.ModExpBatch(context.Background(), jobs)
	if err != nil {
		t.Fatal(err)
	}
	if res[0].Err != nil || res[2].Err != nil {
		t.Fatalf("good items failed: %v %v", res[0].Err, res[2].Err)
	}
	if !errors.Is(res[1].Err, errs.ErrEvenModulus) {
		t.Fatalf("even modulus item: %v", res[1].Err)
	}
	for _, i := range []int{0, 2} {
		want := new(big.Int).Exp(jobs[i].Base, jobs[i].Exp, jobs[i].N)
		if res[i].Value.Cmp(want) != 0 {
			t.Fatalf("item %d wrong", i)
		}
	}
}

// waitFor polls until cond holds or the deadline passes.
func waitFor(t *testing.T, d time.Duration, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(d)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(time.Millisecond)
	}
}

// Admission control fast-fails with ErrOverloaded once the in-flight
// bound is hit — no queueing behind the slow job, no latency blowup.
func TestOverloadFastFail(t *testing.T) {
	srv, _, addr := startServer(t,
		[]engine.Option{engine.WithWorkers(1)},
		[]Option{WithMaxInflight(1)})
	rng := rand.New(rand.NewSource(17))
	slow := testModulus(t, rng, 1024)
	exp := new(big.Int).Rand(rng, slow)
	exp.SetBit(exp, 0, 1)

	blocker := Dial(addr, WithMaxRetries(0))
	defer blocker.Close()
	done := make(chan error, 1)
	go func() {
		_, err := blocker.ModExp(context.Background(), slow, big.NewInt(3), exp)
		done <- err
	}()
	waitFor(t, 5*time.Second, "slow job admission", func() bool {
		return srv.met.inflight.Value() == 1
	})

	cl := Dial(addr, WithMaxRetries(0))
	defer cl.Close()
	t0 := time.Now()
	_, err := cl.ModExp(context.Background(), slow, big.NewInt(5), big.NewInt(3))
	fast := time.Since(t0)
	if !errors.Is(err, errs.ErrOverloaded) {
		t.Fatalf("want ErrOverloaded, got %v", err)
	}
	if fast > 2*time.Second {
		t.Fatalf("overload rejection took %s — queued instead of fast-failing", fast)
	}
	if err := <-done; err != nil {
		t.Fatalf("blocker job: %v", err)
	}
}

// Graceful drain: Shutdown lets the admitted slow request finish with
// a correct result, rejects a newly arriving request with ErrDraining,
// refuses new connections, and returns nil.
func TestGracefulDrain(t *testing.T) {
	eng, err := engine.New(engine.WithWorkers(2))
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	srv, err := NewServer(eng)
	if err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	serveErr := make(chan error, 1)
	go func() { serveErr <- srv.Serve(ln) }()
	addr := ln.Addr().String()

	rng := rand.New(rand.NewSource(19))
	slow := testModulus(t, rng, 1024)
	exp := new(big.Int).Rand(rng, slow)
	exp.SetBit(exp, 0, 1)

	cl := Dial(addr, WithPoolSize(1), WithMaxRetries(0))
	defer cl.Close()

	type res struct {
		v   *big.Int
		err error
	}
	inflight := make(chan res, 1)
	go func() {
		v, err := cl.ModExp(context.Background(), slow, big.NewInt(3), exp)
		inflight <- res{v, err}
	}()
	waitFor(t, 5*time.Second, "slow job admission", func() bool {
		return srv.met.inflight.Value() == 1
	})

	shutdownErr := make(chan error, 1)
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		shutdownErr <- srv.Shutdown(ctx)
	}()
	waitFor(t, 5*time.Second, "draining flag", srv.isDraining)

	// A request arriving mid-drain is rejected, fast, on the still-open
	// pipelined connection.
	if _, err := cl.ModExp(context.Background(), slow, big.NewInt(5), big.NewInt(3)); !errors.Is(err, errs.ErrDraining) {
		t.Fatalf("mid-drain request: want ErrDraining, got %v", err)
	}

	// The admitted request completes and its response is flushed before
	// the connection closes.
	r := <-inflight
	if r.err != nil {
		t.Fatalf("in-flight request during drain: %v", r.err)
	}
	if want := new(big.Int).Exp(big.NewInt(3), exp, slow); r.v.Cmp(want) != 0 {
		t.Fatal("in-flight request returned wrong value")
	}

	if err := <-shutdownErr; err != nil {
		t.Fatalf("Shutdown: %v", err)
	}
	if err := <-serveErr; err != nil {
		t.Fatalf("Serve after drain: %v", err)
	}

	// The listener is gone: new connections fail outright.
	fresh := Dial(addr, WithMaxRetries(0), WithDialTimeout(time.Second))
	defer fresh.Close()
	if _, err := fresh.ModExp(context.Background(), slow, big.NewInt(2), big.NewInt(3)); err == nil {
		t.Fatal("dial after drain unexpectedly succeeded")
	}
}

// Context deadlines flow through: the client call honors its context,
// and the wire deadline reaches the engine's per-job expiry so the
// server accounts the job as deadline-expired, not ok.
func TestDeadlinePropagation(t *testing.T) {
	srv, _, addr := startServer(t,
		[]engine.Option{engine.WithWorkers(1)}, nil)
	rng := rand.New(rand.NewSource(23))
	slow := testModulus(t, rng, 1024)
	exp := new(big.Int).Rand(rng, slow)
	exp.SetBit(exp, 0, 1)

	cl := Dial(addr, WithPoolSize(1), WithMaxRetries(0))
	defer cl.Close()

	// Occupy the single worker so the deadlined job expires in queue.
	blocked := make(chan struct{})
	go func() {
		defer close(blocked)
		if _, err := cl.ModExp(context.Background(), slow, big.NewInt(3), exp); err != nil {
			t.Errorf("blocker: %v", err)
		}
	}()
	waitFor(t, 5*time.Second, "blocker admission", func() bool {
		return srv.met.inflight.Value() == 1
	})

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Millisecond)
	defer cancel()
	t0 := time.Now()
	_, err := cl.ModExp(ctx, slow, big.NewInt(5), exp)
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("want DeadlineExceeded, got %v", err)
	}
	if e := time.Since(t0); e > 2*time.Second {
		t.Fatalf("deadline honored after %s", e)
	}
	<-blocked

	// The server saw the deadline too: the queued job expired at dequeue
	// and landed on the deadline code, not ok.
	waitFor(t, 5*time.Second, "server-side deadline accounting", func() bool {
		var buf bytes.Buffer
		if err := srv.Registry().WritePrometheus(&buf); err != nil {
			return false
		}
		for _, line := range strings.Split(buf.String(), "\n") {
			if strings.HasPrefix(line, `montsys_server_requests_total{op="modexp",code="deadline"}`) &&
				!strings.HasSuffix(line, " 0") {
				return true
			}
		}
		return false
	})
}

// The /metrics-facing registry carries the new server series after a
// round trip.
func TestServerMetricsSeries(t *testing.T) {
	srv, _, addr := startServer(t, []engine.Option{engine.WithWorkers(2)}, nil)
	rng := rand.New(rand.NewSource(29))
	n := testModulus(t, rng, 96)

	cl := Dial(addr)
	defer cl.Close()
	if _, err := cl.ModExp(context.Background(), n, big.NewInt(3), big.NewInt(65537)); err != nil {
		t.Fatal(err)
	}

	var buf bytes.Buffer
	if err := srv.Registry().WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	text := buf.String()
	for _, want := range []string{
		"montsys_server_connections",
		"montsys_server_inflight",
		`montsys_server_requests_total{op="modexp",code="ok"} 1`,
		`montsys_server_request_seconds_count{op="modexp"} 1`,
		"montsys_server_drains_total",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("metrics output missing %q", want)
		}
	}
}

// An idle connection is closed by the server; the client transparently
// redials on the next call.
func TestIdleTimeoutAndRedial(t *testing.T) {
	srv, _, addr := startServer(t,
		[]engine.Option{engine.WithWorkers(1)},
		[]Option{WithIdleTimeout(50 * time.Millisecond)})
	rng := rand.New(rand.NewSource(31))
	n := testModulus(t, rng, 96)

	cl := Dial(addr, WithPoolSize(1))
	defer cl.Close()
	if _, err := cl.ModExp(context.Background(), n, big.NewInt(3), big.NewInt(7)); err != nil {
		t.Fatal(err)
	}
	waitFor(t, 5*time.Second, "idle close", func() bool {
		return srv.met.connections.Value() == 0
	})
	if _, err := cl.ModExp(context.Background(), n, big.NewInt(5), big.NewInt(9)); err != nil {
		t.Fatalf("call after idle close: %v", err)
	}
}
