package server

import (
	"bytes"
	"context"
	"math/big"
	"math/rand"
	"net"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/engine"
)

// TestRequestGoroutinesExit: request goroutines outlive their requests,
// parked for the next one, and Shutdown and Close each return only once
// every one of them has exited — the goroutine count is back at its
// baseline.
func TestRequestGoroutinesExit(t *testing.T) {
	for _, stop := range []string{"Shutdown", "Close"} {
		t.Run(stop, func(t *testing.T) {
			eng, err := engine.New(engine.WithWorkers(2))
			if err != nil {
				t.Fatal(err)
			}
			defer eng.Close()
			base := runtime.NumGoroutine()

			srv, err := NewServer(eng)
			if err != nil {
				t.Fatal(err)
			}
			ln, err := net.Listen("tcp", "127.0.0.1:0")
			if err != nil {
				t.Fatal(err)
			}
			served := make(chan error, 1)
			go func() { served <- srv.Serve(ln) }()

			cl := Dial(ln.Addr().String(), WithPoolSize(2))
			n := testModulus(t, rand.New(rand.NewSource(5)), 256)
			var wg sync.WaitGroup
			for g := 0; g < 6; g++ {
				wg.Add(1)
				go func(g int) {
					defer wg.Done()
					for i := 0; i < 4; i++ {
						if _, err := cl.ModExp(context.Background(), n, big.NewInt(int64(g+2)), big.NewInt(65537)); err != nil {
							t.Error(err)
						}
					}
				}(g)
			}
			wg.Wait()
			cl.Close()
			if srv.reqGoroutines.Load() == 0 {
				t.Fatal("no request goroutine parked after the calls")
			}

			if stop == "Shutdown" {
				ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
				defer cancel()
				if err := srv.Shutdown(ctx); err != nil {
					t.Fatal(err)
				}
			} else if err := srv.Close(); err != nil {
				t.Fatal(err)
			}
			if g := srv.reqGoroutines.Load(); g != 0 {
				t.Fatalf("%d request goroutines alive after %s returned", g, stop)
			}
			if err := <-served; err != nil {
				t.Fatal(err)
			}
			waitFor(t, 5*time.Second, "goroutine count back at its baseline", func() bool {
				return runtime.NumGoroutine() <= base
			})
		})
	}
}

// pipelineMixedSizes sends modexp and batch requests of mixed operand
// sizes, so of mixed frame sizes, concurrently over one connection to
// addr, and checks every answer against math/big: an answer built from
// a recycled frame buffer would carry another request's bytes.
func pipelineMixedSizes(t *testing.T, addr string) {
	cl := Dial(addr, WithPoolSize(1))
	defer cl.Close()
	rng := rand.New(rand.NewSource(26))
	var moduli []*big.Int
	for _, l := range []int{64, 256, 1024, 2048} {
		moduli = append(moduli, testModulus(t, rng, l))
	}
	type call struct {
		jobs []engine.ModExpJob // one job: a modexp; more: a batch
		want []*big.Int
	}
	const goroutines, perGoroutine = 8, 12
	calls := make([][]call, goroutines)
	for g := range calls {
		for i := 0; i < perGoroutine; i++ {
			var c call
			for k := 0; k < 1+rng.Intn(2)*(1+rng.Intn(5)); k++ {
				n := moduli[rng.Intn(len(moduli))]
				j := engine.ModExpJob{N: n, Base: new(big.Int).Rand(rng, n), Exp: big.NewInt(rng.Int63n(1 << 17))}
				c.jobs = append(c.jobs, j)
				c.want = append(c.want, new(big.Int).Exp(j.Base, j.Exp, n))
			}
			calls[g] = append(calls[g], c)
		}
	}
	ctx := context.Background()
	var wg sync.WaitGroup
	for g := range calls {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i, c := range calls[g] {
				if len(c.jobs) == 1 {
					j := c.jobs[0]
					got, err := cl.ModExp(ctx, j.N, j.Base, j.Exp)
					if err != nil || got.Cmp(c.want[0]) != 0 {
						t.Errorf("goroutine %d call %d: modexp = (%v, %v), want %v", g, i, got, err, c.want[0])
					}
					continue
				}
				res, err := cl.ModExpBatch(ctx, c.jobs)
				if err != nil {
					t.Errorf("goroutine %d call %d: batch: %v", g, i, err)
					continue
				}
				for k, r := range res {
					if r.Err != nil || r.Value.Cmp(c.want[k]) != 0 {
						t.Errorf("goroutine %d call %d item %d: (%v, %v), want %v", g, i, k, r.Value, r.Err, c.want[k])
					}
				}
			}
		}(g)
	}
	wg.Wait()
}

func TestPipelinedMixedSizes(t *testing.T) {
	_, _, addr := startServer(t, []engine.Option{engine.WithWorkers(2)}, nil)
	pipelineMixedSizes(t, addr)
}

// TestRoundTripAllocs pins the allocations of one served F4 modexp at
// 2048 bits, client, server and engine together: the client's request,
// call and decoded answer (7), the server's decoded request (4) and
// answer (1), and the engine's job, batch bookkeeping and result (6).
// Frame buffers, response buffers and request goroutines are reused.
func TestRoundTripAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's sync.Pool drops items at random")
	}
	rt := newRoundTrip(t)
	const want = 18
	if got := testing.AllocsPerRun(200, func() { rt.do(t) }); got != want {
		t.Fatalf("round trip: %v allocs, want %d", got, want)
	}
}

// lateReader is a Forwarder that answers at once and reads each body
// again a moment after its answer, as a hedged race's losing copy may.
type lateReader struct {
	wg      sync.WaitGroup
	changed atomic.Int64
}

func (f *lateReader) Forward(_ context.Context, r Routed) (*Reply, error) {
	keep := bytes.Clone(r.Body)
	f.wg.Add(1)
	go func() {
		defer f.wg.Done()
		time.Sleep(2 * time.Millisecond)
		if !bytes.Equal(r.Body, keep) {
			f.changed.Add(1)
		}
	}()
	return &Reply{Code: CodeOK, Body: appendBig(nil, big.NewInt(1))}, nil
}

func (f *lateReader) Join(context.Context, string, string) (int, error) { return 0, nil }
func (f *lateReader) Goodbye(context.Context, string) (int, error)      { return 0, nil }

// TestForwardingServerKeepsBodies: a forwarding server never recycles a
// request's frame, because its Forwarder may read the body after the
// answer is written.
func TestForwardingServerKeepsBodies(t *testing.T) {
	f := &lateReader{}
	srv, err := NewForwardingServer(f)
	if err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve(ln)
	defer srv.Close()
	cl := Dial(ln.Addr().String(), WithPoolSize(1))
	defer cl.Close()
	n := testModulus(t, rand.New(rand.NewSource(9)), 512)
	for i := 0; i < 64; i++ {
		if _, err := cl.ModExp(context.Background(), n, big.NewInt(int64(i+2)), big.NewInt(3)); err != nil {
			t.Fatal(err)
		}
	}
	f.wg.Wait()
	if c := f.changed.Load(); c != 0 {
		t.Fatalf("%d forwarded bodies changed after their answer", c)
	}
}
