package server

import (
	"context"
	"errors"
	"math/big"
	"net"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/errs"
)

// scriptedServer speaks just enough of the wire protocol to exercise
// the client's retry machinery deterministically. For the i-th request
// (0-based, across all connections) the script returns the response to
// send, or nil to close the connection without answering (the
// ambiguous-failure case).
func scriptedServer(t *testing.T, script func(i int, req *request) *response) (addr string, requests *atomic.Int64, dials *atomic.Int64) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	requests = new(atomic.Int64)
	dials = new(atomic.Int64)
	go func() {
		for {
			nc, err := ln.Accept()
			if err != nil {
				return
			}
			dials.Add(1)
			go func(nc net.Conn) {
				defer nc.Close()
				for {
					payload, err := readFrame(nc, DefaultMaxFrame)
					if err != nil {
						return
					}
					req, err := decodeRequest(payload)
					if err != nil {
						return
					}
					i := int(requests.Add(1)) - 1
					resp := script(i, req)
					if resp == nil {
						return // hang up mid-request: ambiguous for the client
					}
					resp.id = req.id
					if err := writeFrame(nc, encodeResponse(req.op, resp)); err != nil {
						return
					}
				}
			}(nc)
		}
	}()
	return ln.Addr().String(), requests, dials
}

func okModExp(req *request) *response {
	j := req.jobs[0]
	return &response{code: CodeOK,
		values: []*big.Int{new(big.Int).Exp(j.a, j.b, j.n)}}
}

// Transient ErrOverloaded responses are retried with backoff until the
// server recovers; the final result is correct.
func TestClientRetriesOverloaded(t *testing.T) {
	addr, requests, _ := scriptedServer(t, func(i int, req *request) *response {
		if i < 2 {
			return &response{code: CodeOverloaded, msg: "busy"}
		}
		return okModExp(req)
	})
	cl := Dial(addr, WithMaxRetries(3), WithBackoff(time.Millisecond, 10*time.Millisecond))
	defer cl.Close()

	n, base, exp := big.NewInt(101), big.NewInt(7), big.NewInt(13)
	got, err := cl.ModExp(context.Background(), n, base, exp)
	if err != nil {
		t.Fatal(err)
	}
	if want := new(big.Int).Exp(base, exp, n); got.Cmp(want) != 0 {
		t.Fatal("wrong value after retries")
	}
	if r := requests.Load(); r != 3 {
		t.Fatalf("server saw %d requests, want 3 (2 rejected + 1 ok)", r)
	}
}

// Retries are bounded: a persistently overloaded server yields
// ErrOverloaded after exactly maxRetries+1 attempts.
func TestClientRetryBudgetExhausted(t *testing.T) {
	addr, requests, _ := scriptedServer(t, func(i int, req *request) *response {
		return &response{code: CodeOverloaded, msg: "busy"}
	})
	cl := Dial(addr, WithMaxRetries(2), WithBackoff(time.Millisecond, 5*time.Millisecond))
	defer cl.Close()

	_, err := cl.ModExp(context.Background(), big.NewInt(101), big.NewInt(2), big.NewInt(3))
	if !errors.Is(err, errs.ErrOverloaded) {
		t.Fatalf("want ErrOverloaded, got %v", err)
	}
	if r := requests.Load(); r != 3 {
		t.Fatalf("server saw %d requests, want 3 attempts", r)
	}
}

// Permanent errors are not retried: one request, sentinel preserved.
func TestClientNoRetryOnPermanentError(t *testing.T) {
	addr, requests, _ := scriptedServer(t, func(i int, req *request) *response {
		return &response{code: CodeEvenModulus, msg: "modulus must be odd"}
	})
	cl := Dial(addr, WithMaxRetries(5), WithBackoff(time.Millisecond, 5*time.Millisecond))
	defer cl.Close()

	_, err := cl.ModExp(context.Background(), big.NewInt(100), big.NewInt(2), big.NewInt(3))
	if !errors.Is(err, errs.ErrEvenModulus) {
		t.Fatalf("want ErrEvenModulus, got %v", err)
	}
	if r := requests.Load(); r != 1 {
		t.Fatalf("server saw %d requests, want 1 (no retries)", r)
	}
}

// A connection dropped after the request was written is ambiguous;
// every op is idempotent, so the client redials and retries — checked
// end to end for modexp, then for every row of the op table.
func TestClientRedialsAfterAmbiguousDrop(t *testing.T) {
	addr, _, dials := scriptedServer(t, func(i int, req *request) *response {
		if i == 0 {
			return nil // read the request, then hang up without answering
		}
		return okModExp(req)
	})
	cl := Dial(addr, WithMaxRetries(3), WithBackoff(time.Millisecond, 10*time.Millisecond))
	defer cl.Close()

	n, base, exp := big.NewInt(101), big.NewInt(7), big.NewInt(13)
	got, err := cl.ModExp(context.Background(), n, base, exp)
	if err != nil {
		t.Fatal(err)
	}
	if want := new(big.Int).Exp(base, exp, n); got.Cmp(want) != 0 {
		t.Fatal("wrong value after redial")
	}
	if d := dials.Load(); d < 2 {
		t.Fatalf("client dialed %d times, want ≥ 2", d)
	}

	// Every op: the first copy is dropped mid-call, the retry is
	// answered with a permanent error so the call ends there.
	bodies := sampleBodies()
	for _, op := range tableOps() {
		addr, requests, _ := scriptedServer(t, func(i int, req *request) *response {
			if i == 0 {
				return nil
			}
			return &response{code: CodeOperandRange, msg: "stop"}
		})
		cl := Dial(addr, WithMaxRetries(3), WithBackoff(time.Millisecond, 10*time.Millisecond))
		req := bodies[op]
		req.op = op
		_, err := cl.call(context.Background(), &req)
		cl.Close()
		if !errors.Is(err, errs.ErrOperandRange) {
			t.Errorf("%s: err = %v, want the retry's ErrOperandRange", op, err)
		}
		if r := requests.Load(); r != 2 {
			t.Errorf("%s: server saw %d requests, want 2 (drop + retry)", op, r)
		}
	}
}

// The call context cuts retries short — a cancelled context beats the
// backoff timer and the remaining budget.
func TestClientBackoffHonorsContext(t *testing.T) {
	addr, _, _ := scriptedServer(t, func(i int, req *request) *response {
		return &response{code: CodeOverloaded, msg: "busy"}
	})
	// A long backoff base makes the sleep the dominant cost; the context
	// must preempt it.
	cl := Dial(addr, WithMaxRetries(10), WithBackoff(10*time.Second, 20*time.Second))
	defer cl.Close()

	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	t0 := time.Now()
	_, err := cl.ModExp(ctx, big.NewInt(101), big.NewInt(2), big.NewInt(3))
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("want DeadlineExceeded, got %v", err)
	}
	if e := time.Since(t0); e > 2*time.Second {
		t.Fatalf("context-bounded retry took %s", e)
	}
}

// Dial failures (nothing listening) are transient too, and the retry
// budget bounds them.
func TestClientDialFailure(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	ln.Close() // free the port — dials will be refused

	cl := Dial(addr, WithMaxRetries(1),
		WithBackoff(time.Millisecond, 5*time.Millisecond), WithDialTimeout(time.Second))
	defer cl.Close()
	if _, err := cl.ModExp(context.Background(), big.NewInt(101), big.NewInt(2), big.NewInt(3)); err == nil {
		t.Fatal("expected dial failure")
	}
}

// Close fails in-flight use and rejects further calls.
func TestClientClose(t *testing.T) {
	addr, _, _ := scriptedServer(t, func(i int, req *request) *response {
		return okModExp(req)
	})
	cl := Dial(addr)
	if _, err := cl.ModExp(context.Background(), big.NewInt(101), big.NewInt(2), big.NewInt(3)); err != nil {
		t.Fatal(err)
	}
	cl.Close()
	if _, err := cl.ModExp(context.Background(), big.NewInt(101), big.NewInt(2), big.NewInt(3)); !errors.Is(err, errs.ErrEngineClosed) {
		t.Fatalf("call after Close: %v", err)
	}
}
