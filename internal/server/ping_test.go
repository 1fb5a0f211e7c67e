package server

import (
	"context"
	"errors"
	"math/big"
	"net"
	"testing"
	"time"

	"repro/internal/engine"
	"repro/internal/errs"
)

// Ping round-trips on the wire and reports the server's in-flight
// count.
func TestPingRoundTrip(t *testing.T) {
	req := &request{op: OpPing, id: 42}
	got, err := decodeRequest(encodeRequest(req))
	if err != nil {
		t.Fatal(err)
	}
	if got.op != OpPing || got.id != 42 || len(got.jobs) != 0 {
		t.Fatalf("ping round trip: %+v", got)
	}

	resp := &response{id: 42, code: CodeOK, values: []*big.Int{big.NewInt(7)}}
	back, err := decodeResponse(OpPing, encodeResponse(OpPing, resp))
	if err != nil {
		t.Fatal(err)
	}
	if back.values[0].Int64() != 7 {
		t.Fatalf("ping value = %v, want 7", back.values[0])
	}
}

func TestPingServer(t *testing.T) {
	_, _, addr := startServer(t, []engine.Option{engine.WithWorkers(1)}, nil)
	cl := Dial(addr)
	defer cl.Close()

	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	inflight, err := cl.Ping(ctx)
	if err != nil {
		t.Fatalf("Ping: %v", err)
	}
	if inflight != 0 {
		t.Fatalf("idle server reports %d in flight, want 0", inflight)
	}
}

// A draining server answers pings with ErrDraining — the signal a
// balancer uses to eject it before its listener even closes.
func TestPingDraining(t *testing.T) {
	srv, _, addr := startServer(t, []engine.Option{engine.WithWorkers(1)}, nil)
	cl := Dial(addr, WithMaxRetries(0))
	defer cl.Close()

	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	// Prime the connection before the listener closes.
	if _, err := cl.Ping(ctx); err != nil {
		t.Fatalf("pre-drain ping: %v", err)
	}

	done := make(chan struct{})
	go func() {
		defer close(done)
		sctx, scancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer scancel()
		srv.Shutdown(sctx)
	}()
	// The drain completes quickly (nothing in flight); after it the
	// connection is gone, so catch the draining answer while it lasts,
	// tolerating the post-drain connection-loss errors too.
	var sawDraining bool
	for i := 0; i < 50; i++ {
		_, err := cl.Ping(ctx)
		if errors.Is(err, errs.ErrDraining) {
			sawDraining = true
			break
		}
		if err != nil {
			break // connection torn down post-drain
		}
		time.Sleep(time.Millisecond)
	}
	<-done
	if !sawDraining {
		t.Log("drain finished before a ping landed mid-drain (timing); acceptable")
	}
}

// The client surfaces a typed ErrBackendDown (wrapping the dial error)
// when its redials are exhausted, so failover layers can classify it
// with errors.Is.
func TestClientBackendDownTyped(t *testing.T) {
	// A listener that is immediately closed: dials are refused.
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	ln.Close()

	cl := Dial(addr, WithMaxRetries(1), WithBackoff(time.Millisecond, 2*time.Millisecond))
	defer cl.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	_, err = cl.ModExp(ctx, big.NewInt(13), big.NewInt(2), big.NewInt(5))
	if err == nil {
		t.Fatal("expected error dialing a closed port")
	}
	if !errors.Is(err, errs.ErrBackendDown) {
		t.Fatalf("error does not wrap ErrBackendDown: %v", err)
	}
}

// A connection that dies mid-call (ambiguous drop) with no retries left
// also classifies as ErrBackendDown.
func TestClientBackendDownAfterDrop(t *testing.T) {
	addr, _, _ := scriptedServer(t, func(i int, req *request) *response {
		return nil // hang up without answering, every time
	})
	cl := Dial(addr, WithMaxRetries(1), WithBackoff(time.Millisecond, 2*time.Millisecond))
	defer cl.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	_, err := cl.ModExp(ctx, big.NewInt(13), big.NewInt(2), big.NewInt(5))
	if !errors.Is(err, errs.ErrBackendDown) {
		t.Fatalf("error does not wrap ErrBackendDown: %v", err)
	}
}

// CodeBackendDown survives the wire round trip like every other
// sentinel (the proxy answers it when its whole pool is down).
func TestBackendDownCodeMapping(t *testing.T) {
	if c := CodeOf(errs.ErrBackendDown); c != CodeBackendDown {
		t.Fatalf("CodeOf(ErrBackendDown) = %v", c)
	}
	err := errFor(CodeBackendDown, "no backend in rotation")
	if !errors.Is(err, errs.ErrBackendDown) {
		t.Fatalf("errFor(CodeBackendDown) does not wrap the sentinel: %v", err)
	}
	if !transientCode(CodeBackendDown) {
		t.Fatal("CodeBackendDown should be transient (a balancer may recover)")
	}
}
