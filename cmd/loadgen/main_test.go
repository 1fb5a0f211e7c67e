package main

import (
	"context"
	"errors"
	"net"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/engine"
	"repro/internal/faults"
	"repro/internal/kits"
	"repro/internal/qos"
	"repro/internal/server"
)

// startServer serves an in-process engine on loopback and returns its
// address. A non-nil plane enforces per-tenant quotas, as montsysd -qos
// does.
func startServer(t *testing.T, plane *qos.Plane, engOpts ...engine.Option) string {
	t.Helper()
	opts := append([]engine.Option{engine.WithWorkers(2), engine.WithKit(kits.CIOS)}, engOpts...)
	srvOpts := []server.Option{server.WithMaxInflight(64)}
	if plane != nil {
		opts = append(opts, engine.WithQoSObserver(plane))
		srvOpts = append(srvOpts, server.WithQoS(plane))
	}
	eng, err := engine.New(opts...)
	if err != nil {
		t.Fatal(err)
	}
	srv, err := server.NewServer(eng, srvOpts...)
	if err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve(ln)
	t.Cleanup(func() {
		srv.Close()
		eng.Close()
	})
	return ln.Addr().String()
}

// corrupting is an engine that flips a bit in every core result and
// checks none of them: every answer it serves is wrong.
func corrupting() engine.Option {
	return engine.WithFaultInjector(faults.New(faults.WithRate(1), faults.WithSeed(1)))
}

func testContext(t *testing.T) context.Context {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	t.Cleanup(cancel)
	return ctx
}

func TestLocalModExp(t *testing.T) {
	cfg := sweepConfig{jobs: 24, keys: 2, expKind: "f4", seed: 1}
	if err := run(testContext(t), "1,2", "64,128", "cios,big", "guarded", cfg); err != nil {
		t.Fatal(err)
	}
}

func TestRemoteModExp(t *testing.T) {
	addrs := startServer(t, nil) + "," + startServer(t, nil)
	cfg := sweepConfig{jobs: 40, keys: 2, expKind: "full", seed: 1,
		connect: addrs, clients: 4, retries: 1}
	if err := run(testContext(t), "1", "128", "cios", "guarded", cfg); err != nil {
		t.Fatal(err)
	}
}

// TestWrongAnswerIsFatal: an engine that corrupts its results with no
// integrity check fails the modexp scenario, local or remote, even
// when every error class is tolerated.
func TestWrongAnswerIsFatal(t *testing.T) {
	tolerate := parseTolerate("integrity,overloaded,draining,backend_down,internal,other")
	cases := map[string]sweepConfig{
		"local": {jobs: 8, keys: 1, expKind: "f4", seed: 1, tolerate: tolerate,
			faultRate: 1, faultSeed: 1},
		"remote": {jobs: 8, keys: 1, expKind: "f4", seed: 1, tolerate: tolerate,
			connect: startServer(t, nil, corrupting()), clients: 2},
	}
	for name, cfg := range cases {
		err := run(testContext(t), "1", "128", "cios", "guarded", cfg)
		if err == nil || !strings.Contains(err.Error(), "WRONG ANSWER") {
			t.Errorf("%s: err = %v, want a WRONG ANSWER failure", name, err)
		}
	}
}

func TestSign(t *testing.T) {
	cfg := sweepConfig{scenario: "sign", jobs: 24, keys: 1, seed: 1,
		connect: startServer(t, nil), clients: 3, retries: 1}
	if err := run(testContext(t), "1", "128", "cios", "guarded", cfg); err != nil {
		t.Fatal(err)
	}
}

func TestTenants(t *testing.T) {
	qcfg, err := qos.ParseSpec(tenantsQoSSpec)
	if err != nil {
		t.Fatal(err)
	}
	plane := qos.NewPlane(qcfg, 64, nil)
	cfg := sweepConfig{scenario: "tenants", jobs: 100, keys: 4, seed: 1,
		connect: startServer(t, plane), clients: 4, retries: 3}
	if err := run(testContext(t), "1", "128", "cios", "guarded", cfg); err != nil {
		t.Fatal(err)
	}
}

func TestSoak(t *testing.T) {
	cfg := sweepConfig{scenario: "soak", duration: 3 * time.Second, adversaries: 2,
		keys: 4, seed: 1, connect: startServer(t, nil), clients: 2, retries: 3}
	if err := run(testContext(t), "1", "128", "cios", "guarded", cfg); err != nil {
		t.Fatal(err)
	}
}

// TestDrive pins the driver's contract: a fixed count runs every index
// once, the first job error stops the pool and is returned, a run
// until ctx ends stops when it ends, and a fixed count cut short by
// ctx returns ctx's error.
func TestDrive(t *testing.T) {
	const jobs = 1000
	var runs [jobs]atomic.Int32
	err := drive(context.Background(), jobs, 8, func(_ context.Context, _, i int) error {
		runs[i].Add(1)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := range runs {
		if n := runs[i].Load(); n != 1 {
			t.Fatalf("job %d ran %d times", i, n)
		}
	}

	boom := errors.New("boom")
	var after atomic.Int32
	err = drive(context.Background(), jobs, 4, func(ctx context.Context, _, i int) error {
		if i == 10 {
			return boom
		}
		if i > 10 && ctx.Err() != nil {
			after.Add(1)
		}
		return nil
	})
	if !errors.Is(err, boom) {
		t.Errorf("first job error: got %v, want %v", err, boom)
	}
	if n := after.Load(); n > 4 {
		t.Errorf("%d jobs started after the pool was stopped", n)
	}

	ctx, cancel := context.WithCancel(context.Background())
	var seen atomic.Int64
	err = drive(ctx, -1, 3, func(_ context.Context, s, _ int) error {
		if s >= 3 {
			t.Errorf("submitter %d of 3", s)
		}
		if seen.Add(1) == 100 {
			cancel()
		}
		return nil
	})
	if err != nil || seen.Load() < 100 {
		t.Errorf("until ctx ends: err = %v after %d jobs", err, seen.Load())
	}

	if err := drive(ctx, jobs, 2, func(context.Context, int, int) error { return nil }); !errors.Is(err, context.Canceled) {
		t.Errorf("fixed count cut short: err = %v, want context.Canceled", err)
	}
}
