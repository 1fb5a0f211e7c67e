package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"math/big"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/cryptosvc"
	"repro/internal/engine"
	"repro/internal/obs"
	"repro/internal/server"
)

// TestRouteSpansRecorded: a sampled request through the balancer layer
// produces one route-attempt span carrying the chosen backend and pick
// reason, parented on the front door's server span, plus the backend
// call span the cluster's own client pool records — all on the
// request's trace id.
func TestRouteSpansRecorded(t *testing.T) {
	_, _, a1 := startBackend(t, []engine.Option{engine.WithWorkers(1)}, nil)
	_, _, a2 := startBackend(t, []engine.Option{engine.WithWorkers(1)}, nil)

	tracer := obs.NewTracer(64)
	var wideBuf lockedBuffer
	tracer.SetWideEvents(obs.NewWideWriter(&wideBuf))
	c, err := New([]string{a1, a2}, WithTracer(tracer))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	cl := front(t, c, server.WithTracer(tracer))

	tc := obs.TraceContext{TraceID: obs.NewTraceID(), SpanID: obs.NewSpanID(), Sampled: true}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	ctx = obs.ContextWithTrace(ctx, tc)

	n := testModulus(t, 128)
	got, err := cl.ModExp(ctx, n, big.NewInt(7), big.NewInt(65537))
	if err != nil {
		t.Fatal(err)
	}
	if got.Cmp(wantModExp(n, big.NewInt(7), big.NewInt(65537))) != 0 {
		t.Fatal("wrong answer")
	}

	var srv, route, call obs.Span
	var haveSrv, haveRoute, haveCall bool
	for _, s := range tracer.Spans() {
		switch {
		case s.Name == "server/modexp":
			srv, haveSrv = s, true
		case s.Name == "route/modexp":
			route, haveRoute = s, true
		case s.Name == "call/modexp":
			call, haveCall = s, true
		}
	}
	if !haveSrv || !haveRoute {
		t.Fatalf("no server or route span recorded: %+v", tracer.Spans())
	}
	if srv.TraceID != tc.TraceID || route.TraceID != tc.TraceID || route.Parent != srv.SpanID {
		t.Fatalf("route span not joined under the front door's server span: %+v, %+v", route, srv)
	}
	attrs := map[string]string{}
	for _, a := range route.Attrs {
		attrs[a.Key] = a.Val
	}
	if attrs["backend"] != a1 && attrs["backend"] != a2 {
		t.Errorf("backend attr = %q, want one of the pool", attrs["backend"])
	}
	if attrs["pick"] == "" {
		t.Errorf("route span missing the pick reason: %+v", route.Attrs)
	}
	// The balancer's backend client shares the tracer: its call span
	// nests under the route attempt.
	if !haveCall {
		t.Fatalf("no backend call span recorded: %+v", tracer.Spans())
	}
	if call.TraceID != tc.TraceID || call.Parent != route.SpanID {
		t.Fatalf("call span not nested under the route attempt: %+v", call)
	}

	// And the wide log got a route line and the backend client's line
	// for the same trace, rendered from those two spans.
	var sawRouteLine, sawClientLine bool
	for _, ev := range wideLines(t, &wideBuf) {
		if ev["trace_id"] != tc.TraceID.String() {
			continue
		}
		switch ev["layer"] {
		case "route":
			sawRouteLine = true
			if ev["backend"] != attrs["backend"] || ev["pick"] != attrs["pick"] || ev["outcome"] != "ok" {
				t.Errorf("route wide line payload: %v", ev)
			}
		case "client":
			sawClientLine = true
			if ev["addr"] != attrs["backend"] || ev["attempts"] != "1" || ev["parent_id"] != route.SpanID.String() {
				t.Errorf("client wide line payload: %v", ev)
			}
		}
	}
	if !sawRouteLine || !sawClientLine {
		t.Fatalf("want route and client wide lines:\n%s", wideBuf.String())
	}

	// Every routed op names its route span and its route wide event
	// after its wire op.
	if _, err := cl.Mont(ctx, n, big.NewInt(3), big.NewInt(5)); err != nil {
		t.Fatal(err)
	}
	if _, err := cl.ModExpBatch(ctx, []engine.ModExpJob{{N: n, Base: big.NewInt(2), Exp: big.NewInt(9)}}); err != nil {
		t.Fatal(err)
	}
	key, err := cl.KeygenRSA(ctx, 256, 42)
	if err != nil {
		t.Fatal(err)
	}
	digest := big.NewInt(0xCAFE)
	sig, err := cl.SignRSA(ctx, key, digest)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := cl.VerifyRSA(ctx, key.N, key.E, digest, sig); err != nil {
		t.Fatal(err)
	}
	r, s, err := cl.SignECDSA(ctx, cryptosvc.CurveP256, big.NewInt(0x1337), digest, 7)
	if err != nil {
		t.Fatal(err)
	}
	item := cryptosvc.ECDSAVerifyItem{Qx: big.NewInt(1), Qy: big.NewInt(2), R: r, S: s, Digest: digest}
	if _, err := cl.VerifyECDSABatch(ctx, cryptosvc.CurveP256, []cryptosvc.ECDSAVerifyItem{item}); err != nil {
		t.Fatal(err)
	}
	spanOps, wideOps := map[string]bool{}, map[string]bool{}
	for _, s := range tracer.Spans() {
		if op, ok := strings.CutPrefix(s.Name, "route/"); ok {
			spanOps[op] = true
		}
	}
	for _, ev := range wideLines(t, &wideBuf) {
		if ev["layer"] == "route" {
			wideOps[ev["op"].(string)] = true
		}
	}
	want := []string{"modexp", "mont", "batch_modexp", "keygen_rsa", "sign_rsa",
		"verify_rsa", "sign_ecdsa", "verify_ecdsa_batch"}
	for _, op := range want {
		if !spanOps[op] {
			t.Errorf("no route/%s span; route spans seen: %v", op, spanOps)
		}
		if !wideOps[op] {
			t.Errorf("no route wide line with op %q; ops seen: %v", op, wideOps)
		}
	}
	if len(spanOps) != len(want) || len(wideOps) != len(want) {
		t.Errorf("route ops: spans %v, wide lines %v, want exactly %v", spanOps, wideOps, want)
	}
}

// lockedBuffer is a bytes.Buffer safe to read while a losing attempt's
// goroutine may still be writing its wide line.
type lockedBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *lockedBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *lockedBuffer) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.String()
}

// wideLines parses every wide line written so far.
func wideLines(t *testing.T, b *lockedBuffer) []map[string]any {
	t.Helper()
	var out []map[string]any
	for _, line := range strings.Split(strings.TrimSpace(b.String()), "\n") {
		if line == "" {
			continue
		}
		var ev map[string]any
		if err := json.Unmarshal([]byte(line), &ev); err != nil {
			t.Fatalf("wide line not JSON: %v\n%s", err, line)
		}
		out = append(out, ev)
	}
	return out
}

// TestHedgeAttemptWideLines: a request homed on a stuck backend is won
// by its hedge, and the wide log tells the race — the hedge copy's
// route line carries pick=hedge and race=won.
func TestHedgeAttemptWideLines(t *testing.T) {
	stuck := startStuckBackend(t)
	_, _, healthy := startBackend(t, []engine.Option{engine.WithWorkers(1)}, nil)
	addrs := []string{stuck, healthy}

	tracer := obs.NewTracer(64)
	var wideBuf lockedBuffer
	tracer.SetWideEvents(obs.NewWideWriter(&wideBuf))
	c, err := New(addrs,
		WithTracer(tracer),
		WithProbeInterval(time.Hour), // probes must not eject the stuck backend mid-test
		WithHedgeDelayBounds(5*time.Millisecond, 20*time.Millisecond))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	cl := front(t, c)

	tc := obs.TraceContext{TraceID: obs.NewTraceID(), SpanID: obs.NewSpanID(), Sampled: true}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	n := modulusHomedOn(t, addrs, stuck)
	if _, err := cl.ModExp(obs.ContextWithTrace(ctx, tc), n, big.NewInt(2), big.NewInt(10)); err != nil {
		t.Fatalf("hedged ModExp: %v", err)
	}

	// The hedge copy's span is recorded before its answer is delivered,
	// so its line is in the log by the time ModExp returns.
	var hedge map[string]any
	for _, ev := range wideLines(t, &wideBuf) {
		if ev["layer"] == "route" && ev["trace_id"] == tc.TraceID.String() && ev["pick"] == "hedge" {
			hedge = ev
		}
	}
	if hedge == nil {
		t.Fatalf("no route line with pick=hedge:\n%s", wideBuf.String())
	}
	if hedge["backend"] != healthy || hedge["race"] != "won" || hedge["outcome"] != "ok" {
		t.Errorf("hedge route line: %v", hedge)
	}
	if _, hasHedged := hedge["hedged"]; hasHedged {
		t.Errorf("hedge route line still carries hedged: %v", hedge)
	}
}

// TestUnsampledRequestsRecordNoRouteSpans: tracing is head-based — a
// request with no (or an unsampled) trace context must leave the
// tracer untouched on the routing layer.
func TestUnsampledRequestsRecordNoRouteSpans(t *testing.T) {
	_, _, a1 := startBackend(t, []engine.Option{engine.WithWorkers(1)}, nil)

	tracer := obs.NewTracer(64)
	c, err := New([]string{a1}, WithTracer(tracer))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	cl := front(t, c)

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	n := testModulus(t, 128)
	if _, err := cl.ModExp(ctx, n, big.NewInt(7), big.NewInt(65537)); err != nil {
		t.Fatal(err)
	}
	// Unsampled ambient context: ids propagate, nothing is recorded.
	tc := obs.TraceContext{TraceID: obs.NewTraceID(), Sampled: false}
	if _, err := cl.ModExp(obs.ContextWithTrace(ctx, tc), n, big.NewInt(9), big.NewInt(65537)); err != nil {
		t.Fatal(err)
	}
	for _, s := range tracer.Spans() {
		if strings.HasPrefix(s.Name, "route/") || strings.HasPrefix(s.Name, "call/") {
			t.Fatalf("unsampled request recorded %+v", s)
		}
	}
}

// TestFailoverAttemptsShareTrace: when the first backend fails over,
// every attempt leaves its own route span on the same trace — the
// trace shows the retry story, not just the final success.
func TestFailoverAttemptsShareTrace(t *testing.T) {
	srv1, _, a1 := startBackend(t, []engine.Option{engine.WithWorkers(1)}, nil)
	_, _, a2 := startBackend(t, []engine.Option{engine.WithWorkers(1)}, nil)

	tracer := obs.NewTracer(64)
	c, err := New([]string{a1, a2},
		WithTracer(tracer),
		// Probes would eject the drained backend before any request saw
		// it; an hour-long interval keeps it in rotation so requests
		// homed there actually hit the draining answer and fail over.
		WithProbeInterval(time.Hour),
		WithRetryBudget(1, 16))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	cl := front(t, c)

	// Drain backend 1 so requests homed there answer draining and fail
	// over to backend 2.
	dctx, dcancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer dcancel()
	if err := srv1.Shutdown(dctx); err != nil {
		t.Fatal(err)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	// Distinct moduli spread the affinity homes across both backends,
	// so some requests are homed on the drained one and must fail over
	// (16 misses in a row has probability 2⁻¹⁶).
	var traced []obs.TraceID
	for i := 0; i < 16; i++ {
		tc := obs.TraceContext{TraceID: obs.NewTraceID(), SpanID: obs.NewSpanID(), Sampled: true}
		traced = append(traced, tc.TraceID)
		if _, err := cl.ModExp(obs.ContextWithTrace(ctx, tc), testModulus(t, 128),
			big.NewInt(int64(100+i)), big.NewInt(65537)); err != nil {
			t.Fatalf("ModExp %d: %v", i, err)
		}
	}

	perTrace := map[obs.TraceID][]obs.Span{}
	for _, s := range tracer.Spans() {
		if strings.HasPrefix(s.Name, "route/") {
			perTrace[s.TraceID] = append(perTrace[s.TraceID], s)
		}
	}
	for _, id := range traced {
		if len(perTrace[id]) == 0 {
			t.Fatalf("trace %s has no route spans", id)
		}
	}
	var sawFailover bool
	for _, spans := range perTrace {
		if len(spans) < 2 {
			continue
		}
		sawFailover = true
		// The trace must tell the retry story: a failed first attempt
		// (draining or the connection already refused) and a failover
		// attempt that succeeded.
		var failed, failedOver bool
		for _, s := range spans {
			attrs := map[string]string{}
			for _, a := range s.Attrs {
				attrs[a.Key] = a.Val
			}
			if s.Outcome != "ok" {
				failed = true
				if attrs["err"] == "" {
					t.Errorf("failed route attempt carries no err: %+v", s)
				}
			}
			if attrs["pick"] == "failover" && s.Outcome == "ok" {
				failedOver = true
			}
		}
		if !failed || !failedOver {
			t.Errorf("multi-attempt trace missing the retry story: %+v", spans)
		}
	}
	if !sawFailover {
		t.Fatal("no request failed over: every trace has a single route span")
	}
}
