package server

import (
	"bytes"
	"context"
	"encoding/json"
	"math/big"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/engine"
	"repro/internal/obs"
)

// TestTraceRoundTrip is the wire-propagation acceptance test inside
// one process pair: a tracing client calls a traced server and the
// spans recorded on both sides — client call span, server span, engine
// job span — share one trace id and chain parent→child across the
// network hop. This is the joint the cluster CI job later checks
// across real processes with cmd/tracecat.
func TestTraceRoundTrip(t *testing.T) {
	col := obs.NewCollector(obs.WithTracing(64))
	_, _, addr := startServer(t,
		[]engine.Option{engine.WithWorkers(1), engine.WithObserver(col)},
		[]Option{WithRegistry(col.Registry()), WithTracer(col.Tracer())})

	clientTracer := obs.NewTracer(64)
	c := Dial(addr, WithClientTracing(clientTracer, 1)) // sample everything
	defer c.Close()

	rng := rand.New(rand.NewSource(11))
	n := testModulus(t, rng, 128)
	if _, err := c.ModExp(context.Background(), n, big.NewInt(7), big.NewInt(65537)); err != nil {
		t.Fatal(err)
	}

	// Client side: exactly one root call span.
	cspans := clientTracer.Spans()
	if len(cspans) != 1 {
		t.Fatalf("client recorded %d spans, want 1", len(cspans))
	}
	call := cspans[0]
	if call.Name != "call/modexp" || call.TraceID.IsZero() || call.SpanID.IsZero() {
		t.Fatalf("call span: %+v", call)
	}
	if !call.Parent.IsZero() {
		t.Fatalf("call span has a parent %s, want root", call.Parent)
	}

	// Server side: a server span parented on the call span, and an
	// engine span parented on the server span, all on one trace id.
	var srvSpan, engSpan obs.Span
	var haveSrv, haveEng bool
	for _, s := range col.Tracer().Spans() {
		switch {
		case s.Name == "server/modexp":
			srvSpan, haveSrv = s, true
		case s.Name == "modexp" && !s.TraceID.IsZero():
			engSpan, haveEng = s, true
		}
	}
	if !haveSrv || !haveEng {
		t.Fatalf("server/engine spans missing: %+v", col.Tracer().Spans())
	}
	if srvSpan.TraceID != call.TraceID || engSpan.TraceID != call.TraceID {
		t.Fatalf("trace ids diverge: call=%s server=%s engine=%s",
			call.TraceID, srvSpan.TraceID, engSpan.TraceID)
	}
	if srvSpan.Parent != call.SpanID {
		t.Fatalf("server span parent = %s, want the call span %s", srvSpan.Parent, call.SpanID)
	}
	if engSpan.Parent != srvSpan.SpanID {
		t.Fatalf("engine span parent = %s, want the server span %s", engSpan.Parent, srvSpan.SpanID)
	}
	if engSpan.Kit == "" || engSpan.Outcome != "ok" {
		t.Fatalf("engine span lost its payload: %+v", engSpan)
	}

	// The server export carries the ids as span args — what tracecat's
	// tree assertion reads.
	var buf bytes.Buffer
	if err := col.Tracer().WriteChromeTrace(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), call.TraceID.String()) {
		t.Fatal("trace id missing from the Chrome export")
	}
	if !json.Valid(buf.Bytes()) {
		t.Fatal("export is not valid JSON")
	}
}

// TestUnsampledCallsStayUntraced: without client tracing the wire
// carries the untraced ops and neither side records spans with trace
// ids — the zero-overhead default.
func TestUnsampledCallsStayUntraced(t *testing.T) {
	col := obs.NewCollector(obs.WithTracing(64))
	_, _, addr := startServer(t,
		[]engine.Option{engine.WithWorkers(1), engine.WithObserver(col)},
		[]Option{WithRegistry(col.Registry()), WithTracer(col.Tracer())})

	c := Dial(addr)
	defer c.Close()
	rng := rand.New(rand.NewSource(12))
	n := testModulus(t, rng, 128)
	if _, err := c.ModExp(context.Background(), n, big.NewInt(7), big.NewInt(65537)); err != nil {
		t.Fatal(err)
	}
	for _, s := range col.Tracer().Spans() {
		if !s.TraceID.IsZero() {
			t.Fatalf("untraced call produced a traced span: %+v", s)
		}
		if strings.HasPrefix(s.Name, "server/") {
			t.Fatalf("unsampled request recorded a server span: %+v", s)
		}
	}
}

// TestRateZeroClientPropagatesAmbientTrace: a client without root
// minting still forwards a sampled context it finds on ctx — the
// balancer's client pool relies on this to re-parent backend calls.
func TestRateZeroClientPropagatesAmbientTrace(t *testing.T) {
	col := obs.NewCollector(obs.WithTracing(64))
	_, _, addr := startServer(t,
		[]engine.Option{engine.WithWorkers(1), engine.WithObserver(col)},
		[]Option{WithRegistry(col.Registry()), WithTracer(col.Tracer())})

	c := Dial(addr)
	defer c.Close()
	tc := obs.TraceContext{TraceID: obs.NewTraceID(), SpanID: obs.NewSpanID(), Sampled: true}
	ctx := obs.ContextWithTrace(context.Background(), tc)
	rng := rand.New(rand.NewSource(13))
	n := testModulus(t, rng, 128)
	if _, err := c.ModExp(ctx, n, big.NewInt(7), big.NewInt(65537)); err != nil {
		t.Fatal(err)
	}
	var found bool
	for _, s := range col.Tracer().Spans() {
		if s.Name == "server/modexp" && s.TraceID == tc.TraceID {
			found = true
		}
	}
	if !found {
		t.Fatalf("ambient trace did not reach the server: %+v", col.Tracer().Spans())
	}
}

// TestServerWideEvents: with a wide writer on the tracer the server
// and engine share, one sampled request writes a server line and an
// engine line on the same trace id, each rendered from its layer's span.
func TestServerWideEvents(t *testing.T) {
	var buf bytes.Buffer
	col := obs.NewCollector(obs.WithTracing(64))
	col.Tracer().SetWideEvents(obs.NewWideWriter(&buf))
	_, _, addr := startServer(t,
		[]engine.Option{engine.WithWorkers(1), engine.WithObserver(col)},
		[]Option{WithRegistry(col.Registry()), WithTracer(col.Tracer())})

	clientTracer := obs.NewTracer(64)
	c := Dial(addr, WithClientTracing(clientTracer, 1))
	defer c.Close()
	rng := rand.New(rand.NewSource(14))
	n := testModulus(t, rng, 128)
	if _, err := c.ModExp(context.Background(), n, big.NewInt(7), big.NewInt(65537)); err != nil {
		t.Fatal(err)
	}

	call := clientTracer.Spans()[0]
	lines := map[string]map[string]any{}
	for _, line := range strings.Split(strings.TrimSpace(buf.String()), "\n") {
		var ev map[string]any
		if err := json.Unmarshal([]byte(line), &ev); err != nil {
			t.Fatalf("wide line not JSON: %v\n%s", err, line)
		}
		if ev["trace_id"] == call.TraceID.String() {
			lines[ev["layer"].(string)] = ev
		}
	}
	srv, eng := lines["server"], lines["engine"]
	if srv == nil || eng == nil {
		t.Fatalf("want server and engine lines for trace %s:\n%s", call.TraceID, buf.String())
	}
	if srv["op"] != "modexp" || srv["outcome"] != "ok" || srv["modulus_bits"] != float64(n.BitLen()) {
		t.Errorf("server wide line payload: %v", srv)
	}
	if eng["op"] != "modexp" || eng["parent_id"] != srv["span_id"] {
		t.Errorf("engine wide line not the server span's child: %v", eng)
	}
}
