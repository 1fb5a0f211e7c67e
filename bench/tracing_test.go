package main

import (
	"testing"
	"time"

	montsys "repro"
)

// A backend export holds an engine job as a queued and an execution
// slice sharing a span id; they merge into one span. Unsampled spans
// and categories mapped to no layer are dropped.
func TestChromeSpans(t *testing.T) {
	doc := []byte(`{"traceEvents":[
	{"name":"process_name","ph":"M","pid":7,"tid":0,"args":{"name":"montsysd"}},
	{"name":"server/modexp","ph":"X","cat":"server","ts":100,"dur":50,"pid":7,"tid":1000,
	 "args":{"trace_id":"t1","span_id":"s","parent_id":"c"}},
	{"name":"modexp/queued","ph":"X","cat":"queue","ts":110,"dur":5,"pid":7,"tid":0,
	 "args":{"trace_id":"t1","span_id":"e","parent_id":"s"}},
	{"name":"modexp","ph":"X","cat":"exec","ts":115,"dur":30,"pid":7,"tid":0,
	 "args":{"trace_id":"t1","span_id":"e","parent_id":"s","kit":"cios"}},
	{"name":"modexp","ph":"X","cat":"exec","ts":300,"dur":30,"pid":7,"tid":1,"args":{"outcome":"ok"}},
	{"name":"probe","ph":"X","cat":"other","ts":1,"dur":1,"pid":7,"tid":1,"args":{"trace_id":"t9","span_id":"p"}}
	]}`)
	ss, err := chromeSpans(doc, backendLayer)
	if err != nil {
		t.Fatal(err)
	}
	want := []tspan{
		{layer: "server", trace: "t1", id: "s", parent: "c", iv: interval{100, 150}},
		{layer: "engine", trace: "t1", id: "e", parent: "s", iv: interval{110, 145}},
	}
	if len(ss) != len(want) {
		t.Fatalf("spans %+v, want %+v", ss, want)
	}
	for i := range want {
		if ss[i] != want[i] {
			t.Errorf("span %d = %+v, want %+v", i, ss[i], want[i])
		}
	}
	if _, err := chromeSpans([]byte("{"), backendLayer); err == nil {
		t.Error("truncated export accepted")
	}
}

// Self time is a layer's span time minus what its children cover;
// traces missing a layer are left out.
func TestSelfTimes(t *testing.T) {
	spans := []tspan{
		// trace a: client 0–100 ⊃ route 10–90 ⊃ server 20–80 ⊃ engine 30–70,
		// with the route's two spans (a hedge) overlapping.
		{layer: "client", trace: "a", id: "c", iv: interval{0, 100}},
		{layer: "route", trace: "a", id: "r", parent: "c", iv: interval{10, 90}},
		{layer: "route", trace: "a", id: "r2", parent: "r", iv: interval{15, 85}},
		{layer: "server", trace: "a", id: "s", parent: "r2", iv: interval{20, 80}},
		{layer: "engine", trace: "a", id: "e", parent: "s", iv: interval{30, 70}},
		// trace b has no engine span: incomplete.
		{layer: "client", trace: "b", id: "c", iv: interval{0, 10}},
		{layer: "route", trace: "b", id: "r", parent: "c", iv: interval{1, 9}},
		{layer: "server", trace: "b", id: "s", parent: "r", iv: interval{2, 8}},
	}
	got := selfTimes(spans, []string{"client", "route", "server", "engine"})
	want := map[string]float64{"client": 20, "route": 20, "server": 20, "engine": 40}
	for l, v := range want {
		if len(got[l]) != 1 || !near(got[l][0], v) {
			t.Errorf("self[%s] = %v, want [%g]", l, got[l], v)
		}
	}
}

func TestTracerSpans(t *testing.T) {
	tr := montsys.NewTracer(8)
	tc := montsys.NewTraceContext(1)
	t0 := time.UnixMicro(1000)
	tr.Record(montsys.TraceSpan{Name: "call/modexp", Track: "client", Start: t0, Exec: 40 * time.Microsecond,
		TraceID: tc.TraceID, SpanID: tc.SpanID})
	tr.Record(montsys.TraceSpan{Name: "request/x", Track: "bench", Start: t0, Exec: time.Millisecond})
	ss := tracerSpans(tr.Spans(), "client")
	if len(ss) != 1 || ss[0].iv != (interval{1000, 1040}) || ss[0].trace != tc.TraceID.String() || ss[0].parent != "" {
		t.Errorf("tracerSpans = %+v", ss)
	}
}
