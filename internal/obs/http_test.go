package obs

import (
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"
)

func get(t *testing.T, srv *httptest.Server, path string) (int, string, http.Header) {
	t.Helper()
	resp, err := srv.Client().Get(srv.URL + path)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, string(body), resp.Header
}

// TestHandlerEndToEnd serves a Collector carrying an engine info gauge
// and two job spans, and checks every endpoint answers with the right
// shape. The engine's own counters are registered and checked by the
// engine package (TestObserverCollectorAgreesWithStats).
func TestHandlerEndToEnd(t *testing.T) {
	col := NewCollector(WithTracing(128))
	col.SetEngineInfo(4, "model", "guarded")
	col.JobSpan(Span{Name: "modexp", Worker: 0, Outcome: "ok", Start: time.Now().Add(-time.Millisecond),
		QueueWait: 50 * time.Microsecond, Exec: 900 * time.Microsecond, Muls: 7, ModelCycles: 1234})
	col.JobSpan(Span{Name: "mont", Worker: 1, Outcome: "canceled", Start: time.Now(), QueueWait: time.Microsecond})

	srv := httptest.NewServer(NewMux(col.Registry(), col.Tracer(), nil, nil))
	defer srv.Close()

	code, body, hdr := get(t, srv, "/metrics")
	if code != http.StatusOK {
		t.Fatalf("/metrics: %d", code)
	}
	if ct := hdr.Get("Content-Type"); !strings.Contains(ct, "text/plain") {
		t.Errorf("/metrics content type %q", ct)
	}
	for _, want := range []string{
		"# TYPE montsys_engine_workers gauge",
		"montsys_engine_workers 4",
		`montsys_engine_info{mode="model",variant="guarded"} 1`,
	} {
		if !strings.Contains(body, want) {
			t.Errorf("/metrics missing %q", want)
		}
	}

	code, body, _ = get(t, srv, "/debug/vars")
	if code != http.StatusOK || !json.Valid([]byte(body)) {
		t.Errorf("/debug/vars: %d, valid JSON = %v", code, json.Valid([]byte(body)))
	}

	code, body, _ = get(t, srv, "/debug/pprof/")
	if code != http.StatusOK || !strings.Contains(body, "goroutine") {
		t.Errorf("/debug/pprof/: %d", code)
	}

	code, body, hdr = get(t, srv, "/trace")
	if code != http.StatusOK {
		t.Fatalf("/trace: %d", code)
	}
	if ct := hdr.Get("Content-Type"); ct != "application/json" {
		t.Errorf("/trace content type %q", ct)
	}
	var doc struct {
		TraceEvents []map[string]any `json:"traceEvents"`
	}
	if err := json.Unmarshal([]byte(body), &doc); err != nil {
		t.Fatalf("/trace not JSON: %v", err)
	}
	if len(doc.TraceEvents) == 0 {
		t.Error("/trace exported no events")
	}

	code, body, _ = get(t, srv, "/")
	if code != http.StatusOK || !strings.Contains(body, "/metrics") {
		t.Errorf("index: %d %q", code, body)
	}
	if code, _, _ := get(t, srv, "/nosuch"); code != http.StatusNotFound {
		t.Errorf("unknown path: %d", code)
	}
}

// TestTraceHandlerDisabled: a collector without tracing answers 404 on
// /trace rather than an empty document.
func TestTraceHandlerDisabled(t *testing.T) {
	col := NewCollector()
	srv := httptest.NewServer(NewMux(col.Registry(), col.Tracer(), nil, nil))
	defer srv.Close()
	if code, _, _ := get(t, srv, "/trace"); code != http.StatusNotFound {
		t.Errorf("/trace without tracing: %d", code)
	}
}
