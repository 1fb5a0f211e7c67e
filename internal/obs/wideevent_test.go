package obs

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"
)

// wideTracer returns a tracer whose wide lines land in the returned
// buffer, timestamped at a fixed instant.
func wideTracer() (*Tracer, *bytes.Buffer) {
	var buf bytes.Buffer
	ww := NewWideWriter(&buf)
	ww.now = func() time.Time { return time.Date(2026, 1, 2, 3, 4, 5, 0, time.UTC) }
	tr := NewTracer(16)
	tr.SetWideEvents(ww)
	return tr, &buf
}

// wideKeys decodes one JSON object line into its values and its keys in
// line order.
func wideKeys(t *testing.T, line string) (map[string]any, []string) {
	t.Helper()
	var ev map[string]any
	if err := json.Unmarshal([]byte(line), &ev); err != nil {
		t.Fatalf("not JSON: %v\n%s", err, line)
	}
	dec := json.NewDecoder(strings.NewReader(line))
	var keys []string
	if _, err := dec.Token(); err != nil { // '{'
		t.Fatal(err)
	}
	for dec.More() {
		k, err := dec.Token()
		if err != nil {
			t.Fatal(err)
		}
		keys = append(keys, k.(string))
		var skip json.RawMessage
		if err := dec.Decode(&skip); err != nil {
			t.Fatal(err)
		}
	}
	return ev, keys
}

// checkWideLine records span on a wide-event tracer and checks that it
// wrote exactly one parseable JSON line holding want, keys in order.
func checkWideLine(t *testing.T, span Span, want map[string]any, wantKeys []string) {
	t.Helper()
	tr, buf := wideTracer()
	tr.Record(span)
	line := buf.String()
	if !strings.HasSuffix(line, "\n") || strings.Count(line, "\n") != 1 {
		t.Fatalf("not one line: %q", line)
	}
	ev, keys := wideKeys(t, line)
	if !reflect.DeepEqual(ev, want) {
		t.Errorf("line = %v\nwant   %v", ev, want)
	}
	if !reflect.DeepEqual(keys, wantKeys) {
		t.Errorf("key order = %v\nwant        %v", keys, wantKeys)
	}
}

// TestWideEventJSONShape: recording a fully-populated sampled span
// writes one JSON line rendered from it — the fixed keys in their
// documented order and JSON types, then every Attr as a string.
func TestWideEventJSONShape(t *testing.T) {
	tid := NewTraceID()
	sid, pid := NewSpanID(), NewSpanID()
	checkWideLine(t, Span{
		Name: "route/modexp", Track: "route", Outcome: "overloaded",
		Start: time.Now(), QueueWait: 250 * time.Microsecond, Exec: 1250 * time.Microsecond,
		Kit: "cios", Bits: 512, Batch: 8,
		TraceID: tid, SpanID: sid, Parent: pid,
		Attrs: []Attr{
			{Key: "backend", Val: "127.0.0.1:7077"},
			{Key: "pick", Val: "hedge"},
			{Key: "attempts", Val: "2"},
			{Key: "err", Val: "engine: overloaded"},
		},
	}, map[string]any{
		"ts":           "2026-01-02T03:04:05Z",
		"layer":        "route",
		"op":           "modexp",
		"trace_id":     tid.String(),
		"span_id":      sid.String(),
		"parent_id":    pid.String(),
		"outcome":      "overloaded",
		"dur_us":       float64(1500),
		"queue_us":     float64(250),
		"kit":          "cios",
		"modulus_bits": float64(512),
		"batch":        float64(8),
		"backend":      "127.0.0.1:7077",
		"pick":         "hedge",
		"attempts":     "2",
		"err":          "engine: overloaded",
	}, []string{"ts", "layer", "op", "trace_id", "span_id", "parent_id", "outcome",
		"dur_us", "queue_us", "kit", "modulus_bits", "batch",
		"backend", "pick", "attempts", "err"})
}

// TestWideEventOmitsEmptyFields: a root engine-job span with its
// optional fields zero writes a line that leaves those keys off.
func TestWideEventOmitsEmptyFields(t *testing.T) {
	tid, sid := NewTraceID(), NewSpanID()
	checkWideLine(t, Span{
		Name: "mont", Outcome: "ok", Start: time.Now(), Exec: 40 * time.Microsecond,
		TraceID: tid, SpanID: sid,
	}, map[string]any{
		"ts":       "2026-01-02T03:04:05Z",
		"layer":    "engine",
		"op":       "mont",
		"trace_id": tid.String(),
		"span_id":  sid.String(),
		"outcome":  "ok",
		"dur_us":   float64(40),
	}, []string{"ts", "layer", "op", "trace_id", "span_id", "outcome", "dur_us"})
}

// TestWideLineOnlyForSampledSpans: an unsampled span (zero trace id)
// and an instant go into the ring but write no line.
func TestWideLineOnlyForSampledSpans(t *testing.T) {
	tr, buf := wideTracer()
	tr.Record(Span{Name: "modexp", Outcome: "ok", Start: time.Now(), Exec: time.Millisecond})
	tr.RecordInstant("integrity/quarantine", 1, time.Now())
	if tr.Len() != 2 {
		t.Fatalf("ring holds %d spans, want 2", tr.Len())
	}
	if buf.Len() != 0 {
		t.Fatalf("unsampled span or instant wrote a wide line: %s", buf.String())
	}
}

// TestWideLineAttrCannotOverwriteFixedKey: an Attr named like a fixed
// key is dropped from the line rather than emitted as a duplicate key
// that would shadow the span's own value.
func TestWideLineAttrCannotOverwriteFixedKey(t *testing.T) {
	tr, buf := wideTracer()
	tr.Record(Span{
		Name: "server/modexp", Track: "server", Outcome: "ok", Start: time.Now(),
		TraceID: NewTraceID(), SpanID: NewSpanID(),
		Attrs: []Attr{{Key: "outcome", Val: "bogus"}, {Key: "tenant", Val: "acme"}},
	})
	ev, keys := wideKeys(t, strings.TrimSuffix(buf.String(), "\n"))
	if ev["outcome"] != "ok" || ev["tenant"] != "acme" {
		t.Errorf("line = %v, want outcome ok and tenant acme", ev)
	}
	var n int
	for _, k := range keys {
		if k == "outcome" {
			n++
		}
	}
	if n != 1 {
		t.Errorf("outcome appears %d times: %s", n, buf.String())
	}
}

// TestWideWriterDisabled: the nil writer is the documented off switch —
// constructing on nil returns nil, and a tracer given it records
// sampled spans without writing anything.
func TestWideWriterDisabled(t *testing.T) {
	ww := NewWideWriter(nil)
	if ww != nil {
		t.Fatal("NewWideWriter(nil) != nil")
	}
	tr := NewTracer(4)
	tr.SetWideEvents(ww)
	tr.Record(Span{Name: "modexp", TraceID: NewTraceID(), SpanID: NewSpanID()}) // must not panic
	if tr.Len() != 1 {
		t.Fatalf("ring holds %d spans, want 1", tr.Len())
	}
}

// TestWideWriterConcurrent: concurrent recorders never interleave
// mid-line (every line parses) and never lose lines. Run under -race
// this also proves the buffer reuse is properly serialized.
func TestWideWriterConcurrent(t *testing.T) {
	var buf bytes.Buffer
	tr := NewTracer(64)
	tr.SetWideEvents(NewWideWriter(&safeWriter{w: &buf}))
	const goroutines, each = 8, 50
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < each; i++ {
				tr.Record(Span{Name: "modexp", Outcome: "ok", TraceID: NewTraceID(), SpanID: NewSpanID()})
			}
		}()
	}
	wg.Wait()
	lines := strings.Split(strings.TrimSuffix(buf.String(), "\n"), "\n")
	if len(lines) != goroutines*each {
		t.Fatalf("%d lines, want %d", len(lines), goroutines*each)
	}
	for _, l := range lines {
		if !json.Valid([]byte(l)) {
			t.Fatalf("corrupt line: %q", l)
		}
	}
}

// safeWriter makes a bytes.Buffer safe for the concurrent test without
// relying on WideWriter's own mutex (the property under test).
type safeWriter struct {
	mu sync.Mutex
	w  *bytes.Buffer
}

func (s *safeWriter) Write(p []byte) (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.w.Write(p)
}

// TestOpenWideEvents: the four destination forms — disabled, the two
// process streams, and a file path — open the right writer, and only a
// file comes back with a closer. A file destination appends, and an
// unopenable path is an error.
func TestOpenWideEvents(t *testing.T) {
	path := filepath.Join(t.TempDir(), "wide.log")
	sampled := Span{Name: "server/modexp", Track: "server", Outcome: "ok",
		TraceID: NewTraceID(), SpanID: NewSpanID()}
	for _, tc := range []struct {
		dest       string
		enabled    bool
		wantCloser bool
	}{
		{"", false, false},
		{"stderr", true, false},
		{"stdout", true, false},
		{path, true, true},
	} {
		ww, c, err := OpenWideEvents(tc.dest)
		if err != nil {
			t.Fatalf("OpenWideEvents(%q): %v", tc.dest, err)
		}
		if (ww != nil) != tc.enabled || (c != nil) != tc.wantCloser {
			t.Fatalf("OpenWideEvents(%q) = enabled %v closer %v, want %v %v",
				tc.dest, ww != nil, c != nil, tc.enabled, tc.wantCloser)
		}
		if c != nil {
			tr := NewTracer(4)
			tr.SetWideEvents(ww)
			tr.Record(sampled)
			if err := c.Close(); err != nil {
				t.Fatal(err)
			}
		}
	}
	// Reopening appends rather than truncates.
	ww, c, err := OpenWideEvents(path)
	if err != nil {
		t.Fatal(err)
	}
	tr := NewTracer(4)
	tr.SetWideEvents(ww)
	tr.Record(sampled)
	c.Close()
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if n := strings.Count(string(b), "\n"); n != 2 {
		t.Fatalf("file holds %d lines after two opens, want 2:\n%s", n, b)
	}
	if _, _, err := OpenWideEvents(filepath.Join(path, "not-a-dir", "x")); err == nil {
		t.Fatal("unopenable path accepted")
	}
}
