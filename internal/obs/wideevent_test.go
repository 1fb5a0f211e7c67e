package obs

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"
)

// TestWideEventJSONShape: a fully-populated event serializes to one
// parseable JSON line carrying every documented key, with the ids in
// their hex forms.
func TestWideEventJSONShape(t *testing.T) {
	var buf bytes.Buffer
	ww := NewWideWriter(&buf)
	ww.now = func() time.Time { return time.Date(2026, 1, 2, 3, 4, 5, 0, time.UTC) }

	tid := NewTraceID()
	sid, pid := NewSpanID(), NewSpanID()
	ww.Emit(&WideEvent{
		Layer: "route", Op: "modexp",
		TraceID: tid, SpanID: sid, Parent: pid,
		Outcome: "overloaded", Kit: "cios", Backend: "127.0.0.1:7077",
		Bits: 512, Batch: 8,
		Dur: 1500 * time.Microsecond, Queue: 250 * time.Microsecond,
		Attempts: 2, Hedged: true, Err: "engine: overloaded",
	})

	line := buf.String()
	if !strings.HasSuffix(line, "\n") || strings.Count(line, "\n") != 1 {
		t.Fatalf("not one line: %q", line)
	}
	var ev map[string]any
	if err := json.Unmarshal([]byte(line), &ev); err != nil {
		t.Fatalf("not JSON: %v\n%s", err, line)
	}
	want := map[string]any{
		"ts":           "2026-01-02T03:04:05Z",
		"layer":        "route",
		"op":           "modexp",
		"trace_id":     tid.String(),
		"span_id":      sid.String(),
		"parent_id":    pid.String(),
		"outcome":      "overloaded",
		"kit":          "cios",
		"backend":      "127.0.0.1:7077",
		"modulus_bits": float64(512),
		"batch":        float64(8),
		"dur_us":       float64(1500),
		"queue_us":     float64(250),
		"attempts":     float64(2),
		"hedged":       true,
		"err":          "engine: overloaded",
	}
	for k, v := range want {
		if ev[k] != v {
			t.Errorf("%s = %v, want %v", k, ev[k], v)
		}
	}
	if len(ev) != len(want) {
		t.Errorf("extra keys: got %d fields, want %d: %s", len(ev), len(want), line)
	}
}

// TestWideEventOmitsEmptyFields: zero-valued optional fields stay off
// the line entirely — wide events stay narrow when there is nothing to
// say.
func TestWideEventOmitsEmptyFields(t *testing.T) {
	var buf bytes.Buffer
	ww := NewWideWriter(&buf)
	ww.Emit(&WideEvent{Layer: "server", Op: "mont", Outcome: "ok"})

	var ev map[string]any
	if err := json.Unmarshal(buf.Bytes(), &ev); err != nil {
		t.Fatalf("not JSON: %v\n%s", err, buf.String())
	}
	for _, absent := range []string{
		"trace_id", "span_id", "parent_id", "kit", "backend",
		"modulus_bits", "batch", "queue_us", "attempts", "hedged", "err",
	} {
		if _, ok := ev[absent]; ok {
			t.Errorf("zero field %q serialized: %s", absent, buf.String())
		}
	}
	for _, present := range []string{"ts", "layer", "op", "outcome", "dur_us"} {
		if _, ok := ev[present]; !ok {
			t.Errorf("required field %q missing: %s", present, buf.String())
		}
	}
}

// TestWideWriterDisabled: the nil writer is the documented off switch —
// constructing on nil returns nil, and Emit/Enabled on nil are safe.
func TestWideWriterDisabled(t *testing.T) {
	ww := NewWideWriter(nil)
	if ww != nil {
		t.Fatal("NewWideWriter(nil) != nil")
	}
	if ww.Enabled() {
		t.Fatal("nil writer claims enabled")
	}
	ww.Emit(&WideEvent{Layer: "client", Op: "modexp"}) // must not panic
}

// TestWideWriterConcurrent: concurrent emitters never interleave
// mid-line (every line parses) and never lose events. Run under -race
// this also proves the buffer reuse is properly serialized.
func TestWideWriterConcurrent(t *testing.T) {
	var buf bytes.Buffer
	ww := NewWideWriter(&safeWriter{w: &buf})
	const goroutines, each = 8, 50
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < each; i++ {
				ww.Emit(&WideEvent{Layer: "engine", Op: "modexp", Outcome: "ok"})
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
		if ww.Enabled() != tc.enabled || (c != nil) != tc.wantCloser {
			t.Fatalf("OpenWideEvents(%q) = enabled %v closer %v, want %v %v",
				tc.dest, ww.Enabled(), c != nil, tc.enabled, tc.wantCloser)
		}
		if c != nil {
			ww.Emit(&WideEvent{Layer: "server", Op: "modexp", Outcome: "ok"})
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
	ww.Emit(&WideEvent{Layer: "server", Op: "mont", Outcome: "ok"})
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
