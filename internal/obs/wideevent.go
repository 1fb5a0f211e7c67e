package obs

import (
	"fmt"
	"io"
	"os"
	"strconv"
	"sync"
	"time"
)

// WideEvent is one wide structured request log record: everything known
// about a sampled request at one layer, denormalized into a single
// line, in the "canonical log line" style. Every layer that touches a
// sampled request emits one (Layer "client", "route", "server" or
// "engine"), all sharing the trace id, so a grep for one trace id
// reconstructs the request's whole story without joining log streams.
type WideEvent struct {
	Layer    string // emitting layer: "client" | "route" | "server" | "engine"
	Op       string // "mont" | "modexp" | "batch_modexp"
	TraceID  TraceID
	SpanID   SpanID
	Parent   SpanID
	Outcome  string        // wire code string or engine outcome
	Tenant   string        // tenant the request was accounted to (QoS)
	Class    string        // QoS class name when the request was tagged
	Kit      string        // concrete compute kit (engine layer)
	Backend  string        // chosen backend address (route layer)
	Bits     int           // modulus width in bits
	Batch    int           // jobs in the request (batch ops)
	Dur      time.Duration // whole-span duration at this layer
	Queue    time.Duration // queue wait portion (engine layer)
	Attempts int           // tries incl. hedges/failovers (client/route)
	Hedged   bool          // a hedge was launched (route layer)
	Err      string        // error detail when Outcome isn't ok
}

// WideWriter serializes wide events as one JSON line each. The writer
// is zero-cost when off: a nil *WideWriter is valid and Emit on it is
// an inlineable nil-check — callers keep unconditional Emit calls on
// the hot path and pay one predictable branch when logging is
// disabled. When on, serialization is a hand-rolled append into a
// reused buffer under the writer's mutex: no reflection, one Write
// call per event.
type WideWriter struct {
	mu  sync.Mutex
	w   io.Writer
	buf []byte
	now func() time.Time // test seam
}

// NewWideWriter wraps w (a file, stdout, a test buffer). Returns nil —
// the disabled writer — when w is nil.
func NewWideWriter(w io.Writer) *WideWriter {
	if w == nil {
		return nil
	}
	return &WideWriter{w: w, now: time.Now}
}

// OpenWideEvents opens a wide-event destination by name: "" disables
// the log (nil writer), "stderr" and "stdout" name the process streams,
// and anything else is a file path opened for append. The closer is
// non-nil only when a file was opened; the caller closes it.
func OpenWideEvents(dest string) (*WideWriter, io.Closer, error) {
	switch dest {
	case "":
		return nil, nil, nil
	case "stderr":
		return NewWideWriter(os.Stderr), nil, nil
	case "stdout":
		return NewWideWriter(os.Stdout), nil, nil
	}
	f, err := os.OpenFile(dest, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, nil, fmt.Errorf("wide-events log: %w", err)
	}
	return NewWideWriter(f), f, nil
}

// Enabled reports whether events will actually be written.
func (ww *WideWriter) Enabled() bool { return ww != nil }

// Emit writes one event as a JSON line. No-op on a nil receiver.
func (ww *WideWriter) Emit(ev *WideEvent) {
	if ww == nil {
		return
	}
	ww.mu.Lock()
	defer ww.mu.Unlock()
	b := ww.buf[:0]
	b = append(b, `{"ts":"`...)
	b = ww.now().UTC().AppendFormat(b, time.RFC3339Nano)
	b = append(b, `","layer":`...)
	b = strconv.AppendQuote(b, ev.Layer)
	b = append(b, `,"op":`...)
	b = strconv.AppendQuote(b, ev.Op)
	if !ev.TraceID.IsZero() {
		b = append(b, `,"trace_id":"`...)
		b = append(b, ev.TraceID.String()...)
		b = append(b, `","span_id":"`...)
		b = append(b, ev.SpanID.String()...)
		b = append(b, '"')
		if !ev.Parent.IsZero() {
			b = append(b, `,"parent_id":"`...)
			b = append(b, ev.Parent.String()...)
			b = append(b, '"')
		}
	}
	b = append(b, `,"outcome":`...)
	b = strconv.AppendQuote(b, ev.Outcome)
	if ev.Tenant != "" {
		b = append(b, `,"tenant":`...)
		b = strconv.AppendQuote(b, ev.Tenant)
	}
	if ev.Class != "" {
		b = append(b, `,"class":`...)
		b = strconv.AppendQuote(b, ev.Class)
	}
	if ev.Kit != "" {
		b = append(b, `,"kit":`...)
		b = strconv.AppendQuote(b, ev.Kit)
	}
	if ev.Backend != "" {
		b = append(b, `,"backend":`...)
		b = strconv.AppendQuote(b, ev.Backend)
	}
	if ev.Bits > 0 {
		b = append(b, `,"modulus_bits":`...)
		b = strconv.AppendInt(b, int64(ev.Bits), 10)
	}
	if ev.Batch > 0 {
		b = append(b, `,"batch":`...)
		b = strconv.AppendInt(b, int64(ev.Batch), 10)
	}
	b = append(b, `,"dur_us":`...)
	b = strconv.AppendInt(b, ev.Dur.Microseconds(), 10)
	if ev.Queue > 0 {
		b = append(b, `,"queue_us":`...)
		b = strconv.AppendInt(b, ev.Queue.Microseconds(), 10)
	}
	if ev.Attempts > 0 {
		b = append(b, `,"attempts":`...)
		b = strconv.AppendInt(b, int64(ev.Attempts), 10)
	}
	if ev.Hedged {
		b = append(b, `,"hedged":true`...)
	}
	if ev.Err != "" {
		b = append(b, `,"err":`...)
		b = strconv.AppendQuote(b, ev.Err)
	}
	b = append(b, '}', '\n')
	ww.buf = b
	_, _ = ww.w.Write(b)
}
