package obs

import (
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"
	"sync"
	"time"
)

// WideWriter renders sampled spans as wide structured request log
// lines: everything one layer knows about a sampled request,
// denormalized into a single JSON line in the "canonical log line"
// style. A tracer hands it every sampled span it records (see
// Tracer.SetWideEvents), so each layer's line — "client", "route",
// "server" or "engine" — carries the same facts as its span, and a grep
// for one trace id reconstructs the request's whole story without
// joining log streams. A nil *WideWriter is the disabled writer. When
// on, serialization is a hand-rolled append into a reused buffer under
// the writer's mutex: no reflection, one Write call per line.
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

// emit writes the wide line of one sampled span. The fixed keys come
// first, in this order — ts, layer (the span's Track, "engine" for
// worker-core spans), op (Name after its last '/'), trace_id, span_id,
// parent_id, outcome, dur_us (QueueWait+Exec), queue_us, kit,
// modulus_bits, batch — with zero-valued optional ones left off; then
// each Attr as a JSON string. An Attr never overwrites a fixed key.
func (ww *WideWriter) emit(s *Span) {
	layer := s.Track
	if layer == "" {
		layer = "engine"
	}
	ww.mu.Lock()
	defer ww.mu.Unlock()
	b := ww.buf[:0]
	b = append(b, `{"ts":"`...)
	b = ww.now().UTC().AppendFormat(b, time.RFC3339Nano)
	b = append(b, '"')
	b = appendWideString(b, "layer", layer)
	b = appendWideString(b, "op", s.Name[strings.LastIndexByte(s.Name, '/')+1:])
	b = appendWideString(b, "trace_id", s.TraceID.String())
	b = appendWideString(b, "span_id", s.SpanID.String())
	if !s.Parent.IsZero() {
		b = appendWideString(b, "parent_id", s.Parent.String())
	}
	b = appendWideString(b, "outcome", s.Outcome)
	b = appendWideInt(b, "dur_us", (s.QueueWait + s.Exec).Microseconds())
	if s.QueueWait > 0 {
		b = appendWideInt(b, "queue_us", s.QueueWait.Microseconds())
	}
	if s.Kit != "" {
		b = appendWideString(b, "kit", s.Kit)
	}
	if s.Bits > 0 {
		b = appendWideInt(b, "modulus_bits", int64(s.Bits))
	}
	if s.Batch > 0 {
		b = appendWideInt(b, "batch", int64(s.Batch))
	}
	for _, a := range s.Attrs {
		if !fixedWideKey(a.Key) {
			b = appendWideString(b, a.Key, a.Val)
		}
	}
	b = append(b, '}', '\n')
	ww.buf = b
	_, _ = ww.w.Write(b)
}

// fixedWideKey reports whether key is one of emit's fixed keys.
func fixedWideKey(key string) bool {
	switch key {
	case "ts", "layer", "op", "trace_id", "span_id", "parent_id", "outcome",
		"dur_us", "queue_us", "kit", "modulus_bits", "batch":
		return true
	}
	return false
}

func appendWideString(b []byte, key, val string) []byte {
	b = append(b, ',')
	b = strconv.AppendQuote(b, key)
	b = append(b, ':')
	return strconv.AppendQuote(b, val)
}

func appendWideInt(b []byte, key string, v int64) []byte {
	b = append(b, ',')
	b = strconv.AppendQuote(b, key)
	b = append(b, ':')
	return strconv.AppendInt(b, v, 10)
}
