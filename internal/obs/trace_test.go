package obs

import (
	"encoding/json"
	"strings"
	"testing"
	"time"
)

func span(i int, worker int) Span {
	base := time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC)
	return Span{
		Name: "modexp", Worker: worker, Outcome: "ok",
		Start:     base.Add(time.Duration(i) * time.Millisecond),
		QueueWait: 100 * time.Microsecond,
		Exec:      time.Duration(i+1) * time.Millisecond,
		SimCycles: int64(i),
	}
}

// TestTracerRingBounded: the ring keeps only the most recent capacity
// spans, oldest-first, while Total counts everything.
func TestTracerRingBounded(t *testing.T) {
	tr := NewTracer(4)
	for i := 0; i < 10; i++ {
		tr.Record(span(i, 0))
	}
	if tr.Len() != 4 {
		t.Fatalf("Len = %d, want 4", tr.Len())
	}
	if tr.Total() != 10 {
		t.Fatalf("Total = %d, want 10", tr.Total())
	}
	spans := tr.Spans()
	for i, s := range spans {
		if want := time.Duration(6+i+1) * time.Millisecond; s.Exec != want {
			t.Errorf("span %d: exec %v, want %v (oldest-first order)", i, s.Exec, want)
		}
	}
}

func TestTracerDefaultCapacity(t *testing.T) {
	tr := NewTracer(0)
	if len(tr.ring) != DefaultTraceCapacity {
		t.Errorf("default capacity %d", len(tr.ring))
	}
}

// TestChromeTraceExport: the export is valid JSON in the trace-event
// format — a traceEvents array of "X" slices with µs timestamps plus
// thread-name metadata — which is what Perfetto/chrome://tracing load.
func TestChromeTraceExport(t *testing.T) {
	tr := NewTracer(16)
	tr.Record(span(0, 0))
	sized := span(1, 1)
	sized.Bits, sized.Batch = 256, 4
	tr.Record(sized)
	var sb strings.Builder
	if err := tr.WriteChromeTrace(&sb); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []struct {
			Name  string         `json:"name"`
			Phase string         `json:"ph"`
			Ts    float64        `json:"ts"`
			Dur   float64        `json:"dur"`
			Pid   int            `json:"pid"`
			Tid   int            `json:"tid"`
			Args  map[string]any `json:"args"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal([]byte(sb.String()), &doc); err != nil {
		t.Fatalf("export is not valid JSON: %v", err)
	}
	var metas, queued, execs int
	for _, ev := range doc.TraceEvents {
		switch ev.Phase {
		case "M":
			metas++
		case "X":
			if strings.HasSuffix(ev.Name, "/queued") {
				queued++
				if ev.Dur != 100 { // 100µs queue wait
					t.Errorf("queued dur = %v µs, want 100", ev.Dur)
				}
			} else {
				execs++
				if ev.Args["outcome"] != "ok" {
					t.Errorf("exec args missing outcome: %v", ev.Args)
				}
			}
			if ev.Ts < 0 {
				t.Errorf("negative timestamp %v", ev.Ts)
			}
		default:
			t.Errorf("unexpected phase %q", ev.Phase)
		}
	}
	if metas != 2 || queued != 2 || execs != 2 {
		t.Errorf("event census: %d metas, %d queued, %d execs (want 2 each)",
			metas, queued, execs)
	}
	// Timestamps are absolute wall-clock µs (so traces exported by
	// separate processes line up when merged). The second span was
	// enqueued 1ms after the first and waited 100µs, so its exec slice
	// starts at base + 1100µs.
	base := time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC)
	wantTs := float64(base.Add(1100*time.Microsecond).UnixNano()) / 1e3
	found := false
	for _, ev := range doc.TraceEvents {
		if ev.Phase == "X" && ev.Name == "modexp" && ev.Tid == 1 {
			found = true
			if ev.Ts != wantTs {
				t.Errorf("second exec ts = %v µs, want %v", ev.Ts, wantTs)
			}
			if ev.Args["modulus_bits"] != float64(256) || ev.Args["batch"] != float64(4) {
				t.Errorf("second exec args lack modulus_bits/batch: %v", ev.Args)
			}
		}
	}
	if !found {
		t.Error("missing exec slice for worker 1")
	}
}

// TestChromeTraceProcessMetadata: SetProcess adds a process_name
// metadata event and stamps every event with the real pid, so merged
// multi-process traces attribute slices to the right daemon.
func TestChromeTraceProcessMetadata(t *testing.T) {
	tr := NewTracer(4)
	tr.SetProcess("montsysd")
	tr.Record(span(0, 0))
	var sb strings.Builder
	if err := tr.WriteChromeTrace(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	if !strings.Contains(out, `"process_name"`) || !strings.Contains(out, "montsysd") {
		t.Errorf("export missing process_name metadata: %s", out)
	}
	if strings.Contains(out, `"pid":1,`) {
		t.Errorf("export still uses placeholder pid 1: %s", out)
	}
}

// TestChromeTraceEmpty: an empty tracer still exports a loadable
// document.
func TestChromeTraceEmpty(t *testing.T) {
	var sb strings.Builder
	if err := NewTracer(4).WriteChromeTrace(&sb); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "traceEvents") {
		t.Errorf("empty export: %q", sb.String())
	}
}
