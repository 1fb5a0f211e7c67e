package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"strconv"
	"time"

	montsys "repro"
)

// tspan is one trace-plane span reduced to what self time needs.
type tspan struct {
	layer             string
	trace, id, parent string
	iv                interval // wall-clock microseconds
}

// chromeSpans extracts the sampled spans of one process's /trace export
// (Chrome trace-event JSON). layer maps an event category to the layer
// the span belongs to; "" drops it. An engine job is exported as a
// queued slice and an execution slice sharing one span id; they merge
// into one span from enqueue to finish.
func chromeSpans(doc []byte, layer func(cat string) string) ([]tspan, error) {
	var d struct {
		TraceEvents []struct {
			Phase string         `json:"ph"`
			Cat   string         `json:"cat"`
			Ts    float64        `json:"ts"`
			Dur   float64        `json:"dur"`
			Args  map[string]any `json:"args"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(doc, &d); err != nil {
		return nil, fmt.Errorf("trace export: %w", err)
	}
	byID := map[string]int{}
	var out []tspan
	for _, ev := range d.TraceEvents {
		tr, _ := ev.Args["trace_id"].(string)
		id, _ := ev.Args["span_id"].(string)
		l := layer(ev.Cat)
		if ev.Phase != "X" || tr == "" || id == "" || l == "" {
			continue
		}
		parent, _ := ev.Args["parent_id"].(string)
		iv := interval{ev.Ts, ev.Ts + ev.Dur}
		if i, ok := byID[tr+"/"+id]; ok {
			out[i].iv.start = min(out[i].iv.start, iv.start)
			out[i].iv.end = max(out[i].iv.end, iv.end)
			continue
		}
		byID[tr+"/"+id] = len(out)
		out = append(out, tspan{layer: l, trace: tr, id: id, parent: parent, iv: iv})
	}
	return out, nil
}

// tracerSpans converts the sampled spans of an in-process tracer.
func tracerSpans(ss []montsys.TraceSpan, layer string) []tspan {
	var out []tspan
	for _, s := range ss {
		if s.TraceID.IsZero() {
			continue
		}
		start := float64(s.Start.Add(s.QueueWait).UnixNano()) / 1e3
		p := ""
		if !s.Parent.IsZero() {
			p = s.Parent.String()
		}
		out = append(out, tspan{layer: layer, trace: s.TraceID.String(), id: s.SpanID.String(), parent: p,
			iv: interval{start, start + float64(s.Exec.Nanoseconds())/1e3}})
	}
	return out
}

// selfTimes returns, for every trace that has a span in each of layers,
// each layer's self time: the duration of its spans minus the part
// their child spans cover. Results are per layer, one value per trace.
func selfTimes(spans []tspan, layers []string) map[string][]float64 {
	byTrace := map[string][]tspan{}
	for _, s := range spans {
		byTrace[s.trace] = append(byTrace[s.trace], s)
	}
	out := map[string][]float64{}
	for _, ss := range byTrace {
		children := map[string][]interval{}
		for _, s := range ss {
			children[s.parent] = append(children[s.parent], s.iv)
		}
		self := map[string]float64{}
		for _, s := range ss {
			self[s.layer] += s.iv.end - s.iv.start - covered(s.iv.start, s.iv.end, children[s.id])
		}
		complete := true
		for _, l := range layers {
			if _, ok := self[l]; !ok {
				complete = false
			}
		}
		if complete {
			for _, l := range layers {
				out[l] = append(out[l], self[l])
			}
		}
	}
	return out
}

// fleetSelfTimes fetches every daemon's /trace export, saves it with
// the client's spans next to the benchmark's span file, and returns
// trace.self_us.<layer> for the layers the fleet has: the median over
// complete sampled traces. Every span a balancer records (its server,
// route and backend-call spans) is the route layer.
func (r *runner) fleetSelfTimes(tag string, f *fleet, calls *montsys.Tracer) (map[string]metric, error) {
	spans := tracerSpans(calls.Spans(), "client")
	if err := r.writeSpans(tag, "client", calls.WriteChromeTrace); err != nil {
		return nil, err
	}
	layers := []string{"client", "server", "engine"}
	add := func(p *proc, source string, layer func(string) string) error {
		doc, err := get(p.obsURL + "/trace")
		if err != nil {
			return err
		}
		if err := r.writeSpans(tag, source, func(w io.Writer) error {
			_, err := io.Copy(w, bytes.NewReader(doc))
			return err
		}); err != nil {
			return err
		}
		ss, err := chromeSpans(doc, layer)
		spans = append(spans, ss...)
		return err
	}
	for i, p := range f.backends {
		if err := add(p, "montsysd-"+strconv.Itoa(i), backendLayer); err != nil {
			return nil, err
		}
	}
	if f.lb != nil {
		layers = append(layers, "route")
		if err := add(f.lb, "montsyslb", func(string) string { return "route" }); err != nil {
			return nil, err
		}
	}
	per := selfTimes(spans, layers)
	m := map[string]metric{}
	for _, l := range layers {
		v := per[l]
		if len(v) == 0 {
			return nil, fmt.Errorf("no complete sampled trace (layers %v) among %d spans", layers, len(spans))
		}
		m["trace.self_us."+l] = metric{median(v), "us", int64(len(v))}
	}
	return m, nil
}

// backendLayer maps a montsysd span category to its layer.
func backendLayer(cat string) string {
	switch cat {
	case "server":
		return "server"
	case "exec", "queue":
		return "engine"
	}
	return ""
}

// us is a wall-clock instant in microseconds, the unit of the trace
// exports.
func us(t time.Time) float64 { return float64(t.UnixNano()) / 1e3 }
