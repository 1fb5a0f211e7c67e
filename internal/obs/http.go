package obs

import (
	"expvar"
	"fmt"
	"io"
	"net/http"
	"net/http/pprof"
)

// NewMux builds the observability HTTP mux from its parts:
//
//	/metrics          Prometheus text exposition of the registry
//	/statusz          human SLO page of slo
//	/quotaz           per-tenant quota page of the QoS plane q
//	/debug/vars       expvar (Go runtime memstats, cmdline)
//	/debug/pprof/...  net/http/pprof (profile, heap, goroutine, trace)
//	/trace            Chrome trace-event JSON of the span ring buffer
//	/                 a plain-text index of the above
//
// A nil tracer, slo or q makes its page answer 404. Serve it wherever
// convenient, e.g.
//
//	go http.ListenAndServe(":9090", obs.NewMux(col.Registry(), col.Tracer(), nil, nil))
//
// then scrape /metrics, run `go tool pprof host:9090/debug/pprof/profile`,
// and open /trace in Perfetto (ui.perfetto.dev).
func NewMux(r *Registry, t *Tracer, slo *SLOTracker, q Quotaz) http.Handler {
	mux := http.NewServeMux()
	mux.Handle("/metrics", MetricsHandler(r))
	mux.Handle("/debug/vars", expvar.Handler())
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	mux.Handle("/trace", TraceHandler(t))
	mux.Handle("/statusz", StatuszHandler(slo))
	mux.Handle("/quotaz", QuotazHandler(q))
	mux.HandleFunc("/", func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != "/" {
			http.NotFound(w, r)
			return
		}
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		fmt.Fprint(w, "montsys observability\n\n"+
			"/metrics          Prometheus text format\n"+
			"/statusz          human SLO page (burn rates per objective and window)\n"+
			"/quotaz           per-tenant QoS quota and usage page\n"+
			"/debug/vars       expvar JSON\n"+
			"/debug/pprof/     pprof index (profile, heap, goroutine, ...)\n"+
			"/trace            Chrome trace-event JSON (open in Perfetto)\n")
	})
	return mux
}

// MetricsHandler serves one registry in Prometheus text format.
func MetricsHandler(r *Registry) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		if err := r.WritePrometheus(w); err != nil {
			// Headers are gone; all we can do is drop the connection.
			return
		}
	})
}

// TraceHandler serves a tracer's spans as Chrome trace-event JSON,
// downloadable and loadable in Perfetto. A nil tracer (collector built
// without WithTracing) answers 404.
func TraceHandler(t *Tracer) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		if t == nil {
			http.Error(w, "tracing disabled (build the collector with WithTracing)",
				http.StatusNotFound)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		w.Header().Set("Content-Disposition", `attachment; filename="montsys-trace.json"`)
		_ = t.WriteChromeTrace(w)
	})
}

// Quotaz renders a per-tenant quota/usage page — the QoS plane
// implements it. A tiny interface here keeps obs free of a qos import
// (obs is a leaf package everything else builds on).
type Quotaz interface {
	WriteQuotaz(w io.Writer)
}

// QuotazHandler serves the per-tenant QoS quota page. A nil source
// answers 404 (no QoS plane configured).
func QuotazHandler(q Quotaz) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		if q == nil {
			http.Error(w, "QoS disabled (start with -qos to configure tenant quotas)",
				http.StatusNotFound)
			return
		}
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		q.WriteQuotaz(w)
	})
}

// StatuszHandler serves an SLO tracker's human status page. A nil
// tracker answers 404.
func StatuszHandler(t *SLOTracker) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		if t == nil {
			http.Error(w, "SLO tracking disabled", http.StatusNotFound)
			return
		}
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		t.WriteStatusz(w)
	})
}
