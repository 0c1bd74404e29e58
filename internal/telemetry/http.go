package telemetry

import (
	"expvar"
	"net/http"
	"net/http/pprof"
	"sync"
)

// ServeHTTP makes a Registry an http.Handler: Prometheus text by default,
// the JSON dump with ?format=json (or an Accept header asking for JSON).
func (r *Registry) ServeHTTP(w http.ResponseWriter, req *http.Request) {
	if req.URL.Query().Get("format") == "json" ||
		req.Header.Get("Accept") == "application/json" {
		w.Header().Set("Content-Type", "application/json")
		_ = r.WriteJSON(w)
		return
	}
	w.Header().Set("Content-Type", "text/plain; version=0.0.4")
	r.WriteText(w)
}

var expvarOnce sync.Once

// PublishExpvar publishes the Default registry's snapshot under the
// standard expvar name, so /debug/vars includes telemetry alongside the
// runtime's memstats.  Safe to call repeatedly.
func PublishExpvar() {
	expvarOnce.Do(func() {
		expvar.Publish("telemetry", expvar.Func(func() any { return Default.Snapshot() }))
	})
}

// NewMux returns an http.ServeMux exposing reg at /metrics (Prometheus
// text), /metrics.json (JSON dump), the expvar page at /debug/vars, and
// the standard profiler at /debug/pprof/* (mounted explicitly — the mux
// is private, so the net/http/pprof init-time DefaultServeMux
// registration never reaches it).  Callers mount extra handlers on the
// result.
func NewMux(reg *Registry) *http.ServeMux {
	PublishExpvar()
	mux := http.NewServeMux()
	mux.Handle("/metrics", reg)
	mux.HandleFunc("/metrics.json", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		_ = reg.WriteJSON(w)
	})
	mux.Handle("/debug/vars", expvar.Handler())
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return mux
}
