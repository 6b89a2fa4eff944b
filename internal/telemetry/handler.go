package telemetry

import (
	"encoding/json"
	"expvar"
	"net"
	"net/http"
	"net/http/pprof"
	"strconv"
	"strings"
	"sync"
)

// Handler returns the registry's serving surface:
//
//	/metrics           Prometheus text format (one Snapshot per scrape)
//	/debug/traces      recent completed traces, one summary per root span,
//	                   newest first (?n= bounds the count)
//	/debug/trace/{id}  one hierarchical trace tree by hex trace ID
//	/debug/slow        the flight recorder's pinned anomalous traces
//	/debug/{name}      live debug sources registered via RegisterDebug
//	                   (e.g. /debug/cluster)
//	/debug/vars        the process's expvar page (includes PublishExpvar output)
//	/debug/pprof/*     the standard pprof endpoints
//
// A nil registry serves empty metrics and traces; pprof still works.
func (r *Registry) Handler() http.Handler {
	writeJSON := func(w http.ResponseWriter, v any) {
		w.Header().Set("Content-Type", "application/json")
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		_ = enc.Encode(v)
	}
	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, req *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		_ = r.WriteProm(w)
	})
	mux.HandleFunc("/debug/traces", func(w http.ResponseWriter, req *http.Request) {
		n := DefaultCompletedTraces
		if s := req.URL.Query().Get("n"); s != "" {
			if v, err := strconv.Atoi(s); err == nil && v > 0 {
				n = v
			}
		}
		recent := r.RecentTraces(n)
		if recent == nil {
			recent = []TraceSummary{}
		}
		writeJSON(w, recent)
	})
	mux.HandleFunc("/debug/trace/", func(w http.ResponseWriter, req *http.Request) {
		idStr := strings.TrimPrefix(req.URL.Path, "/debug/trace/")
		id, err := ParseTraceID(idStr)
		if err != nil {
			http.Error(w, "bad trace id: "+idStr, http.StatusBadRequest)
			return
		}
		t, ok := r.TraceTree(id)
		if !ok {
			http.Error(w, "trace not found: "+idStr, http.StatusNotFound)
			return
		}
		writeJSON(w, struct {
			Trace     string       `json:"trace"`
			Complete  bool         `json:"complete"`
			PinReason string       `json:"pin_reason,omitempty"`
			Dropped   int          `json:"dropped,omitempty"`
			Spans     int          `json:"spans"`
			Tree      []*TraceNode `json:"tree"`
		}{t.Trace.String(), t.Complete, t.PinReason, t.Dropped, len(t.Spans), t.Tree()})
	})
	mux.HandleFunc("/debug/slow", func(w http.ResponseWriter, req *http.Request) {
		pinned := r.SlowTraces()
		if pinned == nil {
			pinned = []TraceSummary{}
		}
		writeJSON(w, struct {
			SlowThresholdNs int64          `json:"slow_threshold_ns"`
			Pinned          []TraceSummary `json:"pinned"`
		}{int64(r.SlowThreshold()), pinned})
	})
	mux.HandleFunc("/debug/", func(w http.ResponseWriter, req *http.Request) {
		name := strings.TrimPrefix(req.URL.Path, "/debug/")
		if fn := r.debugSource(name); fn != nil {
			writeJSON(w, fn())
			return
		}
		http.NotFound(w, req)
	})
	mux.Handle("/debug/vars", expvar.Handler())
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return mux
}

// Serve binds addr and serves Handler in the background, returning the
// bound address (useful with ":0") and a closer that stops the listener.
func (r *Registry) Serve(addr string) (bound string, closeFn func() error, err error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return "", nil, err
	}
	srv := &http.Server{Handler: r.Handler()}
	go func() { _ = srv.Serve(ln) }()
	return ln.Addr().String(), srv.Close, nil
}

// expvarOnce guards against double-publishing (expvar.Publish panics on a
// duplicate name, and tests build many registries).
var (
	expvarMu        sync.Mutex
	expvarPublished = map[string]bool{}
)

// PublishExpvar exposes the registry's snapshot under the given expvar
// name (conventionally "secndp"). Publishing the same name twice is a
// no-op — the process-global expvar namespace keeps the first registry.
// No-op on a nil registry.
func (r *Registry) PublishExpvar(name string) {
	if r == nil {
		return
	}
	expvarMu.Lock()
	defer expvarMu.Unlock()
	if expvarPublished[name] {
		return
	}
	expvarPublished[name] = true
	expvar.Publish(name, expvar.Func(func() any { return r.Snapshot() }))
}
