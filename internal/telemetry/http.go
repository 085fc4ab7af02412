package telemetry

import (
	"context"
	"encoding/json"
	"net"
	"net/http"
	"strconv"
)

// Handler returns the hub's HTTP surface:
//
//	GET /metrics   Prometheus text exposition of every instrument
//	GET /snapshot  JSON HubSnapshot (metrics + accuracy + journal stats)
//	GET /events    JSON array of recent journal events (?n=K limits it)
//	GET /          plain-text index of the above
//
// The handler only reads hub state through the same synchronized
// paths writers use, so it is safe to serve while a run is in flight.
// On a nil hub every route answers 503, honoring the package contract
// that a nil *Hub is usable everywhere.
func (h *Hub) Handler() http.Handler {
	return h.PrefixHandler("")
}

// PrefixHandler is Handler with the instrument surface restricted to
// names beginning with one of the given prefixes (see
// Registry.SnapshotPrefix): /metrics and the metrics section of
// /snapshot carry only the matching families, while the accuracy view
// and journal are served unfiltered. This is how a service built on a
// full hub — the phased server, whose hub also carries the
// per-session monitor instruments — exposes exactly its own
// phasemon_phased_* and phasemon_agg_* families without a second
// exporter.
func (h *Hub) PrefixHandler(prefixes ...string) http.Handler {
	if h == nil {
		return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			http.Error(w, "telemetry disabled (nil hub)", http.StatusServiceUnavailable)
		})
	}
	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, r *http.Request) {
		if !methodIsGet(w, r) {
			return
		}
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		_ = WritePrometheus(w, h.Registry.SnapshotPrefix(prefixes...))
	})
	mux.HandleFunc("/snapshot", func(w http.ResponseWriter, r *http.Request) {
		if !methodIsGet(w, r) {
			return
		}
		snap := h.Snapshot()
		snap.Metrics = h.Registry.SnapshotPrefix(prefixes...)
		writeJSON(w, snap)
	})
	mux.HandleFunc("/events", func(w http.ResponseWriter, r *http.Request) {
		if !methodIsGet(w, r) {
			return
		}
		max := 0
		if q := r.URL.Query().Get("n"); q != "" {
			n, err := strconv.Atoi(q)
			if err != nil || n < 1 {
				http.Error(w, "n must be a positive integer", http.StatusBadRequest)
				return
			}
			max = n
		}
		events := h.Journal.Recent(max)
		if events == nil {
			events = []Event{}
		}
		writeJSON(w, events)
	})
	mux.HandleFunc("/", func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != "/" {
			http.NotFound(w, r)
			return
		}
		if !methodIsGet(w, r) {
			return
		}
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		_, _ = w.Write([]byte("phasemon telemetry\n\n/metrics   Prometheus text format\n/snapshot  JSON metrics + live accuracy\n/events    recent event journal (?n=K)\n"))
	})
	return mux
}

func methodIsGet(w http.ResponseWriter, r *http.Request) bool {
	if r.Method != http.MethodGet && r.Method != http.MethodHead {
		http.Error(w, "method not allowed", http.StatusMethodNotAllowed)
		return false
	}
	return true
}

func writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v)
}

// ServePrefix starts an HTTP server exposing PrefixHandler(prefixes)
// on addr and returns the bound address plus a graceful,
// context-bounded shutdown function (http.Server.Shutdown semantics:
// stop accepting, let in-flight scrapes finish, then close). It is the
// serve entry point drain helpers (phased.Drainer) expect.
func (h *Hub) ServePrefix(addr string, prefixes ...string) (bound net.Addr, shutdown func(context.Context) error, err error) {
	return ServeHandler(addr, h.PrefixHandler(prefixes...))
}

// ServeHandler starts an HTTP server for an arbitrary handler on addr
// with the same contract as ServePrefix; services that wrap the hub's
// handler with extra routes (the phased metrics server) use it to keep
// one serve/shutdown path.
func ServeHandler(addr string, handler http.Handler) (bound net.Addr, shutdown func(context.Context) error, err error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, nil, err
	}
	srv := &http.Server{Handler: handler}
	go func() { _ = srv.Serve(ln) }()
	return ln.Addr(), srv.Shutdown, nil
}
