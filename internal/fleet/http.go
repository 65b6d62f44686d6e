package fleet

import (
	"fmt"
	"net/http"

	"pipesched/internal/server"
	"pipesched/internal/stats"
	"pipesched/internal/telemetry"
)

// Fleet routing failures are transient availability problems: each
// is a 503 on the wire. no_replicas goes first because it wraps the
// last replica's outcome, which may itself be a node_down.
func init() {
	server.RegisterCode("no_replicas", ErrNoReplicas, http.StatusServiceUnavailable)
	server.RegisterCode("node_down", ErrNodeDown, http.StatusServiceUnavailable)
	server.RegisterCode("node_slow", ErrNodeSlow, http.StatusServiceUnavailable)
}

// Handler returns the fleet's HTTP front door — the same API shape as a
// single server (POST /compile single or batch, GET /healthz), with
// requests routed across the ring:
//
//	POST /compile   one request object, or {"requests": [...]} for a batch
//	GET  /healthz   "ok" while any node is healthy, else 503
//	GET  /fleet     JSON membership + health snapshot
//
// When the fleet was built with telemetry (Config.Metrics), the
// introspection endpoints (/metrics, /debug/vars, /debug/pprof/) are
// mounted too.
func (f *Fleet) Handler() http.Handler {
	mux := http.NewServeMux()
	if reg := f.cfg.Metrics.Registry(); reg != nil {
		mux.Handle("/", telemetry.Handler(reg))
	}
	// The fleet front door is where a trace is born (or joined, when the
	// client sent its own TraceHeader): every routing decision, replica
	// attempt and node-side span below hangs off its root.
	mux.Handle("/compile", server.Front{Submit: f.Submit})
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, r *http.Request) {
		for _, n := range f.snapshot() {
			if n.Healthy() {
				fmt.Fprintln(w, "ok")
				return
			}
		}
		http.Error(w, "no healthy nodes", http.StatusServiceUnavailable)
	})
	mux.HandleFunc("/fleet", f.handleFleet)
	return mux
}

// fleetStatus is the /fleet endpoint's JSON shape.
type fleetStatus struct {
	Nodes   []nodeStatus    `json:"nodes"`
	Latency *latencySummary `json:"latency,omitempty"` // fleet-wide window
}

type nodeStatus struct {
	ID      string          `json:"id"`
	Healthy bool            `json:"healthy"`
	Remote  bool            `json:"remote,omitempty"`
	PID     int             `json:"pid,omitempty"` // remote worker's last-known PID
	Durable int             `json:"durable_entries"`
	Latency *latencySummary `json:"latency,omitempty"`
}

// latencySummary renders one sliding latency window: recent
// winning-attempt percentiles in milliseconds plus the sample count
// behind them.
type latencySummary struct {
	P50Ms   float64 `json:"p50_ms"`
	P95Ms   float64 `json:"p95_ms"`
	P99Ms   float64 `json:"p99_ms"`
	Samples int     `json:"samples"`
}

func summarizeLatency(w *stats.Window) *latencySummary {
	n, qs := w.Snapshot(50, 95, 99)
	if n == 0 {
		return nil
	}
	const ms = 1e3
	return &latencySummary{P50Ms: qs[0] * ms, P95Ms: qs[1] * ms, P99Ms: qs[2] * ms, Samples: n}
}

func (f *Fleet) handleFleet(w http.ResponseWriter, r *http.Request) {
	var st fleetStatus
	for _, id := range f.Members() {
		b := f.Backend(id)
		if b == nil {
			continue
		}
		ns := nodeStatus{ID: id, Healthy: b.Healthy()}
		if s := diskStore(b); s != nil {
			ns.Durable = s.Len()
		}
		if rn, ok := b.(*RemoteNode); ok {
			ns.Remote = true
			ns.PID = rn.PID()
		}
		ns.Latency = summarizeLatency(b.latWindow())
		st.Nodes = append(st.Nodes, ns)
	}
	st.Latency = summarizeLatency(f.lat)
	server.WriteJSON(w, http.StatusOK, st)
}
