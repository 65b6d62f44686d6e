package fleet

import (
	"errors"
	"fmt"
	"net/http"

	"pipesched/internal/server"
	"pipesched/internal/stats"
	"pipesched/internal/telemetry"
)

// ErrorCode extends the server's error taxonomy with the fleet layer's
// codes. Fleet routing failures are transient availability problems,
// so both map onto 503s on the wire.
func ErrorCode(err error) string {
	var wf *WireFailure
	switch {
	case errors.Is(err, ErrNoReplicas):
		return "no_replicas"
	case errors.Is(err, ErrNodeDown):
		return "node_down"
	case errors.Is(err, ErrNodeSlow):
		return "node_slow"
	case errors.As(err, &wf):
		// A remote worker answered a code this tier has no typed mapping
		// for: pass it through instead of collapsing to "error".
		return wf.Code
	}
	return server.ErrorCode(err)
}

// httpStatus maps a fleet outcome onto an HTTP status.
func httpStatus(resp *server.Response, err error) int {
	if errors.Is(err, ErrNoReplicas) || errors.Is(err, ErrNodeDown) || errors.Is(err, ErrNodeSlow) {
		return http.StatusServiceUnavailable
	}
	return server.HTTPStatus(resp, err)
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
	mux.HandleFunc("/compile", f.handleCompile)
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

func (f *Fleet) handleCompile(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		http.Error(w, "POST only", http.StatusMethodNotAllowed)
		return
	}
	body, ok := server.ReadBody(w, r)
	if !ok {
		return
	}
	reqs, batch, err := server.DecodeCompileBody(body)
	if err != nil {
		server.WriteJSONError(w, http.StatusBadRequest, "invalid_request", err.Error())
		return
	}
	// The fleet front door is where a trace is born (or joined, when the
	// client sent its own TraceHeader): every routing decision, replica
	// attempt and node-side span below hangs off this root.
	ctx := r.Context()
	var traceID string
	if tr := telemetry.ActiveTracer(); tr != nil {
		parent, _ := telemetry.ExtractTrace(r.Header)
		var root *telemetry.TraceSpan
		ctx, root = tr.StartRoot(ctx, "front_door", parent)
		traceID = root.Context().TraceID
		w.Header().Set(telemetry.TraceHeader, root.Context().String())
		defer root.End()
	}
	server.Front{Submit: f.Submit, Code: ErrorCode, Status: httpStatus}.Serve(ctx, w, reqs, batch, traceID)
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
	n := w.Samples()
	if n == 0 {
		return nil
	}
	qs := w.Quantiles(50, 95, 99)
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
		if db, ok := b.(diskBacked); ok {
			if s := db.DiskStore(); s != nil {
				ns.Durable = s.Len()
			}
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
