package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"sync"

	"pipesched/internal/telemetry"
)

// maxBodyBytes bounds one request body; oversized bodies are a typed
// 400, not an OOM.
const maxBodyBytes = 4 << 20

// WireResponse is the JSON shape of one compiled block on the wire.
type WireResponse struct {
	ID       string `json:"id,omitempty"`
	Assembly string `json:"assembly,omitempty"`
	Quality  string `json:"quality,omitempty"`
	NOPs     int    `json:"nops"`
	Ticks    int    `json:"ticks"`
	Optimal  bool   `json:"optimal"`
	// Gap is the certified optimality gap (NOPs above the admissible
	// root lower bound): 0 = provably optimal, > 0 = provably within
	// Gap NOPs of optimal, -1 = no certificate on this rung.
	Gap    int `json:"gap"`
	RootLB int `json:"root_lb,omitempty"`
	// Sched echoes the scheduler mode the result was produced under in
	// its canonical textual form; omitted for the paper mode. MaxLive is
	// the schedule's peak register pressure, filled by the
	// register-pressure modes.
	Sched    string `json:"sched,omitempty"`
	MaxLive  int    `json:"max_live,omitempty"`
	Degraded bool   `json:"degraded,omitempty"` // legal result + typed reason in error
	Cached   bool   `json:"cached,omitempty"`
	DiskHit  bool   `json:"disk_hit,omitempty"`
	Deduped  bool   `json:"deduped,omitempty"`
	FastPath bool   `json:"fast_path,omitempty"`
	Retries  int    `json:"retries,omitempty"`
	// Schedule is the machine-readable schedule, attached to every
	// answer that carries a result.
	Schedule *WireSchedule `json:"schedule,omitempty"`
	Error    *WireError    `json:"error,omitempty"`
}

// WireSchedule carries the schedule itself — not just its cost — so the
// receiving side can rebuild a pipesched.Compiled and sim-verify it.
// Tuples is the post-optimize block in the textual tuple format
// (ir.ParseBlock round-trips it); Order/Eta/Pipes index into it exactly
// as in Compiled.
type WireSchedule struct {
	Tuples string `json:"tuples"`
	Order  []int  `json:"order"`
	Eta    []int  `json:"eta"`
	Pipes  []int  `json:"pipes"`
	// IssueTicks is the scoreboard model's per-position issue tick,
	// present only for scoreboard-mode results (Eta is all zeros there).
	IssueTicks []int `json:"issue_ticks,omitempty"`
}

// WireError is the JSON shape of a typed failure. TraceID joins a
// failed request to its distributed trace (JSONL sink records and
// flight-recorder dumps carry the same ID).
type WireError struct {
	Code         string `json:"code"`
	Message      string `json:"message"`
	RetryAfterMS int64  `json:"retry_after_ms,omitempty"`
	TraceID      string `json:"trace_id,omitempty"`
}

// wireBatch is the batch request/response envelope.
type wireBatch struct {
	Requests []*Request `json:"requests"`
}

type wireBatchResponse struct {
	Responses []*WireResponse `json:"responses"`
}

// toWire flattens a Submit outcome into the wire shape.
func toWire(id string, resp *Response, err error) *WireResponse {
	w := &WireResponse{ID: id}
	if resp != nil {
		w.Cached = resp.Cached
		w.DiskHit = resp.DiskHit
		w.Deduped = resp.Deduped
		w.FastPath = resp.FastPath
		w.Retries = resp.Retries
		if id == "" {
			w.ID = resp.ID
		}
		if c := resp.Compiled; c != nil {
			w.Assembly = c.Assembly
			w.Quality = c.Quality.String()
			w.NOPs = c.TotalNOPs
			w.Ticks = c.Ticks
			w.Optimal = c.Optimal
			w.Gap = c.Gap
			w.RootLB = c.RootLB
			w.MaxLive = c.MaxLive
			if !c.Sched.IsPaper() {
				w.Sched = c.Sched.String()
			}
			if c.Original != nil {
				w.Schedule = &WireSchedule{
					Tuples:     c.Original.String(),
					Order:      c.Order,
					Eta:        c.Eta,
					Pipes:      c.Pipes,
					IssueTicks: c.IssueTicks,
				}
			}
		}
		if err == nil {
			err = resp.Err
		}
	}
	if err != nil {
		w.Error = &WireError{Code: ErrorCode(err), Message: err.Error()}
		var oe *OverloadError
		if errors.As(err, &oe) {
			w.Error.RetryAfterMS = oe.RetryAfter.Milliseconds()
		}
		w.Degraded = resp != nil && resp.Compiled != nil
	}
	return w
}

// Handler returns the service's HTTP API:
//
//	POST /compile   one request object, or {"requests": [...]} for a batch
//	GET  /healthz   "ok", or 503 "draining" once shutdown has begun
//
// When the server was built with telemetry (Config.Metrics), the
// introspection endpoints (/metrics, /debug/vars, /debug/pprof/) are
// mounted too. Batch responses are always 200 with per-item errors;
// the single-request form maps its one outcome onto the HTTP status
// (503 + Retry-After on overload/drain, 400 on invalid input).
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	if reg := s.cfg.Metrics.Registry(); reg != nil {
		mux.Handle("/", telemetry.Handler(reg))
	}
	mux.Handle("/compile", Front{Submit: s.Submit, Node: s.cfg.Node, Hop: "server.http"})
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, r *http.Request) {
		if s.Draining() {
			http.Error(w, "draining", http.StatusServiceUnavailable)
			return
		}
		fmt.Fprintln(w, "ok")
	})
	return mux
}

// Front is the one POST /compile handler: the method check, the
// bounded body read, single/batch decode, the request's trace root and
// the outcome writer. A lone server and the fleet router both mount it,
// so both doors answer in one shape, Retry-After included.
type Front struct {
	Submit func(context.Context, *Request) (*Response, error)
	// Node attributes the trace root to a fleet node ("" = none).
	Node string
	// Hop names the trace root of a request that arrives inside a trace
	// (from the fleet router, or a traced client); "" keeps "front_door".
	Hop string
}

// ServeHTTP answers one /compile request. A single request maps its
// outcome onto the HTTP status, with Retry-After on overload, and a
// typed 5xx triggers a flight-recorder dump so the black box captures
// the spans that led to it. A batch fans out through Submit
// concurrently — each request passes admission control individually,
// so a batch cannot bypass the queue bound — and answers 200 with
// per-item outcomes.
func (f Front) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		http.Error(w, "POST only", http.StatusMethodNotAllowed)
		return
	}
	body, err := io.ReadAll(io.LimitReader(r.Body, maxBodyBytes+1))
	if err != nil {
		http.Error(w, "read body: "+err.Error(), http.StatusBadRequest)
		return
	}
	if len(body) > maxBodyBytes {
		http.Error(w, "request body too large", http.StatusRequestEntityTooLarge)
		return
	}
	reqs, batch, err := decodeCompileBody(body)
	if err != nil {
		WriteJSON(w, http.StatusBadRequest, &WireResponse{Error: &WireError{Code: "invalid_request", Message: err.Error()}})
		return
	}
	ctx := r.Context()
	var traceID string
	if tr := telemetry.ActiveTracer(); tr != nil {
		// A request arriving with X-Pipesched-Trace joins that trace;
		// otherwise this hop is the front door and mints one.
		parent, _ := telemetry.ExtractTrace(r.Header)
		name := "front_door"
		if parent.Valid() && f.Hop != "" {
			name = f.Hop
		}
		var root *telemetry.TraceSpan
		ctx, root = tr.StartRoot(ctx, name, parent)
		if f.Node != "" {
			root.SetNode(f.Node)
		}
		traceID = root.Context().TraceID
		w.Header().Set(telemetry.TraceHeader, root.Context().String())
		defer root.End()
	}

	if !batch {
		resp, err := f.Submit(ctx, reqs[0])
		status := HTTPStatus(resp, err)
		var oe *OverloadError
		if errors.As(err, &oe) {
			w.Header().Set("Retry-After", strconv.FormatInt(int64(oe.RetryAfter.Seconds()+0.999), 10))
		}
		if status >= 500 {
			telemetry.ActiveTracer().Trigger(fmt.Sprintf("http_%d", status))
		}
		WriteJSON(w, status, wireOutcome(reqs[0], resp, err, traceID))
		return
	}
	out := wireBatchResponse{Responses: make([]*WireResponse, len(reqs))}
	var wg sync.WaitGroup
	for i, req := range reqs {
		if req == nil {
			out.Responses[i] = &WireResponse{Error: &WireError{Code: "invalid_request", Message: "null request"}}
			continue
		}
		wg.Add(1)
		go func(i int, req *Request) {
			defer wg.Done()
			resp, err := f.Submit(ctx, req)
			out.Responses[i] = wireOutcome(req, resp, err, traceID)
		}(i, req)
	}
	wg.Wait()
	WriteJSON(w, http.StatusOK, out)
}

// wireOutcome builds one request's wire body: the outcome and the trace
// ID on its error.
func wireOutcome(req *Request, resp *Response, err error, traceID string) *WireResponse {
	w := toWire(req.ID, resp, err)
	if w.Error != nil && traceID != "" {
		w.Error.TraceID = traceID
	}
	return w
}

// decodeCompileBody parses one /compile body: a body with a "requests"
// array is a batch (batch = true, one element per item, nils preserved);
// anything else is a single request object (reqs has exactly one
// element). The error is user-caused and maps to a 400.
func decodeCompileBody(body []byte) (reqs []*Request, batch bool, err error) {
	var probe struct {
		Requests json.RawMessage `json:"requests"`
	}
	if err := json.Unmarshal(body, &probe); err != nil {
		return nil, false, fmt.Errorf("malformed JSON: %w", err)
	}
	if probe.Requests != nil {
		var b wireBatch
		if err := json.Unmarshal(body, &b); err != nil {
			return nil, false, fmt.Errorf("malformed batch: %w", err)
		}
		return b.Requests, true, nil
	}
	var req Request
	if err := json.Unmarshal(body, &req); err != nil {
		return nil, false, fmt.Errorf("malformed request: %w", err)
	}
	return []*Request{&req}, false, nil
}

func WriteJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json; charset=utf-8")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v)
}
