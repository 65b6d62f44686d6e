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

	"pipesched"
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
	// Schedule is the machine-readable schedule, attached only when the
	// request set WireSchedule (the fleet's remote transport does).
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

// AttachSchedule copies resp's schedule onto the wire response when the
// compiled result carries one. InitialNOPs rides along so the rebuilt
// Compiled reports the same seed cost.
func (w *WireResponse) AttachSchedule(resp *Response) {
	if w == nil || resp == nil || resp.Compiled == nil || resp.Compiled.Original == nil {
		return
	}
	c := resp.Compiled
	w.Schedule = &WireSchedule{
		Tuples:     c.Original.String(),
		Order:      c.Order,
		Eta:        c.Eta,
		Pipes:      c.Pipes,
		IssueTicks: c.IssueTicks,
	}
}

// CompiledFromWire rebuilds a sim-verifiable pipesched.Compiled from a
// wire response's schedule payload — the inverse of AttachSchedule +
// ToWire. It returns nil (no error) when the response carries no
// schedule (rejections, legacy peers). Both the fleet's remote-node
// transport and the campaign runner's HTTP front-door client rebuild
// answers through this one decoder, so any drift in the wire shape
// breaks both loudly.
func CompiledFromWire(wire *WireResponse) (*pipesched.Compiled, error) {
	s := wire.Schedule
	if s == nil {
		return nil, nil
	}
	blk, err := pipesched.ParseBlock(s.Tuples)
	if err != nil {
		return nil, fmt.Errorf("wire schedule tuples: %w", err)
	}
	q, err := pipesched.ParseQuality(wire.Quality)
	if err != nil {
		return nil, fmt.Errorf("wire schedule: %w", err)
	}
	sched, err := pipesched.ParseSchedMode(wire.Sched)
	if err != nil {
		return nil, fmt.Errorf("wire schedule: %w", err)
	}
	return &pipesched.Compiled{
		Original:   blk,
		Order:      s.Order,
		Eta:        s.Eta,
		Pipes:      s.Pipes,
		TotalNOPs:  wire.NOPs,
		Ticks:      wire.Ticks,
		Optimal:    wire.Optimal,
		Gap:        wire.Gap,
		RootLB:     wire.RootLB,
		Quality:    q,
		Assembly:   wire.Assembly,
		Sched:      sched,
		MaxLive:    wire.MaxLive,
		IssueTicks: s.IssueTicks,
	}, nil
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

// toWire flattens a Submit outcome into the wire shape; code names the
// error on the wire.
func toWire(id string, resp *Response, err error, code func(error) string) *WireResponse {
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
		}
		if err == nil {
			err = resp.Err
		}
	}
	if err != nil {
		w.Error = &WireError{Code: code(err), Message: err.Error()}
		var oe *OverloadError
		if errors.As(err, &oe) {
			w.Error.RetryAfterMS = oe.RetryAfter.Milliseconds()
		}
		w.Degraded = resp != nil && resp.Compiled != nil
	}
	return w
}

// HTTPStatus maps one outcome onto an HTTP status for the single-
// request endpoint. Degraded-but-legal results are 200: the caller got
// a schedule; the error field explains the rung.
func HTTPStatus(resp *Response, err error) int {
	if err == nil || (resp != nil && resp.Compiled != nil) {
		return http.StatusOK
	}
	switch {
	case errors.Is(err, ErrOverloaded), errors.Is(err, ErrDraining):
		return http.StatusServiceUnavailable
	case errors.Is(err, ErrInvalidRequest),
		errors.Is(err, pipesched.ErrInvalidMachine),
		errors.Is(err, pipesched.ErrInvalidBlock):
		return http.StatusBadRequest
	case errors.Is(err, pipesched.ErrDeadline):
		return http.StatusGatewayTimeout
	case errors.Is(err, pipesched.ErrCanceled):
		return 499 // client closed request (nginx convention)
	}
	return http.StatusInternalServerError
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
	mux.HandleFunc("/compile", s.handleCompile)
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, r *http.Request) {
		if s.Draining() {
			http.Error(w, "draining", http.StatusServiceUnavailable)
			return
		}
		fmt.Fprintln(w, "ok")
	})
	return mux
}

func (s *Server) handleCompile(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		http.Error(w, "POST only", http.StatusMethodNotAllowed)
		return
	}
	body, ok := ReadBody(w, r)
	if !ok {
		return
	}
	reqs, batch, err := DecodeCompileBody(body)
	if err != nil {
		WriteJSONError(w, http.StatusBadRequest, "invalid_request", err.Error())
		return
	}
	ctx := r.Context()
	var traceID string
	if tr := telemetry.ActiveTracer(); tr != nil {
		// A request arriving with X-Pipesched-Trace (from the fleet
		// router, or a traced client) joins that trace; otherwise this
		// hop is the front door and mints one.
		parent, _ := telemetry.ExtractTrace(r.Header)
		name := "front_door"
		if parent.Valid() {
			name = "server.http"
		}
		var root *telemetry.TraceSpan
		ctx, root = tr.StartRoot(ctx, name, parent)
		if s.cfg.Node != "" {
			root.SetNode(s.cfg.Node)
		}
		traceID = root.Context().TraceID
		w.Header().Set(telemetry.TraceHeader, root.Context().String())
		defer root.End()
	}
	Front{Submit: s.Submit, Code: ErrorCode, Status: HTTPStatus}.Serve(ctx, w, reqs, batch, traceID)
}

// Front is one /compile front door: how it submits a request and how it
// names an outcome on the wire. A lone server uses Submit, ErrorCode and
// HTTPStatus; the fleet router passes its routing and its extended error
// taxonomy through the same writer, so both doors answer in one shape,
// Retry-After included.
type Front struct {
	Submit func(context.Context, *Request) (*Response, error)
	Code   func(error) string
	Status func(*Response, error) int
}

// Serve answers one decoded /compile body. A single request maps its
// outcome onto the HTTP status, with Retry-After on overload, and a
// typed 5xx triggers a flight-recorder dump so the black box captures
// the spans that led to it. A batch fans out through Submit
// concurrently — each request passes admission control individually,
// so a batch cannot bypass the queue bound — and answers 200 with
// per-item outcomes.
func (f Front) Serve(ctx context.Context, w http.ResponseWriter, reqs []*Request, batch bool, traceID string) {
	if !batch {
		resp, err := f.Submit(ctx, reqs[0])
		status := f.Status(resp, err)
		var oe *OverloadError
		if errors.As(err, &oe) {
			w.Header().Set("Retry-After", strconv.FormatInt(int64(oe.RetryAfter.Seconds()+0.999), 10))
		}
		if status >= 500 {
			telemetry.ActiveTracer().Trigger(fmt.Sprintf("http_%d", status))
		}
		WriteJSON(w, status, f.wire(reqs[0], resp, err, traceID))
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
			out.Responses[i] = f.wire(req, resp, err, traceID)
		}(i, req)
	}
	wg.Wait()
	WriteJSON(w, http.StatusOK, out)
}

// wire builds one request's wire body: the outcome, the raw schedule
// payload when the request asked for it, and the trace ID on its error.
func (f Front) wire(req *Request, resp *Response, err error, traceID string) *WireResponse {
	w := toWire(req.ID, resp, err, f.Code)
	if req.WireSchedule {
		w.AttachSchedule(resp)
	}
	w.StampTrace(traceID)
	return w
}

// StampTrace records the request's trace ID on the wire error, if any.
func (w *WireResponse) StampTrace(traceID string) {
	if w != nil && w.Error != nil && traceID != "" {
		w.Error.TraceID = traceID
	}
}

// ReadBody reads one bounded request body, answering the appropriate
// error status itself; ok reports whether the caller should proceed.
func ReadBody(w http.ResponseWriter, r *http.Request) (body []byte, ok bool) {
	body, err := io.ReadAll(io.LimitReader(r.Body, maxBodyBytes+1))
	if err != nil {
		http.Error(w, "read body: "+err.Error(), http.StatusBadRequest)
		return nil, false
	}
	if len(body) > maxBodyBytes {
		http.Error(w, "request body too large", http.StatusRequestEntityTooLarge)
		return nil, false
	}
	return body, true
}

// DecodeCompileBody parses one /compile body: a body with a "requests"
// array is a batch (batch = true, one element per item, nils preserved);
// anything else is a single request object (reqs has exactly one
// element). The error is user-caused and maps to a 400.
func DecodeCompileBody(body []byte) (reqs []*Request, batch bool, err error) {
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

func WriteJSONError(w http.ResponseWriter, status int, code, msg string) {
	WriteJSON(w, status, &WireResponse{Error: &WireError{Code: code, Message: msg}})
}
