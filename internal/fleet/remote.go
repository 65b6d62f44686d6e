package fleet

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"strconv"
	"sync"
	"syscall"
	"time"

	"pipesched"
	"pipesched/internal/server"
	"pipesched/internal/telemetry"
)

// WorkerPIDHeader carries the answering worker process's PID on every
// worker HTTP response, so failover traces can prove which process
// served each attempt.
const WorkerPIDHeader = "X-Pipesched-Worker-PID"

// WorkerStatus is the JSON shape of a worker's /workerz endpoint: the
// process identity and cache state the router's failure detector needs.
type WorkerStatus struct {
	Node        string `json:"node"`
	PID         int    `json:"pid"`
	Draining    bool   `json:"draining"`
	DiskEntries int    `json:"disk_entries"`
	// Recovered/Quarantined report this incarnation's startup cache
	// recovery scan; the fleet folds them into its counters when a probe
	// detects a new PID.
	Recovered   int `json:"recovered"`
	Quarantined int `json:"quarantined"`
}

// TransportErrorKind classifies how a worker RPC failed at the
// transport layer. The taxonomy matters because the kinds demand
// different treatment: a refused connection proves the process is gone,
// while an attempt deadline proves only that it is slow.
type TransportErrorKind int

const (
	// TransportRefused: the TCP connection was refused — nothing is
	// listening. The worker process is down.
	TransportRefused TransportErrorKind = iota
	// TransportReset: the connection was reset mid-exchange (RST). The
	// worker crashed or the link was severed; the answer is lost.
	TransportReset
	// TransportEOF: the connection closed cleanly before any response
	// arrived. Indistinguishable from a crash at this layer.
	TransportEOF
	// TransportTruncated: a response arrived but ended mid-body or was
	// not decodable JSON. The answer is lost, but the process answered —
	// its health verdict is left to the prober.
	TransportTruncated
	// TransportDeadline: the per-attempt budget expired with the
	// connection alive. The worker is slow, not dead: the router fails
	// over (ErrNodeSlow) but must NOT mark the node down.
	TransportDeadline
)

// String names the kind (the metric label values).
func (k TransportErrorKind) String() string {
	switch k {
	case TransportRefused:
		return "refused"
	case TransportReset:
		return "reset"
	case TransportEOF:
		return "eof"
	case TransportTruncated:
		return "truncated"
	case TransportDeadline:
		return "deadline"
	}
	return "unknown"
}

// TransportError is a typed worker RPC failure. Through errors.Is it
// maps onto the router's failover taxonomy: every kind matches
// ErrNodeDown except TransportDeadline, which matches ErrNodeSlow —
// both fail over, but only the former implies the process is gone.
type TransportError struct {
	Node string
	Kind TransportErrorKind
	Err  error
}

// Error renders the node, kind and cause.
func (e *TransportError) Error() string {
	return fmt.Sprintf("fleet: transport %s to node %s: %v", e.Kind, e.Node, e.Err)
}

// Unwrap exposes the underlying error (so syscall-level matching like
// errors.Is(err, syscall.ECONNREFUSED) still works).
func (e *TransportError) Unwrap() error { return e.Err }

// Is maps the kind onto the fleet failover sentinels.
func (e *TransportError) Is(target error) bool {
	if e.Kind == TransportDeadline {
		return target == ErrNodeSlow
	}
	return target == ErrNodeDown
}

// remoteMetrics is the RemoteNode metric set; nil fields are no-ops.
type remoteMetrics struct {
	calls *telemetry.Counter                        // pipesched_fleet_remote_calls_total
	terr  map[TransportErrorKind]*telemetry.Counter // pipesched_fleet_remote_transport_errors_total{kind}
}

func newRemoteMetrics(reg *telemetry.Registry) *remoteMetrics {
	m := &remoteMetrics{terr: map[TransportErrorKind]*telemetry.Counter{}}
	if reg == nil {
		return m
	}
	m.calls = reg.Counter("pipesched_fleet_remote_calls_total", "Worker RPCs issued by remote fleet backends.")
	for _, k := range []TransportErrorKind{TransportRefused, TransportReset, TransportEOF, TransportTruncated, TransportDeadline} {
		m.terr[k] = reg.Counter("pipesched_fleet_remote_transport_errors_total",
			"Worker RPCs that failed at the transport layer, by failure kind.", "kind", k.String())
	}
	return m
}

// RemoteConfig tunes one RemoteNode. The zero value is usable.
type RemoteConfig struct {
	// AttemptTimeout bounds one RPC (dial + request + full response
	// body). Expiry maps to ErrNodeSlow — failover without a down-mark.
	// Default 10s. The caller's context still applies on top.
	AttemptTimeout time.Duration
	// Metrics wires the backend into a telemetry metric set.
	Metrics *pipesched.Telemetry
}

func (c RemoteConfig) withDefaults() RemoteConfig {
	if c.AttemptTimeout <= 0 {
		c.AttemptTimeout = 10 * time.Second
	}
	return c
}

// RemoteNode is the out-of-process fleet Backend: it speaks the worker
// wire protocol (POST /compile, GET /workerz) to a
// `pipesched worker` process over a pooled HTTP client, mapping
// transport failures onto the router's failover taxonomy. Health is
// driven by the fleet probe loop through Probe; the supervisor reports
// address changes through SetTarget as it restarts workers.
type RemoteNode struct {
	backendLatency
	id  string
	cfg RemoteConfig
	met *remoteMetrics
	hc  *http.Client

	mu       sync.Mutex
	addr     string // "" = no known target (down)
	down     bool
	draining bool
	pid      int // last-known worker PID (0 = never seen)
}

var _ Backend = (*RemoteNode)(nil)
var _ remoteProber = (*RemoteNode)(nil)

// NewRemoteNode builds a backend for the worker at addr (host:port; ""
// when the supervisor will report it later via SetTarget).
func NewRemoteNode(id, addr string, cfg RemoteConfig) *RemoteNode {
	cfg = cfg.withDefaults()
	dialer := &net.Dialer{Timeout: cfg.AttemptTimeout}
	return &RemoteNode{
		backendLatency: newBackendLatency(),
		id:             id,
		cfg:            cfg,
		met:            newRemoteMetrics(cfg.Metrics.Registry()),
		hc: &http.Client{
			Transport: &http.Transport{
				DialContext:         dialer.DialContext,
				MaxIdleConnsPerHost: 4,
				IdleConnTimeout:     30 * time.Second,
			},
		},
		addr: addr,
		down: addr == "",
	}
}

// ID returns the backend's stable ring identity.
func (r *RemoteNode) ID() string { return r.id }

// Healthy reports the router's current belief about the worker.
func (r *RemoteNode) Healthy() bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	return !r.down && !r.draining && r.addr != ""
}

// PID returns the last-known worker PID (0 before first contact).
func (r *RemoteNode) PID() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.pid
}

// SetTarget points the backend at a new worker address (workers bind
// :0, so every restart lands on a fresh port) and marks it up. Idle
// pooled connections to the old target are dropped.
func (r *RemoteNode) SetTarget(addr string) {
	r.mu.Lock()
	r.addr = addr
	r.down = addr == ""
	r.draining = false
	r.mu.Unlock()
	r.hc.CloseIdleConnections()
}

// MarkDown records that the worker is known gone (e.g. its supervisor
// saw it exit) without waiting for a failed RPC.
func (r *RemoteNode) MarkDown() {
	r.mu.Lock()
	r.down = true
	r.mu.Unlock()
}

// notePID records the PID observed on a response or probe.
func (r *RemoteNode) notePID(pid int) {
	if pid <= 0 {
		return
	}
	r.mu.Lock()
	r.pid = pid
	r.mu.Unlock()
}

// Submit forwards the wire request to the worker, which resolves it on
// its side. Outcomes follow the server.Submit contract, with transport
// failures mapped onto the failover taxonomy:
//
//   - refused / reset / EOF → *TransportError matching ErrNodeDown, and
//     the node is marked down until a probe revives it;
//   - attempt deadline      → *TransportError matching ErrNodeSlow, no
//     down-mark (the process is alive, just slow);
//   - truncated / undecodable body → ErrNodeDown for routing, but the
//     health verdict is left to the prober (the process did answer);
//   - caller context expiry → the pipesched deadline/cancel sentinels,
//     exactly as an in-process node would report.
func (r *RemoteNode) Submit(ctx context.Context, res *server.Resolved) (*server.Response, error) {
	r.mu.Lock()
	addr, down, pid := r.addr, r.down, r.pid
	r.mu.Unlock()
	if down || addr == "" {
		return nil, fmt.Errorf("%w: %s (no target)", ErrNodeDown, r.id)
	}
	r.met.calls.Inc()

	// Every RPC is a span under the routing attempt, stamped with the
	// last-known PID — so even an attempt that dies in the dial (refused)
	// names the process incarnation it was aimed at.
	tr := telemetry.ActiveTracer()
	sp := tr.StartSpanFrom(telemetry.TraceContextOf(ctx), "fleet.rpc")
	sp.SetAttr("node", r.id)
	sp.SetAttr("addr", addr)
	if pid > 0 {
		sp.SetAttr("pid", strconv.Itoa(pid))
	}
	resp, err := r.submitRPC(ctx, addr, res.Req, sp)
	if err != nil && resp == nil {
		sp.Fail(err)
	}
	sp.End()
	return resp, err
}

// submitRPC is Submit after target resolution: one POST /compile with
// the per-attempt timeout applied, decoded by the server's one decoder.
func (r *RemoteNode) submitRPC(ctx context.Context, addr string, req *server.Request, sp *telemetry.TraceSpan) (*server.Response, error) {
	actx, cancel := context.WithTimeout(ctx, r.cfg.AttemptTimeout)
	defer cancel()
	// The worker's spans join this trace, parented under the RPC span
	// when there is one.
	pctx := actx
	if tc := sp.Context(); tc.Valid() {
		pctx = telemetry.WithTraceContext(actx, tc)
	}
	hdr, raw, err := (&server.Client{URL: "http://" + addr, HTTP: r.hc}).Post(pctx, req)
	if pid, _ := strconv.Atoi(hdr.Get(WorkerPIDHeader)); pid > 0 {
		r.notePID(pid)
		sp.SetAttr("pid", strconv.Itoa(pid))
	}
	switch {
	case errors.Is(err, server.ErrInvalidRequest):
		return nil, err
	case err != nil:
		return nil, r.transportFailure(ctx, actx, err, sp)
	}
	resp, err := server.DecodeResponse(raw)
	if errors.Is(err, server.ErrMalformedResponse) {
		// An answer arrived but is not a whole one: the body was
		// truncated by the network, the worker died mid-write, or it
		// carries neither a schedule nor an error. The answer is lost —
		// fail over — but the process may well be alive, so the health
		// verdict is the prober's.
		return nil, r.transportError(TransportTruncated, err, sp)
	}
	if resp != nil && err != nil {
		sp.SetAttr("degraded", "true")
	}
	return resp, err
}

// transportFailure classifies one failed RPC and applies its health
// consequence.
func (r *RemoteNode) transportFailure(ctx, actx context.Context, err error, sp *telemetry.TraceSpan) error {
	// Caller-level context expiry is not a node failure at all: report it
	// exactly as an in-process node would, and leave the node's health
	// alone.
	if ctx.Err() != nil {
		if errors.Is(ctx.Err(), context.DeadlineExceeded) {
			return fmt.Errorf("%w: caller deadline expired during worker RPC: %w", pipesched.ErrDeadline, err)
		}
		return fmt.Errorf("%w: caller abandoned worker RPC: %w", pipesched.ErrCanceled, err)
	}
	kind := classifyTransport(actx, err)
	if kind != TransportDeadline && kind != TransportTruncated {
		// Refused/reset/EOF: the process (or its socket) is gone; stop
		// routing to it until a probe or the supervisor revives it.
		r.MarkDown()
	}
	return r.transportError(kind, err, sp)
}

// transportError counts one transport failure and marks it on the RPC
// span.
func (r *RemoteNode) transportError(kind TransportErrorKind, err error, sp *telemetry.TraceSpan) *TransportError {
	r.met.terr[kind].Inc()
	sp.SetAttr("transport_error", kind.String())
	return &TransportError{Node: r.id, Kind: kind, Err: err}
}

// classifyTransport maps one RPC error onto the transport taxonomy.
// actx is the per-attempt context: its expiry is the slow-node case.
func classifyTransport(actx context.Context, err error) TransportErrorKind {
	switch {
	case actx.Err() != nil && errors.Is(actx.Err(), context.DeadlineExceeded),
		errors.Is(err, context.DeadlineExceeded):
		return TransportDeadline
	case errors.Is(err, syscall.ECONNREFUSED):
		return TransportRefused
	case errors.Is(err, syscall.ECONNRESET), errors.Is(err, syscall.EPIPE):
		return TransportReset
	case errors.Is(err, io.ErrUnexpectedEOF):
		// The body ended mid-read: bytes arrived, then the stream died.
		return TransportTruncated
	case errors.Is(err, io.EOF):
		return TransportEOF
	}
	// net/http wraps dial/read errors in *url.Error and *net.OpError;
	// errors.Is unwraps those above. Anything else — DNS failure, closed
	// listener race, unknown syscall — is treated as the connection never
	// having worked.
	return TransportEOF
}

// Probe is the fleet probe loop's failure detector for this backend:
// one GET /workerz. A transport failure marks the node down; success
// marks it up, refreshes the PID and draining state, and reports
// restarted=true when the PID changed — the signal to fold the new
// incarnation's cache-recovery scan into the fleet counters.
func (r *RemoteNode) Probe(ctx context.Context) (WorkerStatus, bool, error) {
	r.mu.Lock()
	addr := r.addr
	r.mu.Unlock()
	if addr == "" {
		return WorkerStatus{}, false, fmt.Errorf("%w: %s (no target)", ErrNodeDown, r.id)
	}
	hreq, err := http.NewRequestWithContext(ctx, http.MethodGet, "http://"+addr+"/workerz", nil)
	if err != nil {
		return WorkerStatus{}, false, err
	}
	hresp, err := r.hc.Do(hreq)
	if err != nil {
		r.MarkDown()
		return WorkerStatus{}, false, err
	}
	defer hresp.Body.Close()
	raw, err := io.ReadAll(io.LimitReader(hresp.Body, 1<<20))
	if err != nil || hresp.StatusCode != http.StatusOK {
		r.MarkDown()
		if err == nil {
			err = fmt.Errorf("workerz: status %d", hresp.StatusCode)
		}
		return WorkerStatus{}, false, err
	}
	var st WorkerStatus
	if err := json.Unmarshal(raw, &st); err != nil {
		r.MarkDown()
		return WorkerStatus{}, false, fmt.Errorf("workerz: %w", err)
	}
	r.mu.Lock()
	restarted := r.pid != 0 && st.PID != 0 && r.pid != st.PID
	if st.PID != 0 {
		r.pid = st.PID
	}
	r.down = false
	r.draining = st.Draining
	r.mu.Unlock()
	return st, restarted, nil
}

// Shutdown releases the backend's client resources. The worker process
// itself is the supervisor's to stop (SIGTERM → drain), not the
// router's.
func (r *RemoteNode) Shutdown(ctx context.Context) error {
	r.MarkDown()
	r.hc.CloseIdleConnections()
	return nil
}
