package telemetry

import (
	"context"
	"crypto/rand"
	"encoding/binary"
	"fmt"
	"net/http"
	"strconv"
	"strings"
	"sync/atomic"
	"time"
)

// TraceHeader is the HTTP header that carries a TraceContext between
// fleet hops: "<trace-id>-<span-id-hex>". The router injects it toward
// nodes and echoes the trace ID back to the client on every response.
const TraceHeader = "X-Pipesched-Trace"

// TraceContext identifies one position in one request's trace: the
// request-wide trace ID plus the span the next hop should parent under.
// The zero value means "no trace" and every tracing call tolerates it.
type TraceContext struct {
	TraceID string
	SpanID  uint64
}

// Valid reports whether the context names a real trace.
func (tc TraceContext) Valid() bool { return tc.TraceID != "" && tc.SpanID != 0 }

// String renders the wire form carried by TraceHeader.
func (tc TraceContext) String() string {
	if !tc.Valid() {
		return ""
	}
	return tc.TraceID + "-" + strconv.FormatUint(tc.SpanID, 16)
}

// ParseTraceContext inverts TraceContext.String. Malformed input yields
// (zero, false) — a bad header must never fail a request.
func ParseTraceContext(s string) (TraceContext, bool) {
	i := strings.LastIndexByte(s, '-')
	if i <= 0 || i == len(s)-1 {
		return TraceContext{}, false
	}
	span, err := strconv.ParseUint(s[i+1:], 16, 64)
	if err != nil || span == 0 {
		return TraceContext{}, false
	}
	return TraceContext{TraceID: s[:i], SpanID: span}, true
}

// InjectTrace writes tc into h for the next hop. Invalid contexts leave
// h untouched.
func InjectTrace(h http.Header, tc TraceContext) {
	if tc.Valid() {
		h.Set(TraceHeader, tc.String())
	}
}

// ExtractTrace reads a TraceContext out of h, if one was propagated.
func ExtractTrace(h http.Header) (TraceContext, bool) {
	v := h.Get(TraceHeader)
	if v == "" {
		return TraceContext{}, false
	}
	return ParseTraceContext(v)
}

// traceCtxKey keys the TraceContext carried through context.Context.
type traceCtxKey struct{}

// WithTraceContext returns a context carrying tc for in-process
// propagation (admission, queue, retries, pipeline stages).
func WithTraceContext(ctx context.Context, tc TraceContext) context.Context {
	return context.WithValue(ctx, traceCtxKey{}, tc)
}

// TraceContextOf returns the TraceContext carried by ctx, or the zero
// context when the request is untraced.
func TraceContextOf(ctx context.Context) TraceContext {
	if ctx == nil {
		return TraceContext{}
	}
	tc, _ := ctx.Value(traceCtxKey{}).(TraceContext)
	return tc
}

// SpanRecord is one completed (or in-flight, inside TraceSpan) span.
// It is the unit stored in the flight-recorder ring and, via Event(),
// the unit serialized to the JSONL sink with Kind "trace".
type SpanRecord struct {
	TraceID string
	SpanID  uint64
	Parent  uint64 // 0 for root spans
	Name    string
	Node    string // process/node identity, "" for the front door/router
	Start   time.Time
	Dur     time.Duration
	Err     string
	Attrs   map[string]string
}

// Event renders the record in the sink wire format. `pipesched trace`
// reads exactly this shape back (see SpanFromEvent).
func (r SpanRecord) Event() Event {
	return Event{
		Kind:      "trace",
		Name:      r.Name,
		Trace:     r.TraceID,
		Span:      r.SpanID,
		Parent:    r.Parent,
		Node:      r.Node,
		StartNano: r.Start.UnixNano(),
		Nanos:     int64(r.Dur),
		Err:       r.Err,
		Attrs:     r.Attrs,
	}
}

// SpanFromEvent inverts SpanRecord.Event. The second result is false
// for events that are not trace spans.
func SpanFromEvent(e Event) (SpanRecord, bool) {
	if e.Kind != "trace" || e.Trace == "" || e.Span == 0 {
		return SpanRecord{}, false
	}
	return SpanRecord{
		TraceID: e.Trace,
		SpanID:  e.Span,
		Parent:  e.Parent,
		Name:    e.Name,
		Node:    e.Node,
		Start:   time.Unix(0, e.StartNano),
		Dur:     time.Duration(e.Nanos),
		Err:     e.Err,
		Attrs:   e.Attrs,
	}, true
}

// TracerConfig sizes a Tracer.
type TracerConfig struct {
	// Node names this process in every span it starts at a root or
	// records without more specific attribution ("" for the router).
	Node string
	// RecorderSize is the flight-recorder ring capacity (rounded up to a
	// power of two; default 4096).
	RecorderSize int
	// DumpDir, when non-empty, is where Trigger writes flight-recorder
	// dumps. Empty disables disk dumps; the ring is still served at
	// /debug/flightrecorder.
	DumpDir string
	// DumpInterval rate-limits disk dumps (default 10s): a trigger storm
	// — e.g. a run of typed 5xx responses — produces one dump per
	// interval, not one per response.
	DumpInterval time.Duration
}

// Tracer mints trace/span IDs, finishes spans into the metrics sink and
// the flight-recorder ring, and dumps the ring on black-box triggers.
// All methods are safe on a nil receiver, so call sites can run
// unconditionally off ActiveTracer().
type Tracer struct {
	m   *Metrics
	cfg TracerConfig
	rec *FlightRecorder

	idHi uint64        // random per-process high half of trace IDs
	ids  atomic.Uint64 // span + trace low-half counter

	lastDump atomic.Int64 // unix nanos of the last disk dump

	spans    *Counter // pipesched_trace_spans_total
	triggers *Counter // pipesched_flightrecorder_triggers_total{reason=...} is per-call; this is the untyped total
	dumps    *Counter // pipesched_flightrecorder_dumps_total
}

// NewTracer builds a tracer bound to m's registry and sink. m may be
// nil, in which case spans only feed the flight recorder.
func NewTracer(m *Metrics, cfg TracerConfig) *Tracer {
	if cfg.RecorderSize <= 0 {
		cfg.RecorderSize = 4096
	}
	if cfg.DumpInterval <= 0 {
		cfg.DumpInterval = 10 * time.Second
	}
	t := &Tracer{m: m, cfg: cfg, rec: NewFlightRecorder(cfg.RecorderSize)}
	var seed [8]byte
	if _, err := rand.Read(seed[:]); err == nil {
		t.idHi = binary.LittleEndian.Uint64(seed[:])
	} else {
		t.idHi = uint64(time.Now().UnixNano())
	}
	if reg := m.Registry(); reg != nil {
		t.spans = reg.Counter("pipesched_trace_spans_total",
			"Trace spans completed.")
		t.triggers = reg.Counter("pipesched_flightrecorder_triggers_total",
			"Flight-recorder dump triggers (panic, 5xx, SIGQUIT), pre rate-limit.")
		t.dumps = reg.Counter("pipesched_flightrecorder_dumps_total",
			"Flight-recorder dumps written to disk.")
	}
	return t
}

// Node returns the tracer's configured process identity.
func (t *Tracer) Node() string {
	if t == nil {
		return ""
	}
	return t.cfg.Node
}

// Recorder returns the tracer's flight-recorder ring (nil on a nil
// tracer).
func (t *Tracer) Recorder() *FlightRecorder {
	if t == nil {
		return nil
	}
	return t.rec
}

func (t *Tracer) nextID() uint64 {
	// Span IDs only need process-lifetime uniqueness; trace IDs mix in
	// the random high half for fleet-wide uniqueness.
	return t.ids.Add(1)
}

func (t *Tracer) newTraceID() string {
	return fmt.Sprintf("%016x%08x", t.idHi, uint32(t.nextID()))
}

// StartRoot begins this process's root span for one request. When
// parent is valid (extracted from an inbound TraceHeader) the span
// joins that trace as a child; otherwise a fresh trace ID is minted.
// The returned context carries the new span's TraceContext.
func (t *Tracer) StartRoot(ctx context.Context, name string, parent TraceContext) (context.Context, *TraceSpan) {
	if t == nil {
		return ctx, nil
	}
	rec := SpanRecord{Name: name, Node: t.cfg.Node, Start: time.Now(), SpanID: t.nextID()}
	if parent.Valid() {
		rec.TraceID, rec.Parent = parent.TraceID, parent.SpanID
	} else {
		rec.TraceID = t.newTraceID()
	}
	s := &TraceSpan{t: t, rec: rec}
	return WithTraceContext(ctx, s.Context()), s
}

// StartSpan opens a child of the span carried by ctx. When ctx carries
// no trace (or t is nil) it returns (ctx, nil) — the nil span's methods
// are all no-ops, so call sites need no branches.
func (t *Tracer) StartSpan(ctx context.Context, name string) (context.Context, *TraceSpan) {
	if t == nil {
		return ctx, nil
	}
	tc := TraceContextOf(ctx)
	if !tc.Valid() {
		return ctx, nil
	}
	s := t.span(tc, name)
	return WithTraceContext(ctx, s.Context()), &s
}

// StartSpanFrom opens a child of an explicitly carried TraceContext —
// for code that stores the context on a struct (e.g. a deduplicated
// flight) rather than threading a context.Context.
func (t *Tracer) StartSpanFrom(tc TraceContext, name string) *TraceSpan {
	if t == nil || !tc.Valid() {
		return nil
	}
	s := t.span(tc, name)
	return &s
}

// span opens a child of tc, by value.
func (t *Tracer) span(tc TraceContext, name string) TraceSpan {
	return TraceSpan{t: t, rec: SpanRecord{
		TraceID: tc.TraceID,
		SpanID:  t.nextID(),
		Parent:  tc.SpanID,
		Name:    name,
		Node:    t.cfg.Node,
		Start:   time.Now(),
	}}
}

// Point records an instant event (a zero-duration span) under tc:
// breaker decisions, degradation-rung fallbacks, failover skips, search
// events. attrs are key/value pairs; odd tails are dropped.
func (t *Tracer) Point(tc TraceContext, name string, attrs ...string) {
	if t == nil || !tc.Valid() {
		return
	}
	rec := t.span(tc, name).rec
	if len(attrs) > 1 {
		rec.Attrs = make(map[string]string, len(attrs)/2)
		for i := 0; i+1 < len(attrs); i += 2 {
			rec.Attrs[attrs[i]] = attrs[i+1]
		}
	}
	t.finish(&rec)
}

// finish lands a completed record in the ring, the sink, and the span
// counter.
func (t *Tracer) finish(rec *SpanRecord) {
	t.spans.Inc()
	t.rec.Record(rec)
	t.m.emit(rec.Event())
}

// StartStage opens the one span of a pipeline stage boundary. Under a
// traced request (an installed tracer and a trace on ctx) it is a child
// span named "stage:<stage>", and the returned context parents the
// stage's own work under it. Otherwise, with telemetry on, it is an
// untraced span that ends in a "span" sink record. Either way End feeds
// the stage-duration histogram; with telemetry and tracing both off the
// span is the zero value, a no-op. The span is returned by value so the
// caller can keep it on its stack: an untraced stage allocates nothing.
func StartStage(ctx context.Context, stage, block string) (context.Context, TraceSpan) {
	m := Active()
	if t := ActiveTracer(); t != nil {
		if tc := TraceContextOf(ctx); tc.Valid() {
			s := t.span(tc, "stage:"+stage)
			if block != "" {
				s.SetAttr("block", block)
			}
			s.m, s.stage = m, stage
			return WithTraceContext(ctx, s.Context()), s
		}
	}
	if m == nil {
		return ctx, TraceSpan{}
	}
	return ctx, TraceSpan{m: m, stage: stage, block: block, rec: SpanRecord{Start: time.Now()}}
}

// TraceSpan is one in-flight span. A nil TraceSpan is a no-op for every
// method, and so are Fail and End on the zero value. A span belongs to
// the goroutine that started it until End; none of its methods are safe
// for concurrent use on one span.
type TraceSpan struct {
	t    *Tracer // nil for an untraced stage span
	rec  SpanRecord
	done bool

	// Stage spans (StartStage) only: the metric set whose histogram
	// times the stage, and the labels of the untraced "span" record.
	m            *Metrics
	stage, block string
}

// Context returns the TraceContext children should parent under.
func (s *TraceSpan) Context() TraceContext {
	if s == nil {
		return TraceContext{}
	}
	return TraceContext{TraceID: s.rec.TraceID, SpanID: s.rec.SpanID}
}

// SetAttr attaches one key/value annotation (winning replica, hedged
// flag, cache outcome, ...).
func (s *TraceSpan) SetAttr(k, v string) {
	if s == nil {
		return
	}
	if s.rec.Attrs == nil {
		s.rec.Attrs = make(map[string]string, 4)
	}
	s.rec.Attrs[k] = v
}

// SetNode overrides the span's node attribution.
func (s *TraceSpan) SetNode(node string) {
	if s == nil {
		return
	}
	s.rec.Node = node
}

// Fail records the error the span ended with. Fail(nil) is a no-op.
func (s *TraceSpan) Fail(err error) {
	if s == nil || err == nil || s.t == nil && s.m == nil {
		return
	}
	s.rec.Err = err.Error()
}

// End completes the span. End is idempotent; only the first call
// records.
func (s *TraceSpan) End() {
	if s == nil || s.done || s.t == nil && s.m == nil {
		return
	}
	d := time.Since(s.rec.Start)
	if h := s.m.StageDuration(s.stage); h != nil {
		h.Observe(d.Microseconds())
	}
	if s.t == nil {
		s.done = true
		s.m.emit(Event{Kind: "span", Stage: s.stage, Block: s.block, Nanos: d.Nanoseconds(), Err: s.rec.Err})
		return
	}
	s.finish(d)
}

func (s *TraceSpan) finish(d time.Duration) {
	s.done = true
	s.rec.Dur = d
	rec := s.rec // copy: the ring and sink must never see later mutation
	s.t.finish(&rec)
}

// activeTracer is the globally installed tracer; nil by default, so a
// disabled fleet pays one atomic load per potential span
// (BenchmarkTracingDisabled guards this).
var activeTracer atomic.Pointer[Tracer]

// InstallTracer makes t the process-wide tracer and returns it.
// InstallTracer(nil) is equivalent to UninstallTracer.
func InstallTracer(t *Tracer) *Tracer {
	activeTracer.Store(t)
	return t
}

// UninstallTracer disables tracing; spans already started still record
// into the old tracer harmlessly.
func UninstallTracer() { activeTracer.Store(nil) }

// ActiveTracer returns the installed tracer, or nil when tracing is
// off. All Tracer methods tolerate a nil receiver.
func ActiveTracer() *Tracer { return activeTracer.Load() }
