// Observability surface: the telemetry metric registry, request tracing
// (with search events inside it), and the live introspection endpoints. Telemetry is off by default —
// every instrumentation point in the pipeline costs one atomic pointer
// load until EnableTelemetry is called (BenchmarkTelemetryDisabled
// guards that overhead).
//
// Typical service setup:
//
//	t := pipesched.EnableTelemetry()
//	ts, _ := pipesched.ServeTelemetry(":9090", t)
//	defer ts.Close() // or ts.Shutdown(ctx) to drain scrapes
//	// ts.Addr() is the bound address (useful with ":0")
//	// curl addr/metrics       → Prometheus text format
//	// curl addr/debug/vars    → expvar JSON
//	// curl addr/debug/pprof/  → live profiles
//
// Typical single-block search debugging — one traced compile, its stage
// slices and up to 5000 search events rendered as one Chrome trace:
//
//	tr := pipesched.EnableTracing(nil, pipesched.TracerConfig{RecorderSize: 8192})
//	defer pipesched.DisableTracing()
//	ctx, root := tr.StartRoot(context.Background(), "compile", pipesched.TraceContext{})
//	pipesched.CompileCtx(ctx, src, m, pipesched.Options{TraceSearch: 5000})
//	root.End()
//	data, _ := pipesched.ChromeTraceRequest(tr.Recorder().Snapshot())
//	os.WriteFile("search.json", data, 0o644) // open in chrome://tracing
package pipesched

import (
	"io"
	"net/http"

	"pipesched/internal/telemetry"
)

// Telemetry is the pipeline's resolved metric set: counters for every
// search action and quality rung, per-stage duration histograms, and the
// structured-event sink registration point (SetSink).
type Telemetry = telemetry.Metrics

// TelemetryEvent is one structured observability event.
type TelemetryEvent = telemetry.Event

// TelemetrySink receives structured events (see NewJSONLTelemetrySink).
type TelemetrySink = telemetry.Sink

// EnableTelemetry installs a fresh metrics registry as the process-wide
// pipeline telemetry and returns its metric set. All Compile/Schedule
// variants in all goroutines record into it until DisableTelemetry.
func EnableTelemetry() *Telemetry {
	return telemetry.Install(telemetry.NewMetrics(telemetry.NewRegistry()))
}

// DisableTelemetry turns pipeline telemetry back off (the default).
func DisableTelemetry() { telemetry.Uninstall() }

// ActiveTelemetry returns the installed metric set, or nil when
// telemetry is off.
func ActiveTelemetry() *Telemetry { return telemetry.Active() }

// TelemetryHandler exposes t's registry over HTTP: /metrics (Prometheus
// text), /debug/vars (expvar), /debug/pprof/ and /healthz.
func TelemetryHandler(t *Telemetry) http.Handler {
	return telemetry.Handler(t.Registry())
}

// TelemetryServer is a running introspection endpoint; it exposes the
// bound address (Addr), an immediate Close and a graceful Shutdown so
// services can drain the metrics listener alongside their own work.
type TelemetryServer = telemetry.Server

// ServeTelemetry starts TelemetryHandler on addr in the background and
// returns the running server handle (Addr/Close/Shutdown).
func ServeTelemetry(addr string, t *Telemetry) (*TelemetryServer, error) {
	return telemetry.Serve(addr, t.Registry())
}

// NewJSONLTelemetrySink returns a sink writing one JSON object per event
// line to w; register it with Telemetry.SetSink.
func NewJSONLTelemetrySink(w io.Writer) TelemetrySink {
	return telemetry.NewJSONLSink(w)
}

// Tracer mints and finishes distributed-trace spans; see EnableTracing.
type Tracer = telemetry.Tracer

// TracerConfig sizes a Tracer: node identity, flight-recorder ring
// capacity, and the dump directory/rate-limit for black-box dumps.
type TracerConfig = telemetry.TracerConfig

// TraceContext names a position in a request trace; its zero value
// starts a fresh trace at Tracer.StartRoot.
type TraceContext = telemetry.TraceContext

// TraceSpanRecord is one completed distributed-trace span, as stored in
// the flight-recorder ring and the JSONL sink (Kind "trace").
type TraceSpanRecord = telemetry.SpanRecord

// EnableTracing installs a process-wide distributed tracer bound to t's
// registry and sink (t may be nil: spans then only feed the flight
// recorder). Like telemetry, tracing is off by default and every
// potential span costs one atomic pointer load until this is called
// (BenchmarkTracingDisabled guards that overhead).
func EnableTracing(t *Telemetry, cfg TracerConfig) *Tracer {
	return telemetry.InstallTracer(telemetry.NewTracer(t, cfg))
}

// DisableTracing turns distributed tracing back off (the default).
func DisableTracing() { telemetry.UninstallTracer() }

// ActiveTracer returns the installed tracer, or nil when tracing is
// off. All Tracer methods tolerate a nil receiver.
func ActiveTracer() *Tracer { return telemetry.ActiveTracer() }

// TraceSpanFromEvent recovers a span record from a sink event; the
// second result is false for non-trace events.
func TraceSpanFromEvent(e TelemetryEvent) (TraceSpanRecord, bool) {
	return telemetry.SpanFromEvent(e)
}

// ChromeTraceRequest converts one request's distributed-trace spans
// (read from a JSONL sink file or a flight-recorder dump) into Chrome
// trace_event JSON: each fleet node is a process row, hedged replica
// attempts pack onto parallel thread rows, and breaker/degradation/
// failover points render in place. See also `pipesched trace`.
func ChromeTraceRequest(spans []TraceSpanRecord) ([]byte, error) {
	return telemetry.ChromeTraceRequest(spans)
}
