package telemetry

import (
	"sync/atomic"
	"time"
)

// Stages instrumented by the pipeline, in pipeline order. The span and
// duration metrics are keyed by these names (matching
// faultinject.Stage and StageError.Stage).
var Stages = []string{"frontend", "opt", "dag", "search", "regalloc", "codegen"}

// PruneKinds names the search prune counters, matching the core
// package's TraceAction prune kinds and Stats fields. "resource" is the
// per-pipeline occupancy component of the lower-bound engine and "memo"
// the dominance-table hits.
var PruneKinds = []string{"bounds", "illegal", "equivalence", "strong", "alphabeta", "lowerbound", "resource", "memo"}

// QualityRungs names the degradation-ladder rungs, best first, matching
// pipesched.Quality.String().
var QualityRungs = []string{"optimal", "incumbent", "heuristic", "baseline"}

// Event is one structured observability event, delivered to the
// registered Sink. Kind is "span" for stage timings, "search" for one
// branch-and-bound completion, "gap" for one certified optimality gap
// (RecordGap), "compile" for one finished block, "trace" for one
// completed distributed-trace span, and "flight_dump" for a
// flight-recorder dump header.
type Event struct {
	Time    time.Time        `json:"time"`
	Kind    string           `json:"kind"`
	Stage   string           `json:"stage,omitempty"`   // span events
	Block   string           `json:"block,omitempty"`   // block label, when known
	Nanos   int64            `json:"nanos,omitempty"`   // span duration
	Quality string           `json:"quality,omitempty"` // compile events
	Err     string           `json:"err,omitempty"`     // span/compile failure, if any
	Fields  map[string]int64 `json:"fields,omitempty"`  // numeric payload (Ω calls, NOPs, prunes)

	// Distributed-trace fields. Trace is set on "trace" events and on
	// any span/search/compile event that ran under a traced request, so
	// sink records are joinable to their traces.
	Trace     string            `json:"trace_id,omitempty"`
	Span      uint64            `json:"span_id,omitempty"`
	Parent    uint64            `json:"parent_id,omitempty"`
	Name      string            `json:"name,omitempty"`            // trace span name
	Node      string            `json:"node,omitempty"`            // originating fleet node
	StartNano int64             `json:"start_unix_nano,omitempty"` // trace span start
	Attrs     map[string]string `json:"attrs,omitempty"`           // trace span annotations
}

// Sink receives structured events. Implementations must be safe for
// concurrent Emit calls; Emit must not block for long — it runs inline
// on the compile path.
type Sink interface {
	Emit(Event)
}

// Metrics is the pre-resolved metric set the pipeline instruments
// against. All fields are resolved once at Install time so the hot path
// never takes the registry lock.
type Metrics struct {
	reg  *Registry
	sink atomic.Pointer[sinkBox]

	Compiles    *Counter   // pipesched_compiles_total
	InFlight    *Gauge     // pipesched_compiles_in_flight
	Quality     []*Counter // pipesched_compile_quality_total{rung=...}, indexed like QualityRungs
	NopsSeed    *Counter   // pipesched_nops_seed_total
	NopsFinal   *Counter   // pipesched_nops_final_total
	NopsSaved   *Counter   // pipesched_nops_saved_total (seed − final)
	Instrs      *Counter   // pipesched_instructions_total
	OmegaCalls  *Counter   // pipesched_search_omega_calls_total
	SeedOmega   *Counter   // pipesched_search_seed_omega_calls_total
	Schedules   *Counter   // pipesched_search_schedules_examined_total
	Improves    *Counter   // pipesched_search_improvements_total
	Curtailed   *Counter   // pipesched_search_curtailed_total
	Certified   *Counter   // pipesched_search_certified_total (gap == 0 without full search)
	GapNops     *Counter   // pipesched_search_gap_nops_total (sum of certified gaps)
	Prunes      []*Counter // pipesched_search_prune_total{kind=...}, indexed like PruneKinds
	StageFaults *Counter   // pipesched_stage_faults_total (all stages)

	stageDur   map[string]*Histogram // pipesched_stage_duration_seconds{stage=...}, µs native
	searchOm   *Histogram            // pipesched_search_omega_calls per compile
	compileDur *Histogram            // pipesched_compile_duration_seconds, µs native
}

// sinkBox wraps a Sink so the atomic pointer has a concrete type even
// for interface values.
type sinkBox struct{ s Sink }

// NewMetrics resolves the full pipeline metric set against reg.
func NewMetrics(reg *Registry) *Metrics {
	m := &Metrics{
		reg:       reg,
		Compiles:  reg.Counter("pipesched_compiles_total", "Blocks compiled or scheduled."),
		InFlight:  reg.Gauge("pipesched_compiles_in_flight", "Compilations currently running."),
		NopsSeed:  reg.Counter("pipesched_nops_seed_total", "NOPs in the list-schedule seeds."),
		NopsFinal: reg.Counter("pipesched_nops_final_total", "NOPs in the emitted schedules."),
		NopsSaved: reg.Counter("pipesched_nops_saved_total", "NOPs removed versus the list-schedule seed."),
		Instrs:    reg.Counter("pipesched_instructions_total", "Instructions scheduled."),
		OmegaCalls: reg.Counter("pipesched_search_omega_calls_total",
			"Ω invocations (search steps) across all searches."),
		SeedOmega: reg.Counter("pipesched_search_seed_omega_calls_total",
			"Ω invocations spent pricing initial schedules."),
		Schedules: reg.Counter("pipesched_search_schedules_examined_total",
			"Complete schedules reached, including seeds."),
		Improves: reg.Counter("pipesched_search_improvements_total",
			"Times a search replaced its incumbent best."),
		Curtailed: reg.Counter("pipesched_search_curtailed_total",
			"Searches stopped early by λ, deadline or cancellation."),
		Certified: reg.Counter("pipesched_search_certified_total",
			"Schedules proven optimal by the root lower bound alone."),
		GapNops: reg.Counter("pipesched_search_gap_nops_total",
			"Certified optimality gap (NOPs) summed over degraded results."),
		StageFaults: reg.Counter("pipesched_stage_faults_total",
			"Stage failures isolated and recovered by the degradation ladder."),
		stageDur: map[string]*Histogram{},
		searchOm: reg.Histogram("pipesched_search_omega_calls",
			"Ω invocations per search.", 1),
		compileDur: reg.Histogram("pipesched_compile_duration_seconds",
			"End-to-end wall time per block.", 1e-6),
	}
	for _, rung := range QualityRungs {
		m.Quality = append(m.Quality, reg.Counter("pipesched_compile_quality_total",
			"Blocks finishing on each degradation-ladder rung.", "rung", rung))
	}
	for _, k := range PruneKinds {
		m.Prunes = append(m.Prunes, reg.Counter("pipesched_search_prune_total",
			"Search candidates removed, by prune class.", "kind", k))
	}
	for _, st := range Stages {
		m.stageDur[st] = reg.Histogram("pipesched_stage_duration_seconds",
			"Wall time per pipeline stage.", 1e-6, "stage", st)
	}
	return m
}

// Registry returns the registry the metric set was resolved against.
func (m *Metrics) Registry() *Registry {
	if m == nil {
		return nil
	}
	return m.reg
}

// SetSink registers (or, with nil, removes) the structured-event sink.
func (m *Metrics) SetSink(s Sink) {
	if m == nil {
		return
	}
	if s == nil {
		m.sink.Store(nil)
		return
	}
	m.sink.Store(&sinkBox{s: s})
}

// emit delivers an event to the sink, if one is registered.
func (m *Metrics) emit(e Event) {
	if m == nil {
		return
	}
	if b := m.sink.Load(); b != nil {
		e.Time = time.Now()
		b.s.Emit(e)
	}
}

// StageDuration returns the duration histogram for one stage name (nil
// for unknown stages).
func (m *Metrics) StageDuration(stage string) *Histogram {
	if m == nil {
		return nil
	}
	return m.stageDur[stage]
}

// CompileDuration returns the end-to-end wall-time histogram.
func (m *Metrics) CompileDuration() *Histogram {
	if m == nil {
		return nil
	}
	return m.compileDur
}

// Span is one named timed region (a pipeline stage for one block). A nil
// Span is a no-op, so instrumentation can unconditionally defer End.
type Span struct {
	m     *Metrics
	stage string
	block string
	start time.Time
	err   error
	trace TraceContext
}

// StartSpan opens a timed region for one stage of one block's pipeline.
func (m *Metrics) StartSpan(stage, block string) *Span {
	if m == nil {
		return nil
	}
	return &Span{m: m, stage: stage, block: block, start: time.Now()}
}

// WithTrace tags the span with the request's trace so the emitted sink
// event is joinable to the distributed trace. Returns s for chaining;
// nil-safe.
func (s *Span) WithTrace(tc TraceContext) *Span {
	if s != nil {
		s.trace = tc
	}
	return s
}

// Fail records the error the spanned stage ended with (shown in the
// emitted event; the duration is recorded either way).
func (s *Span) Fail(err error) {
	if s == nil {
		return
	}
	s.err = err
}

// End closes the span: the duration lands in the stage histogram and, if
// a sink is registered, a "span" event is emitted.
func (s *Span) End() {
	if s == nil {
		return
	}
	d := time.Since(s.start)
	if h := s.m.stageDur[s.stage]; h != nil {
		h.Observe(d.Microseconds())
	}
	e := Event{Kind: "span", Stage: s.stage, Block: s.block, Nanos: d.Nanoseconds()}
	if s.err != nil {
		e.Err = s.err.Error()
	}
	if s.trace.Valid() {
		e.Trace = s.trace.TraceID
		e.Parent = s.trace.SpanID
	}
	s.m.emit(e)
}

// active is the globally installed metric set; nil by default, so every
// instrumentation call in the pipeline is one atomic load and a return.
var active atomic.Pointer[Metrics]

// Install makes m the active pipeline metric set and returns it.
// Install(NewMetrics(NewRegistry())) enables telemetry from scratch;
// Install(nil) is equivalent to Uninstall.
func Install(m *Metrics) *Metrics {
	active.Store(m)
	return m
}

// Uninstall disables pipeline telemetry; in-flight spans against the old
// metric set still record into it harmlessly.
func Uninstall() { active.Store(nil) }

// Active returns the installed metric set, or nil when telemetry is off.
// Callers must nil-check (all Metrics methods tolerate nil receivers, so
// straight-line instrumentation may also call through unconditionally).
func Active() *Metrics { return active.Load() }
