package pipesched

import (
	"context"
	"strings"
	"sync"
	"testing"

	"pipesched/internal/telemetry"
)

// benchSrc is the same expression block BenchmarkCompileEndToEnd uses, so
// the telemetry overhead numbers are comparable to the end-to-end cost.
const telemetrySrc = "t = x * x\nnum = t * a + x * b + c\nden = t + x * b + 1\ny = num / den\n"

// TestTelemetryConcurrentCompiles shares one installed registry across
// concurrent CompileCtx calls; run under -race it proves the metrics
// path is data-race free and loses no counts.
func TestTelemetryConcurrentCompiles(t *testing.T) {
	pm := EnableTelemetry()
	defer DisableTelemetry()

	m := SimulationMachine()
	const workers, rounds = 8, 5
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				c, err := CompileCtx(context.Background(), telemetrySrc, m, Options{Optimize: true})
				if err != nil {
					t.Errorf("CompileCtx: %v", err)
					return
				}
				if c.Quality != Optimal {
					t.Errorf("quality = %v, want optimal", c.Quality)
				}
			}
		}()
	}
	wg.Wait()

	if got := pm.Compiles.Value(); got != workers*rounds {
		t.Errorf("compiles counter = %d, want %d", got, workers*rounds)
	}
	if got := pm.Quality[0].Value(); got != workers*rounds {
		t.Errorf("optimal-rung counter = %d, want %d", got, workers*rounds)
	}
	if pm.InFlight.Value() != 0 {
		t.Errorf("in-flight gauge leaked: %d", pm.InFlight.Value())
	}
	if pm.OmegaCalls.Value() == 0 {
		t.Error("no Ω calls recorded")
	}
	// Every stage span must have fired once per compile.
	for _, stage := range telemetry.Stages {
		if got := pm.StageDuration(stage).Count(); got != workers*rounds {
			t.Errorf("stage %s spans = %d, want %d", stage, got, workers*rounds)
		}
	}
	// The whole story must render as valid Prometheus text.
	var sb strings.Builder
	if err := pm.Registry().WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "pipesched_compiles_total 40") {
		t.Error("registry text missing compile count")
	}
}

// traceCompile runs fn under an installed tracer (bound to the active
// telemetry, if any) and one root span, and returns the spans recorded.
func traceCompile(t *testing.T, fn func(ctx context.Context)) []TraceSpanRecord {
	t.Helper()
	tr := EnableTracing(ActiveTelemetry(), TracerConfig{RecorderSize: 1 << 16})
	defer DisableTracing()
	ctx, root := tr.StartRoot(context.Background(), "test", TraceContext{})
	fn(ctx)
	root.End()
	return tr.Recorder().Snapshot()
}

// searchPoints returns the search events among spans, checking that each
// is an instant under a stage:search span carrying the event's fields.
func searchPoints(t *testing.T, spans []TraceSpanRecord) []TraceSpanRecord {
	t.Helper()
	stages := map[uint64]bool{}
	for _, s := range spans {
		if s.Name == "stage:search" {
			stages[s.SpanID] = true
		}
	}
	var points []TraceSpanRecord
	for _, s := range spans {
		if _, ok := s.Attrs["worker"]; !ok {
			continue
		}
		if !stages[s.Parent] || s.Dur != 0 {
			t.Fatalf("search event %+v is not an instant under stage:search", s)
		}
		for _, k := range []string{"depth", "node", "eta", "mu"} {
			if _, ok := s.Attrs[k]; !ok {
				t.Fatalf("search event %+v lacks %s", s, k)
			}
		}
		points = append(points, s)
	}
	return points
}

// TestTelemetryParallelTrace runs a traced CompileCtx whose search fans
// out over four workers; under -race this proves the search-event bridge
// (the hook every worker calls) is safe, which is what makes -trace-out
// usable with -workers.
func TestTelemetryParallelTrace(t *testing.T) {
	var c *Compiled
	spans := traceCompile(t, func(ctx context.Context) {
		var err error
		if c, err = CompileCtx(ctx, telemetrySrc, SimulationMachine(), Options{Workers: 4, TraceSearch: 10_000}); err != nil {
			t.Error(err)
		}
	})
	points := searchPoints(t, spans)
	if len(points) == 0 {
		t.Fatal("parallel search recorded no search events")
	}
	places := 0
	for _, p := range points {
		if p.Name == "place" {
			places++
		}
	}
	if c != nil && int64(places) != c.Stats.OmegaCalls {
		t.Errorf("place events %d != Ω-calls %d", places, c.Stats.OmegaCalls)
	}
	data, err := ChromeTraceRequest(spans)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(data), `"stage:search"`) {
		t.Error("Chrome trace lacks the stage:search slice")
	}
}

// TestTraceSearchBound checks that Options.TraceSearch bounds the search
// events of one compile as a whole: across the workers of a parallel
// search and across ScheduleLarge's windows.
func TestTraceSearchBound(t *testing.T) {
	const bound = 100
	spans := traceCompile(t, func(ctx context.Context) {
		if _, err := ScheduleCtx(ctx, tangleBlock(6), SimulationMachine(), Options{Workers: 4, TraceSearch: bound}); err != nil {
			t.Error(err)
		}
	})
	if got := len(searchPoints(t, spans)); got != bound {
		t.Errorf("parallel search recorded %d events, want the bound %d", got, bound)
	}

	// Count every window's events, then bound one short of that total: a
	// bound per window instead of per compile would record them all.
	windowed := func(bound int) int {
		spans := traceCompile(t, func(ctx context.Context) {
			if _, err := ScheduleLargeCtx(ctx, tangleBlock(6), SimulationMachine(), 8, Options{TraceSearch: bound}); err != nil {
				t.Error(err)
			}
		})
		return len(searchPoints(t, spans))
	}
	all := windowed(1 << 15)
	if all < 2 || all >= 1<<15 {
		t.Fatalf("windows recorded %d events; the test needs a search that fits the recorder", all)
	}
	if got := windowed(all - 1); got != all-1 {
		t.Errorf("windows recorded %d events, want the bound %d", got, all-1)
	}
}

// TestTracedCompileOneRecordPerStage checks the one-span-per-stage rule
// end to end: with telemetry on, a traced compile writes exactly one
// sink record per stage (its "trace" record, no "span" twin) and an
// untraced one its "span" record, while the stage histograms count each
// stage once per compile either way.
func TestTracedCompileOneRecordPerStage(t *testing.T) {
	pm := EnableTelemetry()
	defer DisableTelemetry()
	var mu sync.Mutex
	var events []TelemetryEvent
	pm.SetSink(sinkFunc(func(e TelemetryEvent) {
		mu.Lock()
		events = append(events, e)
		mu.Unlock()
	}))
	stageRecords := func() map[string]int {
		mu.Lock()
		defer mu.Unlock()
		n := map[string]int{}
		for _, e := range events {
			switch {
			case e.Kind == "span":
				n["span:"+e.Stage]++
			case e.Kind == "trace" && strings.HasPrefix(e.Name, "stage:"):
				n[e.Name]++
			}
		}
		events = nil
		return n
	}
	opts := Options{Optimize: true}
	traceCompile(t, func(ctx context.Context) {
		if _, err := CompileCtx(ctx, telemetrySrc, SimulationMachine(), opts); err != nil {
			t.Error(err)
		}
	})
	traced := stageRecords()
	if _, err := CompileCtx(context.Background(), telemetrySrc, SimulationMachine(), opts); err != nil {
		t.Fatal(err)
	}
	untraced := stageRecords()
	for _, stage := range telemetry.Stages {
		if traced["stage:"+stage] != 1 || traced["span:"+stage] != 0 {
			t.Errorf("traced compile, stage %s: records %v, want one trace record", stage, traced)
		}
		if untraced["span:"+stage] != 1 || untraced["stage:"+stage] != 0 {
			t.Errorf("untraced compile, stage %s: records %v, want one span record", stage, untraced)
		}
		if got := pm.StageDuration(stage).Count(); got != 2 {
			t.Errorf("stage %s histogram count = %d, want 2", stage, got)
		}
	}
}

type sinkFunc func(TelemetryEvent)

func (f sinkFunc) Emit(e TelemetryEvent) { f(e) }

// BenchmarkTelemetryDisabled is the guard for the "nil-by-default"
// contract: with no telemetry installed every instrumentation point must
// reduce to one atomic pointer load. Compare against
// BenchmarkTelemetryEnabled; the issue budget allows <=2% overhead vs
// the pre-telemetry baseline.
func BenchmarkTelemetryDisabled(b *testing.B) {
	DisableTelemetry()
	m := SimulationMachine()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Compile(telemetrySrc, m, Options{}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTelemetryEnabled measures the full metrics path (no sink) for
// comparison with BenchmarkTelemetryDisabled.
func BenchmarkTelemetryEnabled(b *testing.B) {
	EnableTelemetry()
	defer DisableTelemetry()
	m := SimulationMachine()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Compile(telemetrySrc, m, Options{}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTracingDisabled extends the nil-by-default guard to the
// distributed tracer: with telemetry on but no tracer installed, every
// span site must reduce to one atomic pointer load — compare against
// BenchmarkTelemetryEnabled, which is the same configuration minus the
// tracing call sites' loads.
func BenchmarkTracingDisabled(b *testing.B) {
	EnableTelemetry()
	defer DisableTelemetry()
	DisableTracing()
	m := SimulationMachine()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Compile(telemetrySrc, m, Options{}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTracingEnabledUntraced measures a tracer being installed but
// the request carrying no trace context — the fleet's cost for work
// arriving outside any traced request. Spans must still not allocate
// (StartSpan returns a nil span for untraced contexts).
func BenchmarkTracingEnabledUntraced(b *testing.B) {
	pm := EnableTelemetry()
	defer DisableTelemetry()
	EnableTracing(pm, TracerConfig{})
	defer DisableTracing()
	m := SimulationMachine()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Compile(telemetrySrc, m, Options{}); err != nil {
			b.Fatal(err)
		}
	}
}
