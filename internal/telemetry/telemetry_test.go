package telemetry

import (
	"bytes"
	"context"
	"encoding/json"
	"math"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"pipesched/internal/core"
)

func TestCounterGaugeBasics(t *testing.T) {
	var c Counter
	c.Inc()
	c.Add(4)
	c.Add(-7) // counters never go down
	if got := c.Value(); got != 5 {
		t.Errorf("counter = %d, want 5", got)
	}
	var g Gauge
	g.Set(10)
	g.Add(-3)
	if got := g.Value(); got != 7 {
		t.Errorf("gauge = %d, want 7", got)
	}
	// Nil receivers are inert, so disabled-telemetry call sites need no
	// guards.
	var nc *Counter
	nc.Inc()
	nc.Add(1)
	var ng *Gauge
	ng.Set(1)
	ng.Add(1)
	var nh *Histogram
	nh.Observe(1)
	if nc.Value() != 0 || ng.Value() != 0 || nh.Count() != 0 {
		t.Error("nil metrics must read zero")
	}
}

// TestHistogramBucketBoundaries pins the log2 bucket layout: bucket 0
// holds v < 1, bucket i holds 2^(i-1) <= v < 2^i.
func TestHistogramBucketBoundaries(t *testing.T) {
	var h Histogram
	cases := []struct {
		v      int64
		bucket int
	}{
		{0, 0}, {-5, 0}, // clamped
		{1, 1},
		{2, 2}, {3, 2},
		{4, 3}, {7, 3},
		{8, 4},
		{1023, 10}, {1024, 11},
		{1 << 40, histBuckets - 1}, // beyond the last boundary: open bucket
	}
	for _, tc := range cases {
		before := h.Bucket(tc.bucket)
		h.Observe(tc.v)
		if got := h.Bucket(tc.bucket); got != before+1 {
			t.Errorf("Observe(%d): bucket %d = %d, want %d", tc.v, tc.bucket, got, before+1)
		}
	}
	if h.Count() != int64(len(cases)) {
		t.Errorf("count = %d, want %d", h.Count(), len(cases))
	}
	// Sum clamps negatives to zero.
	wantSum := int64(0)
	for _, tc := range cases {
		if tc.v > 0 {
			wantSum += tc.v
		}
	}
	if h.Sum() != wantSum {
		t.Errorf("sum = %d, want %d", h.Sum(), wantSum)
	}
	// Boundaries: UpperBound(i) = 2^i, last is +Inf.
	if h.UpperBound(0) != 1 || h.UpperBound(3) != 8 {
		t.Errorf("upper bounds = %v, %v; want 1, 8", h.UpperBound(0), h.UpperBound(3))
	}
	if !math.IsInf(h.UpperBound(histBuckets-1), 1) {
		t.Error("last bucket must be +Inf")
	}
}

func TestHistogramQuantile(t *testing.T) {
	var h Histogram
	if h.Quantile(0.5) != 0 {
		t.Error("empty histogram quantile != 0")
	}
	for i := 0; i < 100; i++ {
		h.Observe(10) // bucket [8,16)
	}
	h.Observe(1000) // bucket [512,1024)
	if q := h.Quantile(0.5); q != 16 {
		t.Errorf("P50 = %v, want bucket bound 16", q)
	}
	if q := h.Quantile(1); q != 1024 {
		t.Errorf("P100 = %v, want bucket bound 1024", q)
	}
}

func TestRegistryIdentityAndLabels(t *testing.T) {
	r := NewRegistry()
	a := r.Counter("x_total", "help", "kind", "a")
	b := r.Counter("x_total", "", "kind", "b")
	if a == b {
		t.Fatal("distinct label sets must be distinct series")
	}
	if again := r.Counter("x_total", "", "kind", "a"); again != a {
		t.Fatal("get-or-create must return the same series")
	}
	// Label order does not matter: keys are sorted at render time.
	p := r.Counter("y_total", "", "b", "2", "a", "1")
	q := r.Counter("y_total", "", "a", "1", "b", "2")
	if p != q {
		t.Fatal("label order must not split series")
	}
}

func TestRegistryTypeMismatchPanics(t *testing.T) {
	r := NewRegistry()
	r.Counter("m", "")
	defer func() {
		if recover() == nil {
			t.Error("re-registering a counter as a gauge must panic")
		}
	}()
	r.Gauge("m", "")
}

func TestWritePrometheus(t *testing.T) {
	r := NewRegistry()
	r.Counter("pipesched_compiles_total", "Blocks compiled.").Add(3)
	r.Gauge("pipesched_in_flight", "").Set(2)
	h := r.Histogram("pipesched_dur_seconds", "", 1e-6, "stage", "search")
	h.Observe(3)  // µs → bucket [2,4)
	h.Observe(70) // bucket [64,128)
	var sb strings.Builder
	if err := r.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{
		"# TYPE pipesched_compiles_total counter",
		"pipesched_compiles_total 3",
		"# TYPE pipesched_in_flight gauge",
		"pipesched_in_flight 2",
		"# TYPE pipesched_dur_seconds histogram",
		`pipesched_dur_seconds_bucket{stage="search",le="+Inf"} 2`,
		`pipesched_dur_seconds_count{stage="search"} 2`,
		`pipesched_dur_seconds_bucket{stage="search",le="4e-06"} 1`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("missing %q in:\n%s", want, out)
		}
	}
	// Buckets must be cumulative: the [64,128) line counts both samples.
	if !strings.Contains(out, `{stage="search",le="0.000128"} 2`) {
		t.Errorf("histogram buckets not cumulative:\n%s", out)
	}
}

func TestMetricsRecordAndSpan(t *testing.T) {
	pm := NewMetrics(NewRegistry())
	var mu sync.Mutex
	var events []Event
	pm.SetSink(sinkFunc(func(e Event) {
		mu.Lock()
		events = append(events, e)
		mu.Unlock()
	}))

	Install(pm)
	_, sp := StartStage(context.Background(), "search", "b0")
	Uninstall()
	time.Sleep(time.Millisecond)
	sp.End()
	if pm.StageDuration("search").Count() != 1 {
		t.Error("span did not land in the stage histogram")
	}
	if pm.StageDuration("search").Sum() < 500 { // µs
		t.Errorf("span duration %dµs implausibly small", pm.StageDuration("search").Sum())
	}

	pm.RecordSearch("b0", core.Stats{
		OmegaCalls: 10, SeedOmegaCalls: 4, SchedulesExamined: 3, Improvements: 1,
		PrunedBounds: 5, PrunedIllegal: 6, PrunedEquivalence: 7,
		PrunedStrongEquiv: 8, PrunedAlphaBeta: 9, PrunedLowerBound: 2,
		PrunedResource: 3, MemoHits: 4,
		Curtailed: true,
	})
	if pm.OmegaCalls.Value() != 10 || pm.Curtailed.Value() != 1 {
		t.Error("search stats not recorded")
	}
	wantPrunes := []int64{5, 6, 7, 8, 9, 2, 3, 4}
	for i, want := range wantPrunes {
		if got := pm.Prunes[i].Value(); got != want {
			t.Errorf("prune[%s] = %d, want %d", PruneKinds[i], got, want)
		}
	}

	// A root-certified seed (gap 0, no search placements) lands on the
	// certified counter; a positive gap accumulates NOPs; a negative gap
	// (no certificate) records nothing.
	pm.RecordGap("b0", 0, 0)
	pm.RecordGap("b0", 3, 12)
	pm.RecordGap("b0", -1, 0)
	if pm.Certified.Value() != 1 {
		t.Errorf("certified = %d, want 1", pm.Certified.Value())
	}
	if pm.GapNops.Value() != 3 {
		t.Errorf("gap nops = %d, want 3", pm.GapNops.Value())
	}

	pm.RecordCompile("b0", 1, 20, 9, 4, 1, 2*time.Millisecond)
	if pm.Compiles.Value() != 1 || pm.Quality[1].Value() != 1 {
		t.Error("compile not recorded on the incumbent rung")
	}
	if pm.NopsSaved.Value() != 5 {
		t.Errorf("nops saved = %d, want 5", pm.NopsSaved.Value())
	}

	mu.Lock()
	defer mu.Unlock()
	kinds := map[string]int{}
	for _, e := range events {
		kinds[e.Kind]++
		if e.Time.IsZero() {
			t.Error("event missing timestamp")
		}
	}
	if kinds["span"] != 1 || kinds["search"] != 1 || kinds["compile"] != 1 || kinds["gap"] != 2 {
		t.Errorf("event kinds = %v", kinds)
	}
}

type sinkFunc func(Event)

func (f sinkFunc) Emit(e Event) { f(e) }

func TestInstallActiveUninstall(t *testing.T) {
	if Active() != nil {
		t.Fatal("telemetry must start disabled")
	}
	pm := Install(NewMetrics(NewRegistry()))
	if Active() != pm {
		t.Error("Active != installed")
	}
	Uninstall()
	if Active() != nil {
		t.Error("Uninstall left telemetry active")
	}
	// All Metrics entry points tolerate a nil receiver.
	var nilPM *Metrics
	nilPM.RecordSearch("b", core.Stats{})
	nilPM.RecordGap("b", 0, 0)
	nilPM.RecordCompile("b", 0, 0, 0, 0, 0, 0)
	nilPM.SetSink(nil)
	_, sp := StartStage(context.Background(), "search", "b")
	sp.Fail(context.Canceled)
	sp.End() // with telemetry and tracing off: the zero span, a no-op
	if nilPM.Registry() != nil || nilPM.StageDuration("search") != nil {
		t.Error("nil Metrics accessors must return nil")
	}
}

func TestJSONLSink(t *testing.T) {
	var buf bytes.Buffer
	s := NewJSONLSink(&buf)
	s.Emit(Event{Kind: "span", Stage: "dag", Nanos: 42})
	s.Emit(Event{Kind: "compile", Block: "b0", Quality: "optimal"})
	if s.Count() != 2 {
		t.Fatalf("count = %d, want 2", s.Count())
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 2 {
		t.Fatalf("got %d lines", len(lines))
	}
	var e Event
	if err := json.Unmarshal([]byte(lines[0]), &e); err != nil {
		t.Fatalf("line 0 not JSON: %v", err)
	}
	if e.Kind != "span" || e.Stage != "dag" || e.Nanos != 42 {
		t.Errorf("round-trip mismatch: %+v", e)
	}
}

func TestHandlerEndpoints(t *testing.T) {
	r := NewRegistry()
	r.Counter("pipesched_compiles_total", "").Add(7)
	h := Handler(r)

	get := func(path string) *httptest.ResponseRecorder {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest("GET", path, nil))
		return rec
	}
	if rec := get("/metrics"); rec.Code != 200 ||
		!strings.Contains(rec.Body.String(), "pipesched_compiles_total 7") {
		t.Errorf("/metrics: code=%d body=%q", rec.Code, rec.Body.String())
	}
	if rec := get("/healthz"); rec.Code != 200 || !strings.Contains(rec.Body.String(), "ok") {
		t.Errorf("/healthz: code=%d", rec.Code)
	}
	rec := get("/debug/vars")
	if rec.Code != 200 {
		t.Fatalf("/debug/vars: code=%d", rec.Code)
	}
	var vars map[string]any
	if err := json.Unmarshal(rec.Body.Bytes(), &vars); err != nil {
		t.Fatalf("/debug/vars not JSON: %v\n%s", err, rec.Body.String())
	}
	if v, ok := vars["pipesched_compiles_total"]; !ok || v.(float64) != 7 {
		t.Errorf("/debug/vars missing registry snapshot: %v", vars["pipesched_compiles_total"])
	}
	if rec := get("/debug/pprof/"); rec.Code != 200 {
		t.Errorf("/debug/pprof/: code=%d", rec.Code)
	}
}

func TestServe(t *testing.T) {
	r := NewRegistry()
	srv, err := Serve("127.0.0.1:0", r)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	if srv.Addr() == "" || !strings.Contains(srv.Addr(), ":") {
		t.Errorf("bound address %q", srv.Addr())
	}
	// Binding the same port again must fail with a wrapped error. (The
	// old test discarded the second handle, leaking its listener if the
	// bind unexpectedly succeeded; closing it plugs that.)
	if dup, err := Serve(srv.Addr(), r); err == nil {
		dup.Close()
		t.Error("double bind accepted")
	}
}

// TestServeShutdown exercises the graceful shutdown path: after
// Shutdown returns, the address no longer accepts connections and a
// second Shutdown/Close is a safe no-op.
func TestServeShutdown(t *testing.T) {
	r := NewRegistry()
	srv, err := Serve("127.0.0.1:0", r)
	if err != nil {
		t.Fatal(err)
	}
	addr := srv.Addr()
	resp, err := http.Get("http://" + addr + "/healthz")
	if err != nil {
		t.Fatalf("healthz before shutdown: %v", err)
	}
	resp.Body.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		t.Fatalf("Shutdown: %v", err)
	}
	if _, err := net.DialTimeout("tcp", addr, 200*time.Millisecond); err == nil {
		t.Error("listener still accepting after Shutdown")
	}
	if err := srv.Close(); err != nil && err != http.ErrServerClosed {
		t.Errorf("Close after Shutdown: %v", err)
	}
}

// TestRegistryConcurrency exercises concurrent get-or-create and updates
// under -race.
func TestRegistryConcurrency(t *testing.T) {
	r := NewRegistry()
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				r.Counter("c_total", "", "kind", PruneKinds[i%len(PruneKinds)]).Inc()
				r.Histogram("h", "", 1, "stage", Stages[i%len(Stages)]).Observe(int64(i))
				r.Gauge("g", "").Add(1)
			}
		}(w)
	}
	wg.Wait()
	var total int64
	for _, k := range PruneKinds {
		total += r.Counter("c_total", "", "kind", k).Value()
	}
	if total != 8*200 {
		t.Errorf("lost counter updates: %d", total)
	}
	if r.Gauge("g", "").Value() != 8*200 {
		t.Error("lost gauge updates")
	}
	var sb strings.Builder
	if err := r.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
}
