package telemetry

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestTraceContextRoundTrip(t *testing.T) {
	tc := TraceContext{TraceID: "00ab12cd34ef56780001", SpanID: 0xdeadbeef}
	got, ok := ParseTraceContext(tc.String())
	if !ok || got != tc {
		t.Fatalf("round trip: got %+v ok=%v, want %+v", got, ok, tc)
	}
	for _, bad := range []string{"", "-", "abc", "abc-", "-1f", "abc-zz", "abc-0"} {
		if _, ok := ParseTraceContext(bad); ok {
			t.Errorf("ParseTraceContext(%q) accepted malformed input", bad)
		}
	}
	if (TraceContext{}).Valid() {
		t.Error("zero context reports valid")
	}
	if (TraceContext{}).String() != "" {
		t.Error("zero context renders non-empty")
	}

	h := http.Header{}
	InjectTrace(h, tc)
	got2, ok := ExtractTrace(h)
	if !ok || got2 != tc {
		t.Fatalf("header round trip: got %+v ok=%v", got2, ok)
	}
	InjectTrace(http.Header{}, TraceContext{}) // must not panic
	if _, ok := ExtractTrace(http.Header{}); ok {
		t.Error("empty header extracted a context")
	}
}

func TestNilTracerAndSpanAreNoOps(t *testing.T) {
	var tr *Tracer
	ctx := context.Background()
	ctx2, s := tr.StartRoot(ctx, "x", TraceContext{})
	if ctx2 != ctx || s != nil {
		t.Fatal("nil tracer StartRoot must return inputs unchanged")
	}
	if _, s := tr.StartSpan(ctx, "x"); s != nil {
		t.Fatal("nil tracer StartSpan must return nil span")
	}
	if tr.StartSpanFrom(TraceContext{TraceID: "t", SpanID: 1}, "x") != nil {
		t.Fatal("nil tracer StartSpanFrom must return nil span")
	}
	tr.Point(TraceContext{TraceID: "t", SpanID: 1}, "x", "k", "v")
	if tr.Trigger("panic") != "" {
		t.Fatal("nil tracer Trigger must be a no-op")
	}
	if tr.Node() != "" || tr.Recorder() != nil {
		t.Fatal("nil tracer accessors must return zero values")
	}

	var sp *TraceSpan
	sp.SetAttr("k", "v")
	sp.SetNode("n")
	sp.Fail(fmt.Errorf("boom"))
	sp.End()
	if sp.Context().Valid() {
		t.Fatal("nil span context reports valid")
	}

	// An installed tracer with an untraced context still yields nil spans.
	tr = NewTracer(nil, TracerConfig{})
	if _, s := tr.StartSpan(context.Background(), "x"); s != nil {
		t.Fatal("StartSpan without a trace in ctx must return nil span")
	}
	if tr.StartSpanFrom(TraceContext{}, "x") != nil {
		t.Fatal("StartSpanFrom with invalid tc must return nil span")
	}
}

func TestTracerSpanLifecycle(t *testing.T) {
	m := NewMetrics(NewRegistry())
	var mu sync.Mutex
	var events []Event
	m.SetSink(sinkFunc(func(e Event) {
		mu.Lock()
		events = append(events, e)
		mu.Unlock()
	}))
	tr := NewTracer(m, TracerConfig{Node: "node-a"})

	ctx, root := tr.StartRoot(context.Background(), "front_door", TraceContext{})
	rtc := root.Context()
	if !rtc.Valid() {
		t.Fatal("root context invalid")
	}
	if got := TraceContextOf(ctx); got != rtc {
		t.Fatalf("ctx carries %+v, want root context %+v", got, rtc)
	}

	ctx2, child := tr.StartSpan(ctx, "cache.lookup")
	child.SetAttr("result", "miss")
	if got := TraceContextOf(ctx2); got.SpanID != child.Context().SpanID {
		t.Fatal("child ctx does not carry child span")
	}
	child.Fail(fmt.Errorf("synthetic"))
	child.End()
	child.End() // idempotent: must not double-record

	tr.Point(rtc, "breaker.decision", "state", "closed", "odd-tail-dropped")
	root.End()

	mu.Lock()
	defer mu.Unlock()
	if len(events) != 3 {
		t.Fatalf("sink saw %d events, want 3 (child, point, root)", len(events))
	}
	for _, e := range events {
		rec, ok := SpanFromEvent(e)
		if !ok {
			t.Fatalf("sink event %+v is not a trace span", e)
		}
		if rec.TraceID != rtc.TraceID {
			t.Fatalf("span %q trace = %q, want %q", rec.Name, rec.TraceID, rtc.TraceID)
		}
		if rec.Node != "node-a" {
			t.Fatalf("span %q node = %q", rec.Name, rec.Node)
		}
		// Event round trip must be lossless for every field we stamp.
		back, ok := SpanFromEvent(rec.Event())
		if !ok || back.SpanID != rec.SpanID || back.Parent != rec.Parent || back.Err != rec.Err {
			t.Fatalf("Event round trip mutated %+v -> %+v", rec, back)
		}
	}
	if events[0].Name != "cache.lookup" || events[0].Parent != rtc.SpanID {
		t.Fatalf("child event: %+v", events[0])
	}
	if events[0].Attrs["result"] != "miss" || events[0].Err != "synthetic" {
		t.Fatalf("child attrs/err lost: %+v", events[0])
	}
	if events[1].Name != "breaker.decision" || events[1].Attrs["state"] != "closed" {
		t.Fatalf("point event: %+v", events[1])
	}
	if _, ok := events[1].Attrs["odd-tail-dropped"]; ok {
		t.Fatal("odd attr tail was recorded")
	}
	if events[2].Name != "front_door" || events[2].Parent != 0 {
		t.Fatalf("root event: %+v", events[2])
	}
	if tr.rec.Len() != 3 {
		t.Fatalf("flight ring holds %d records, want 3", tr.rec.Len())
	}

	// Joining a propagated parent keeps the trace ID and parents under it.
	_, joined := tr.StartRoot(context.Background(), "server.http", rtc)
	jtc := joined.Context()
	if jtc.TraceID != rtc.TraceID || jtc.SpanID == rtc.SpanID {
		t.Fatalf("joined root: %+v", jtc)
	}
}

func TestFlightRecorderWrapAndOrder(t *testing.T) {
	r := NewFlightRecorder(1) // rounds up to the 64 minimum
	if r.Cap() != 64 {
		t.Fatalf("cap = %d, want 64", r.Cap())
	}
	base := time.Now()
	for i := 0; i < 150; i++ {
		r.Record(&SpanRecord{TraceID: "t", SpanID: uint64(i + 1), Name: "s", Start: base.Add(time.Duration(i) * time.Millisecond)})
	}
	if r.Len() != 64 {
		t.Fatalf("len = %d, want 64 after wrap", r.Len())
	}
	snap := r.Snapshot()
	if len(snap) != 64 {
		t.Fatalf("snapshot = %d records", len(snap))
	}
	for i := range snap {
		// Oldest surviving record is #87 (150-64+1 more recent wrote over).
		if want := uint64(87 + i); snap[i].SpanID != want {
			t.Fatalf("snapshot[%d] = span %d, want %d (sorted oldest first)", i, snap[i].SpanID, want)
		}
	}
}

func TestFlightRecorderConcurrentWriters(t *testing.T) {
	r := NewFlightRecorder(128)
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				r.Record(&SpanRecord{TraceID: "t", SpanID: uint64(w*1_000_000 + i + 1), Start: time.Now()})
			}
		}(w)
	}
	// Snapshots under fire must always be complete records.
	deadline := time.After(50 * time.Millisecond)
	for {
		done := false
		select {
		case <-deadline:
			done = true
		default:
		}
		for _, rec := range r.Snapshot() {
			if rec.SpanID == 0 {
				t.Error("snapshot surfaced a zero record")
			}
		}
		if done {
			break
		}
	}
	close(stop)
	wg.Wait()
}

func TestTriggerDumpsAndRateLimit(t *testing.T) {
	dir := t.TempDir()
	m := NewMetrics(NewRegistry())
	tr := NewTracer(m, TracerConfig{Node: "n1", DumpDir: dir, DumpInterval: time.Hour})
	_, s := tr.StartRoot(context.Background(), "front_door", TraceContext{})
	s.End()

	p1 := tr.Trigger("http_500")
	if p1 == "" {
		t.Fatal("first trigger wrote no dump")
	}
	if p2 := tr.Trigger("http_503"); p2 != "" {
		t.Fatalf("second trigger inside the interval wrote %s", p2)
	}
	if got := tr.triggers.Value(); got != 2 {
		t.Fatalf("trigger counter = %d, want 2 (rate limit must not hide triggers)", got)
	}
	if got := tr.dumps.Value(); got != 1 {
		t.Fatalf("dump counter = %d, want 1", got)
	}

	// DumpNow bypasses the rate limit (SIGQUIT path) and creates the
	// target directory when the operator's -flight-dir doesn't exist yet.
	p3 := filepath.Join(dir, "not", "yet", "made", "explicit.jsonl")
	if err := tr.DumpNow(p3, "sigquit"); err != nil {
		t.Fatal(err)
	}

	for _, p := range []string{p1, p3} {
		f, err := os.Open(p)
		if err != nil {
			t.Fatal(err)
		}
		sc := bufio.NewScanner(f)
		var lines []Event
		for sc.Scan() {
			var e Event
			if err := json.Unmarshal(sc.Bytes(), &e); err != nil {
				t.Fatalf("%s: bad JSONL line: %v", p, err)
			}
			lines = append(lines, e)
		}
		f.Close()
		if len(lines) != 2 {
			t.Fatalf("%s: %d lines, want header + 1 span", p, len(lines))
		}
		if lines[0].Kind != "flight_dump" || lines[0].Node != "n1" || lines[0].Fields["records"] != 1 {
			t.Fatalf("%s: header = %+v", p, lines[0])
		}
		if rec, ok := SpanFromEvent(lines[1]); !ok || rec.Name != "front_door" {
			t.Fatalf("%s: span line = %+v", p, lines[1])
		}
	}

	if got := tr.Trigger("nodir"); got != "" {
		// Sanity: the earlier dump advanced lastDump, still limited.
		t.Fatalf("rate-limited trigger dumped %s", got)
	}

	// A tracer without a DumpDir counts the trigger but writes nothing.
	tr2 := NewTracer(m, TracerConfig{})
	if p := tr2.Trigger("panic"); p != "" {
		t.Fatalf("dir-less tracer dumped %s", p)
	}
}

func TestFlightRecorderEndpoint(t *testing.T) {
	reg := NewRegistry()
	h := Handler(reg)

	req := httptest.NewRequest("GET", "/debug/flightrecorder", nil)
	w := httptest.NewRecorder()
	h.ServeHTTP(w, req)
	if w.Code != http.StatusNotFound {
		t.Fatalf("without tracer: status %d, want 404", w.Code)
	}

	tr := InstallTracer(NewTracer(NewMetrics(reg), TracerConfig{Node: "n"}))
	defer UninstallTracer()
	_, s := tr.StartRoot(context.Background(), "front_door", TraceContext{})
	s.End()

	w = httptest.NewRecorder()
	h.ServeHTTP(w, httptest.NewRequest("GET", "/debug/flightrecorder", nil))
	if w.Code != http.StatusOK {
		t.Fatalf("status %d", w.Code)
	}
	var e Event
	if err := json.Unmarshal(bytes.TrimSpace(w.Body.Bytes()), &e); err != nil {
		t.Fatalf("endpoint body not JSONL: %v", err)
	}
	if rec, ok := SpanFromEvent(e); !ok || rec.Name != "front_door" {
		t.Fatalf("endpoint span = %+v", e)
	}
}

// TestStageSpanOneRecord checks that a stage boundary is one span: the
// stage histogram counts it either way, and it ends in exactly one sink
// record — a "span" record when untraced, a "trace" record under a
// traced request, whose context then parents the stage's own work.
func TestStageSpanOneRecord(t *testing.T) {
	pm := Install(NewMetrics(NewRegistry()))
	defer Uninstall()
	var events []Event
	pm.SetSink(sinkFunc(func(e Event) { events = append(events, e) }))

	_, sp := StartStage(context.Background(), "dag", "b0")
	sp.Fail(fmt.Errorf("boom"))
	sp.End()
	sp.End() // idempotent

	tr := InstallTracer(NewTracer(pm, TracerConfig{}))
	defer UninstallTracer()
	ctx, root := tr.StartRoot(context.Background(), "req", TraceContext{})
	sctx, st := StartStage(ctx, "search", "b1")
	tr.Point(TraceContextOf(sctx), "place", "worker", "0")
	st.End()
	root.End()

	for _, stage := range []string{"dag", "search"} {
		if got := pm.StageDuration(stage).Count(); got != 1 {
			t.Errorf("stage %s histogram count = %d, want 1", stage, got)
		}
	}
	if len(events) != 4 {
		t.Fatalf("got %d sink records, want 4 (span, place, stage, root): %+v", len(events), events)
	}
	if e := events[0]; e.Kind != "span" || e.Stage != "dag" || e.Block != "b0" || e.Err != "boom" || e.Trace != "" {
		t.Errorf("untraced stage record = %+v", e)
	}
	place, _ := SpanFromEvent(events[1])
	stage, ok := SpanFromEvent(events[2])
	if !ok || stage.Name != "stage:search" || stage.Attrs["block"] != "b1" || stage.Parent != root.Context().SpanID {
		t.Errorf("traced stage record = %+v", events[2])
	}
	if place.Name != "place" || place.Parent != stage.SpanID || place.Attrs["worker"] != "0" {
		t.Errorf("point under the stage = %+v, want parent %d", place, stage.SpanID)
	}
}

func TestChromeTraceRequest(t *testing.T) {
	if _, err := ChromeTraceRequest(nil); err == nil {
		t.Fatal("empty span set must error")
	}
	base := time.Unix(1_700_000_000, 0)
	spans := []SpanRecord{
		{TraceID: "t1", SpanID: 1, Name: "front_door", Start: base, Dur: 10 * time.Millisecond},
		{TraceID: "t1", SpanID: 2, Parent: 1, Name: "fleet.route", Start: base.Add(time.Millisecond), Dur: 8 * time.Millisecond},
		// Two overlapping attempts: must land on different rows of the
		// same process (the router's, node attribution comes from below).
		{TraceID: "t1", SpanID: 3, Parent: 2, Name: "fleet.attempt", Start: base.Add(2 * time.Millisecond), Dur: 6 * time.Millisecond, Attrs: map[string]string{"node": "n1", "outcome": "lost"}},
		{TraceID: "t1", SpanID: 4, Parent: 2, Name: "fleet.attempt", Start: base.Add(3 * time.Millisecond), Dur: 4 * time.Millisecond, Attrs: map[string]string{"node": "n2", "outcome": "won", "hedged": "true"}},
		// Node-side spans: explicit node, and a child inheriting it via
		// the parent chain.
		{TraceID: "t1", SpanID: 5, Parent: 4, Name: "server.submit", Node: "n2", Start: base.Add(3 * time.Millisecond), Dur: 3 * time.Millisecond},
		{TraceID: "t1", SpanID: 6, Parent: 5, Name: "stage:search", Start: base.Add(4 * time.Millisecond), Dur: time.Millisecond},
		// Instant point.
		{TraceID: "t1", SpanID: 7, Parent: 2, Name: "fleet.failover", Start: base.Add(time.Millisecond), Attrs: map[string]string{"reason": "unhealthy"}},
	}
	data, err := ChromeTraceRequest(spans)
	if err != nil {
		t.Fatal(err)
	}
	var out struct {
		TraceEvents []struct {
			Name string         `json:"name"`
			Ph   string         `json:"ph"`
			Ts   int64          `json:"ts"`
			Dur  int64          `json:"dur"`
			Pid  int            `json:"pid"`
			Tid  int            `json:"tid"`
			Args map[string]any `json:"args"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(data, &out); err != nil {
		t.Fatalf("not valid JSON: %v", err)
	}

	pids := map[string]int{}
	var attemptTids []int
	for _, ev := range out.TraceEvents {
		switch {
		case ev.Ph == "M" && ev.Name == "process_name":
			pids[ev.Args["name"].(string)] = ev.Pid
		case ev.Name == "fleet.attempt":
			attemptTids = append(attemptTids, ev.Tid)
		case ev.Name == "stage:search":
			// Inherited node: must live in n2's process.
			if ev.Pid != pids["n2"] {
				t.Fatalf("stage:search pid = %d, want n2's %d", ev.Pid, pids["n2"])
			}
		case ev.Name == "fleet.failover":
			if ev.Ph != "i" {
				t.Fatalf("zero-duration span rendered ph %q, want instant", ev.Ph)
			}
		}
	}
	if pids["front door / router"] != 1 {
		t.Fatalf("router pid = %d, want 1 (front door first)", pids["front door / router"])
	}
	// Attempt spans belong to the router; only n2 ran node-side spans, so
	// exactly one node process row exists.
	if pids["n2"] == 0 {
		t.Fatalf("node process missing: %v", pids)
	}
	if _, ok := pids["n1"]; ok {
		t.Fatalf("n1 got a process row with no node-side spans: %v", pids)
	}
	if len(attemptTids) != 2 || attemptTids[0] == attemptTids[1] {
		t.Fatalf("overlapping attempts share a row: tids %v", attemptTids)
	}

	// Determinism: a second conversion is byte-identical.
	again, err := ChromeTraceRequest(spans)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(data, again) {
		t.Fatal("ChromeTraceRequest is not deterministic")
	}
}

func TestHistogramExemplarRendered(t *testing.T) {
	reg := NewRegistry()
	h := reg.Histogram("pipesched_test_seconds", "test", 1e-6)
	h.ObserveExemplar(1500, "0123abc", 1_700_000_000)
	h.ObserveExemplar(90, "", 1) // no trace: plain observation
	var sb strings.Builder
	if err := reg.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	text := sb.String()
	if !strings.Contains(text, `# {trace_id="0123abc"}`) {
		t.Fatalf("exemplar missing from exposition:\n%s", text)
	}
	if h.Count() != 2 {
		t.Fatalf("count = %d, want 2 (exemplar path must still observe)", h.Count())
	}
}
