package fleet

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"pipesched/internal/faultinject"
	"pipesched/internal/server"
	"pipesched/internal/telemetry"
)

// spanCollector gathers trace spans emitted through the sink.
type spanCollector struct {
	mu    sync.Mutex
	spans []telemetry.SpanRecord
}

func (c *spanCollector) Emit(e telemetry.Event) {
	rec, ok := telemetry.SpanFromEvent(e)
	if !ok {
		return
	}
	c.mu.Lock()
	c.spans = append(c.spans, rec)
	c.mu.Unlock()
}

func (c *spanCollector) snapshot() []telemetry.SpanRecord {
	c.mu.Lock()
	defer c.mu.Unlock()
	return append([]telemetry.SpanRecord(nil), c.spans...)
}

// named returns the collected spans with the given name.
func (c *spanCollector) named(name string) []telemetry.SpanRecord {
	var out []telemetry.SpanRecord
	for _, s := range c.snapshot() {
		if s.Name == name {
			out = append(out, s)
		}
	}
	return out
}

// danglingParents returns the spans whose parent is not among spans.
func danglingParents(spans []telemetry.SpanRecord) []telemetry.SpanRecord {
	ids := map[uint64]bool{}
	for _, s := range spans {
		ids[s.SpanID] = true
	}
	var out []telemetry.SpanRecord
	for _, s := range spans {
		if s.Parent != 0 && !ids[s.Parent] {
			out = append(out, s)
		}
	}
	return out
}

// TestFleetRequestTraceEndToEnd is the tentpole acceptance test: one
// batch request through a 4-node in-process fleet — with a dead primary
// (failover) and a slowed search (hedged retry) — must produce a single
// trace covering the front door, routing, both replica attempts, cache
// lookup, queue wait and the pipeline search stages, and that trace
// must convert to valid Chrome trace_event JSON.
func TestFleetRequestTraceEndToEnd(t *testing.T) {
	// Every search sleeps past the 1ms hedge delay, so the surviving
	// primary's attempt is hedged to the next replica.
	inj := faultinject.New().Seed(1).
		Plan(faultinject.Search, faultinject.Plan{Delay: 30 * time.Millisecond, Prob: 1})
	defer faultinject.Activate(inj)()

	pm := telemetry.NewMetrics(telemetry.NewRegistry())
	col := &spanCollector{}
	pm.SetSink(col)
	telemetry.InstallTracer(telemetry.NewTracer(pm, telemetry.TracerConfig{}))
	defer telemetry.UninstallTracer()

	f := newTestFleet(t, 4, Config{Replicas: 3, HedgeDelay: time.Millisecond, Metrics: pm})

	// Kill the first replica in the traced request's chain: the router
	// skips it (a failover without a round trip) and starts on the next.
	traced := tupleRequest(42)
	key, err := server.Fingerprint(traced)
	if err != nil {
		t.Fatal(err)
	}
	chain := f.ring.replicas(key, 3)
	f.Node(chain[0]).Kill()

	// One batch through the HTTP front door: the traced request plus a
	// plain companion, all under one trace root.
	body, err := json.Marshal(map[string]any{
		"requests": []*server.Request{traced, tupleRequest(43)},
	})
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(f.Handler())
	defer srv.Close()
	resp, err := srv.Client().Post(srv.URL+"/compile", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Fatalf("batch status = %d", resp.StatusCode)
	}
	var out struct {
		Responses []*server.WireResponse `json:"responses"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	for i, wr := range out.Responses {
		if wr.Error != nil {
			t.Fatalf("batch item %d failed: %+v", i, wr.Error)
		}
	}

	// The response echoes the trace: header "trace_id-rootspan".
	header := resp.Header.Get(telemetry.TraceHeader)
	htc, ok := telemetry.ParseTraceContext(header)
	if !ok {
		t.Fatalf("response trace header %q unparseable", header)
	}

	// The hedge loser's spans land asynchronously after its attempt
	// drains — children end (and are emitted) before their parents — so
	// poll until its attempt span is in and no collected span still
	// waits for its parent.
	deadline := time.Now().Add(5 * time.Second)
	for {
		lost := 0
		for _, s := range col.named("fleet.attempt") {
			if s.Attrs["outcome"] == "lost" {
				lost++
			}
		}
		if (lost > 0 && len(danglingParents(col.snapshot())) == 0) || time.Now().After(deadline) {
			break
		}
		time.Sleep(5 * time.Millisecond)
	}

	spans := col.snapshot()
	if len(spans) == 0 {
		t.Fatal("no spans collected")
	}

	// Single trace: every span of the fleet journey shares the header's
	// trace ID.
	for _, s := range spans {
		if s.TraceID != htc.TraceID {
			t.Fatalf("span %q in trace %q, want single trace %q", s.Name, s.TraceID, htc.TraceID)
		}
	}

	// Full coverage of the journey, front door to search stage.
	for _, want := range []string{
		"front_door",    // fleet HTTP root
		"fleet.route",   // router span (one per batch item)
		"fleet.attempt", // replica attempts
		"server.submit", // node-side admission
		"cache.lookup",  // memory/disk lookup
		"queue.wait",    // admission queue
		"compile.attempt",
		"stage:search",
	} {
		if len(col.named(want)) == 0 {
			t.Errorf("trace has no %q span", want)
		}
	}

	// The dead primary shows up as a failover point naming it.
	failovers := col.named("fleet.failover")
	if len(failovers) == 0 {
		t.Fatal("no fleet.failover point for the dead primary")
	}
	if failovers[0].Attrs["node"] != chain[0] {
		t.Errorf("failover point names %q, want dead primary %q", failovers[0].Attrs["node"], chain[0])
	}

	// Both replica attempts of the hedged request: a winner and a hedged
	// sibling, as sibling children of the same route span.
	attempts := col.named("fleet.attempt")
	var won, hedged []telemetry.SpanRecord
	for _, a := range attempts {
		if a.Attrs["outcome"] == "won" {
			won = append(won, a)
		}
		if a.Attrs["hedged"] == "true" {
			hedged = append(hedged, a)
		}
	}
	if len(won) != 2 {
		t.Fatalf("winning attempts = %d, want 2 (one per batch item)", len(won))
	}
	if len(hedged) == 0 {
		t.Fatal("no hedged attempt recorded")
	}
	// Either attempt may win the race; what must hold is that the hedged
	// attempt and the primary attempt are siblings under one route span.
	sibling := false
	for _, h := range hedged {
		for _, a := range attempts {
			if h.Parent == a.Parent && h.SpanID != a.SpanID {
				sibling = true
			}
		}
	}
	if !sibling {
		t.Error("hedged attempt has no sibling attempt under its route span")
	}

	// Parent linkage: every span's parent is in the collected set (roots
	// excepted), so the tree reconstructs without dangling references.
	for _, s := range danglingParents(spans) {
		t.Errorf("span %q parent %x missing from trace", s.Name, s.Parent)
	}

	// Node attribution: server-side spans name their node, and the
	// attempts collectively touched at least two distinct nodes.
	nodes := map[string]bool{}
	for _, s := range col.named("server.submit") {
		if s.Node == "" {
			t.Error("server.submit span has no node attribution")
		}
		nodes[s.Node] = true
	}
	if len(nodes) < 2 {
		t.Errorf("server spans on %d node(s), want >= 2 (failover + hedge fanned out)", len(nodes))
	}

	// The trace converts to valid Chrome trace-event JSON with one
	// process row per involved node plus the router.
	data, err := telemetry.ChromeTraceRequest(spans)
	if err != nil {
		t.Fatal(err)
	}
	var chrome struct {
		TraceEvents []struct {
			Name string         `json:"name"`
			Ph   string         `json:"ph"`
			Pid  int            `json:"pid"`
			Args map[string]any `json:"args"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(data, &chrome); err != nil {
		t.Fatalf("ChromeTraceRequest output invalid: %v", err)
	}
	procs := map[string]bool{}
	for _, ev := range chrome.TraceEvents {
		if ev.Ph == "M" && ev.Name == "process_name" {
			procs[ev.Args["name"].(string)] = true
		}
	}
	if !procs["front door / router"] {
		t.Error("chrome export missing the router process row")
	}
	if len(procs) < 3 {
		t.Errorf("chrome export has %d process rows, want router + >= 2 nodes", len(procs))
	}
}

// TestFleetWireErrorCarriesTraceID: when the whole chain is dead the
// 503 wire error must carry the request's trace ID, so the failure is
// findable in the sink and flight recorder.
func TestFleetWireErrorCarriesTraceID(t *testing.T) {
	pm := telemetry.NewMetrics(telemetry.NewRegistry())
	telemetry.InstallTracer(telemetry.NewTracer(pm, telemetry.TracerConfig{}))
	defer telemetry.UninstallTracer()

	f := newTestFleet(t, 2, Config{Replicas: 2, Metrics: pm})
	for _, id := range f.Members() {
		f.Node(id).Kill()
	}
	srv := httptest.NewServer(f.Handler())
	defer srv.Close()

	body, _ := json.Marshal(tupleRequest(7))
	resp, err := srv.Client().Post(srv.URL+"/compile", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != 503 {
		t.Fatalf("status = %d, want 503", resp.StatusCode)
	}
	var wire server.WireResponse
	if err := json.NewDecoder(resp.Body).Decode(&wire); err != nil {
		t.Fatal(err)
	}
	if wire.Error == nil || wire.Error.Code != "no_replicas" {
		t.Fatalf("wire error = %+v", wire.Error)
	}
	htc, ok := telemetry.ParseTraceContext(resp.Header.Get(telemetry.TraceHeader))
	if !ok {
		t.Fatal("503 response has no trace header")
	}
	if wire.Error.TraceID != htc.TraceID {
		t.Fatalf("wire error trace_id = %q, want %q", wire.Error.TraceID, htc.TraceID)
	}
}

// TestFleetStatusLatencyQuantiles: /fleet exposes per-node and
// fleet-wide p50/p95/p99 from the sliding latency windows.
func TestFleetStatusLatencyQuantiles(t *testing.T) {
	f := newTestFleet(t, 3, Config{})
	ctx := context.Background()
	for i := 0; i < 8; i++ {
		if _, err := f.Submit(ctx, tupleRequest(300+i)); err != nil {
			t.Fatal(err)
		}
	}
	srv := httptest.NewServer(f.Handler())
	defer srv.Close()
	resp, err := srv.Client().Get(srv.URL + "/fleet")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var st struct {
		Nodes []struct {
			ID      string `json:"id"`
			Latency *struct {
				P50Ms   float64 `json:"p50_ms"`
				P95Ms   float64 `json:"p95_ms"`
				P99Ms   float64 `json:"p99_ms"`
				Samples int     `json:"samples"`
			} `json:"latency"`
		} `json:"nodes"`
		Latency *struct {
			P50Ms   float64 `json:"p50_ms"`
			P95Ms   float64 `json:"p95_ms"`
			P99Ms   float64 `json:"p99_ms"`
			Samples int     `json:"samples"`
		} `json:"latency"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	if st.Latency == nil || st.Latency.Samples != 8 {
		t.Fatalf("fleet-wide latency = %+v, want 8 samples", st.Latency)
	}
	if st.Latency.P50Ms <= 0 || st.Latency.P50Ms > st.Latency.P95Ms || st.Latency.P95Ms > st.Latency.P99Ms {
		t.Fatalf("fleet quantiles not ordered: %+v", st.Latency)
	}
	nodeSamples := 0
	for _, n := range st.Nodes {
		if n.Latency == nil {
			continue
		}
		nodeSamples += n.Latency.Samples
		if n.Latency.P50Ms <= 0 || n.Latency.P50Ms > n.Latency.P99Ms {
			t.Fatalf("node %s quantiles not ordered: %+v", n.ID, n.Latency)
		}
	}
	if nodeSamples != 8 {
		t.Fatalf("per-node samples sum to %d, want 8", nodeSamples)
	}
}

// TestFleetRouteSpanSkippedWithoutTrace: a direct Submit with tracing
// installed but no inbound trace context stays span-free — the fleet
// pays only atomic loads for untraced work.
func TestFleetRouteSpanSkippedWithoutTrace(t *testing.T) {
	pm := telemetry.NewMetrics(telemetry.NewRegistry())
	col := &spanCollector{}
	pm.SetSink(col)
	telemetry.InstallTracer(telemetry.NewTracer(pm, telemetry.TracerConfig{}))
	defer telemetry.UninstallTracer()

	f := newTestFleet(t, 2, Config{Metrics: pm})
	if _, err := f.Submit(context.Background(), tupleRequest(77)); err != nil {
		t.Fatal(err)
	}
	if got := col.snapshot(); len(got) != 0 {
		names := make([]string, 0, len(got))
		for _, s := range got {
			names = append(names, s.Name)
		}
		t.Fatalf("untraced submit emitted spans: %s", strings.Join(names, ", "))
	}
}
