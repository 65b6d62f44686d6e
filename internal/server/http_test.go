package server

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"os"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"pipesched"
	"pipesched/internal/telemetry"
)

func postCompile(t *testing.T, h http.Handler, body string) (*httptest.ResponseRecorder, *WireResponse) {
	t.Helper()
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/compile", strings.NewReader(body)))
	var wr WireResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &wr); err != nil {
		t.Fatalf("response is not JSON: %v\n%s", err, rec.Body.String())
	}
	return rec, &wr
}

func TestHTTPCompileSingle(t *testing.T) {
	s := newTestServer(t, testConfig())
	h := s.Handler()
	body, _ := json.Marshal(tupleRequest(1))
	rec, wr := postCompile(t, h, string(body))
	if rec.Code != http.StatusOK {
		t.Fatalf("status = %d, want 200\n%s", rec.Code, rec.Body.String())
	}
	if wr.ID != "req-1" || wr.Assembly == "" || wr.Quality != "optimal" || !wr.Optimal || wr.Error != nil {
		t.Fatalf("unexpected wire response: %+v", wr)
	}
	if wr.Gap != 0 {
		t.Errorf("optimal compile gap = %d, want 0 (certified)", wr.Gap)
	}
}

func TestHTTPCompileInvalid(t *testing.T) {
	s := newTestServer(t, testConfig())
	h := s.Handler()
	cases := []struct {
		name, body string
	}{
		{"malformed json", "{nope"},
		{"no input", `{"machine":{"preset":"simulation"}}`},
		{"bad preset", `{"source":"a = b","machine":{"preset":"nope"}}`},
	}
	for _, c := range cases {
		rec, wr := postCompile(t, h, c.body)
		if rec.Code != http.StatusBadRequest {
			t.Errorf("%s: status = %d, want 400", c.name, rec.Code)
		}
		if wr.Error == nil || wr.Error.Code != "invalid_request" {
			t.Errorf("%s: error = %+v, want code invalid_request", c.name, wr.Error)
		}
	}
}

func TestHTTPCompileMethodAndSize(t *testing.T) {
	s := newTestServer(t, testConfig())
	h := s.Handler()
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/compile", nil))
	if rec.Code != http.StatusMethodNotAllowed {
		t.Errorf("GET /compile = %d, want 405", rec.Code)
	}
	rec = httptest.NewRecorder()
	huge := bytes.Repeat([]byte("x"), maxBodyBytes+2)
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/compile", bytes.NewReader(huge)))
	if rec.Code != http.StatusRequestEntityTooLarge {
		t.Errorf("oversized body = %d, want 413", rec.Code)
	}
}

func TestHTTPBatch(t *testing.T) {
	s := newTestServer(t, testConfig())
	h := s.Handler()
	batch := map[string]any{"requests": []any{
		tupleRequest(1),
		&Request{ID: "bad", Machine: MachineSpec{Preset: "simulation"}}, // no input
		nil,
	}}
	body, _ := json.Marshal(batch)
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/compile", bytes.NewReader(body)))
	if rec.Code != http.StatusOK {
		t.Fatalf("batch status = %d, want 200 with per-item errors\n%s", rec.Code, rec.Body.String())
	}
	var out struct {
		Responses []*WireResponse `json:"responses"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &out); err != nil {
		t.Fatal(err)
	}
	if len(out.Responses) != 3 {
		t.Fatalf("got %d responses, want 3", len(out.Responses))
	}
	if out.Responses[0].Error != nil || out.Responses[0].Assembly == "" {
		t.Errorf("item 0: %+v, want clean result", out.Responses[0])
	}
	if out.Responses[1].Error == nil || out.Responses[1].Error.Code != "invalid_request" {
		t.Errorf("item 1: %+v, want invalid_request", out.Responses[1])
	}
	if out.Responses[2].Error == nil || out.Responses[2].Error.Code != "invalid_request" {
		t.Errorf("item 2: %+v, want invalid_request for null entry", out.Responses[2])
	}
}

// TestHTTPOverload: a saturated queue surfaces as 503 with both a
// Retry-After header and a typed JSON error.
func TestHTTPOverload(t *testing.T) {
	cfg := testConfig()
	cfg.Workers = 1
	cfg.QueueDepth = 1
	gate := make(chan struct{})
	started := make(chan struct{}, 16)
	testHookCompile = func(ctx context.Context) {
		started <- struct{}{}
		select {
		case <-gate:
		case <-ctx.Done():
		}
	}
	defer func() { testHookCompile = nil }()
	s := newTestServer(t, cfg)
	h := s.Handler()

	var wg sync.WaitGroup
	wg.Add(1)
	go func() { defer wg.Done(); _, _ = s.Submit(context.Background(), tupleRequest(1)) }()
	<-started
	wg.Add(1)
	go func() { defer wg.Done(); _, _ = s.Submit(context.Background(), tupleRequest(2)) }()
	waitFor(t, func() bool { return s.QueueDepth() == 1 })

	body, _ := json.Marshal(tupleRequest(3))
	rec, wr := postCompile(t, h, string(body))
	if rec.Code != http.StatusServiceUnavailable {
		t.Fatalf("status = %d, want 503\n%s", rec.Code, rec.Body.String())
	}
	if rec.Header().Get("Retry-After") == "" {
		t.Error("missing Retry-After header")
	}
	if wr.Error == nil || wr.Error.Code != "overloaded" || wr.Error.RetryAfterMS <= 0 {
		t.Errorf("error = %+v, want overloaded with retry_after_ms", wr.Error)
	}
	close(gate)
	wg.Wait()
}

// TestHTTPDegradedIs200: a degraded-but-legal outcome is a 200 whose
// error field names the rung's typed reason.
func TestHTTPDegradedIs200(t *testing.T) {
	cfg := testConfig()
	cfg.BreakerThreshold = -1
	s := newTestServer(t, cfg)
	h := s.Handler()
	req := &Request{Tuples: tangleTuples(2), Machine: MachineSpec{Preset: "simulation"}, Options: RequestOptions{Lambda: 1}}
	body, _ := json.Marshal(req)
	rec, wr := postCompile(t, h, string(body))
	if rec.Code != http.StatusOK {
		t.Fatalf("status = %d, want 200 (schedule delivered)\n%s", rec.Code, rec.Body.String())
	}
	if wr.Assembly == "" || !wr.Degraded || wr.Error == nil || wr.Error.Code != "curtailed" {
		t.Fatalf("wire = %+v, want degraded curtailed result with assembly", wr)
	}
	if wr.Gap <= 0 {
		t.Errorf("curtailed result gap = %d, want > 0 (certified distance to optimal)", wr.Gap)
	}
}

func TestHTTPHealthz(t *testing.T) {
	s := New(testConfig())
	h := s.Handler()
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/healthz", nil))
	if rec.Code != http.StatusOK || !strings.Contains(rec.Body.String(), "ok") {
		t.Fatalf("healthz = %d %q, want 200 ok", rec.Code, rec.Body.String())
	}
	s.Close()
	rec = httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/healthz", nil))
	if rec.Code != http.StatusServiceUnavailable || !strings.Contains(rec.Body.String(), "draining") {
		t.Fatalf("healthz after Close = %d %q, want 503 draining", rec.Code, rec.Body.String())
	}
}

// TestHTTPMetricsMounted: building the server with a telemetry metric
// set mounts the introspection endpoints and the service counters
// appear in the Prometheus text.
func TestHTTPMetricsMounted(t *testing.T) {
	pm := pipesched.EnableTelemetry()
	t.Cleanup(pipesched.DisableTelemetry)
	cfg := testConfig()
	cfg.Metrics = pm
	s := newTestServer(t, cfg)
	h := s.Handler()
	body, _ := json.Marshal(tupleRequest(1))
	if rec, _ := postCompile(t, h, string(body)); rec.Code != http.StatusOK {
		t.Fatalf("compile = %d, want 200", rec.Code)
	}
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/metrics", nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("/metrics = %d, want 200", rec.Code)
	}
	for _, want := range []string{
		"pipesched_server_admitted_total 1",
		"pipesched_server_completed_total 1",
		"pipesched_server_cache_misses_total 1",
	} {
		if !strings.Contains(rec.Body.String(), want) {
			t.Errorf("/metrics missing %q", want)
		}
	}
}

func TestHTTPSourceSyntaxErrorIsInvalidRequest(t *testing.T) {
	// A typo in a source request is the caller's fault: 400 with
	// invalid_request, and no flight-recorder dump for it.
	dumps := t.TempDir()
	telemetry.InstallTracer(telemetry.NewTracer(nil, telemetry.TracerConfig{DumpDir: dumps}))
	defer telemetry.UninstallTracer()
	s := newTestServer(t, testConfig())

	resp, err := s.Submit(context.Background(), &Request{Source: "a = = ;", Machine: MachineSpec{Preset: "simulation"}})
	if !errors.Is(err, pipesched.ErrInvalidSource) || resp.Compiled != nil || ErrorCode(err) != "invalid_request" {
		t.Fatalf("Submit: err %v (code %q), compiled %v; want ErrInvalidSource, invalid_request and no schedule",
			err, ErrorCode(err), resp.Compiled)
	}
	rec, wr := postCompile(t, s.Handler(), `{"source":"a = = ;","machine":{"preset":"simulation"}}`)
	if rec.Code != http.StatusBadRequest || wr.Error == nil || wr.Error.Code != "invalid_request" {
		t.Errorf("status %d, error %+v; want 400 invalid_request", rec.Code, wr.Error)
	}
	if des, err := os.ReadDir(dumps); err != nil || len(des) != 0 {
		t.Errorf("flight recorder dumped %d files for a syntax error (%v)", len(des), err)
	}
}

func TestHTTPSourceFailureAfterParseIsServerError(t *testing.T) {
	// A source that parses but whose compile then hits a server fault
	// (here a panic outside stage isolation) is not the caller's typo:
	// it answers 500 and dumps the flight recorder.
	testHookCompile = func(context.Context) { panic("server fault") }
	defer func() { testHookCompile = nil }()
	s := newTestServer(t, testConfig())
	dumps := t.TempDir()
	telemetry.InstallTracer(telemetry.NewTracer(nil, telemetry.TracerConfig{DumpDir: dumps, DumpInterval: time.Nanosecond}))
	defer telemetry.UninstallTracer()
	rec, wr := postCompile(t, s.Handler(), `{"source":"a = b * c","machine":{"preset":"simulation"}}`)
	if rec.Code != http.StatusInternalServerError || wr.Error == nil || wr.Error.Code != "internal" {
		t.Errorf("status %d, error %+v; want 500 internal", rec.Code, wr.Error)
	}
	des, err := os.ReadDir(dumps)
	if err != nil || !slices.ContainsFunc(des, func(de os.DirEntry) bool { return strings.Contains(de.Name(), "http_500") }) {
		t.Errorf("flight recorder dumps %v (%v), want an http_500 dump", des, err)
	}
}

func TestHTTPInfeasibleIsUnprocessable(t *testing.T) {
	// A minreg-k bound that admits no schedule is a completed proof about
	// the caller's own bound: 422 infeasible, source and tuples alike,
	// and no flight-recorder dump.
	s := newTestServer(t, testConfig())
	for _, body := range []string{
		`{"source":"a = b * c","machine":{"preset":"simulation"},"options":{"sched":"minreg-k=1"}}`,
		`{"tuples":"1: Load #b\n2: Load #c\n3: Mul @1, @2\n4: Store #a, @3","machine":{"preset":"simulation"},"options":{"sched":"minreg-k=1"}}`,
	} {
		dumps := t.TempDir()
		telemetry.InstallTracer(telemetry.NewTracer(nil, telemetry.TracerConfig{DumpDir: dumps}))
		rec, wr := postCompile(t, s.Handler(), body)
		telemetry.UninstallTracer()
		if rec.Code != http.StatusUnprocessableEntity || wr.Error == nil || wr.Error.Code != "infeasible" {
			t.Errorf("%.20s…: status %d, error %+v; want 422 infeasible", body, rec.Code, wr.Error)
		}
		if des, err := os.ReadDir(dumps); err != nil || len(des) != 0 {
			t.Errorf("%.20s…: flight recorder dumped %d files (%v), want none", body, len(des), err)
		}
	}
}
