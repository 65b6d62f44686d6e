package server

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"pipesched"
	"pipesched/internal/faultinject"
)

// testConfig returns a small, fast server configuration for tests.
func testConfig() Config {
	return Config{
		Workers:          2,
		QueueDepth:       4,
		DefaultTimeout:   2 * time.Second,
		MaxRetries:       2,
		RetryBase:        time.Millisecond,
		RetryMax:         2 * time.Millisecond,
		BreakerThreshold: 3,
		BreakerCooldown:  100 * time.Millisecond,
		CacheEntries:     64,
	}
}

// tupleRequest builds a valid tuple-input request; n varies the block
// content so distinct n values get distinct fingerprints.
func tupleRequest(n int) *Request {
	return &Request{
		ID:      fmt.Sprintf("req-%d", n),
		Tuples:  tupleBlock(n),
		Machine: MachineSpec{Preset: "simulation"},
	}
}

func tupleBlock(n int) string {
	return fmt.Sprintf(`b%d:
  1: Const %d
  2: Load #x
  3: Mul @1, @2
  4: Add @3, @1
  5: Store #y, @4`, n, n+1)
}

// chainTuples renders a multiply chain in tuple-text form. Its optimal
// schedule cannot reach zero NOPs, and the seed cost equals the root
// lower bound, so an unforced search certifies the seed instantly while
// forced curtailment (CurtailLambda, which disables the certificate)
// reliably produces ErrCurtailed.
func chainTuples(tuples int) string {
	var sb strings.Builder
	sb.WriteString("chain:\n  1: Load #x\n  2: Mul @1, @1\n")
	prev := 2
	for id := 3; id+1 <= tuples; id += 2 {
		fmt.Fprintf(&sb, "  %d: Load #x\n", id)
		fmt.Fprintf(&sb, "  %d: Mul @%d, @%d\n", id+1, prev, id)
		prev = id + 1
	}
	return sb.String()
}

// tangleTuples renders independent (Load, Load, Mul, Add, Store) units
// whose root lower bound is loose while the seed still pays NOPs: a
// small explicit λ curtails the search with a positive certified gap.
func tangleTuples(units int) string {
	var sb strings.Builder
	sb.WriteString("tangle:\n")
	id := 1
	for i := 0; i < units; i++ {
		fmt.Fprintf(&sb, "  %d: Load #a%d\n", id, i)
		fmt.Fprintf(&sb, "  %d: Load #b%d\n", id+1, i)
		fmt.Fprintf(&sb, "  %d: Mul @%d, @%d\n", id+2, id, id+1)
		fmt.Fprintf(&sb, "  %d: Add @%d, @%d\n", id+3, id+2, id)
		fmt.Fprintf(&sb, "  %d: Store #z%d, @%d\n", id+4, i, id+3)
		id += 5
	}
	return sb.String()
}

func newTestServer(t *testing.T, cfg Config) *Server {
	t.Helper()
	s := New(cfg)
	t.Cleanup(s.Close)
	return s
}

func TestSubmitBasic(t *testing.T) {
	s := newTestServer(t, testConfig())
	resp, err := s.Submit(context.Background(), tupleRequest(1))
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}
	if resp.Compiled == nil || resp.Compiled.Quality != pipesched.Optimal {
		t.Fatalf("want clean optimal result, got %+v", resp)
	}
	if resp.ID != "req-1" {
		t.Errorf("ID = %q, want req-1", resp.ID)
	}
	if resp.Compiled.Assembly == "" {
		t.Error("no assembly emitted")
	}
}

func TestSubmitSourceInput(t *testing.T) {
	s := newTestServer(t, testConfig())
	resp, err := s.Submit(context.Background(), &Request{
		Source:  "b = 15\na = b * a\n",
		Machine: MachineSpec{Preset: "simulation"},
	})
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}
	if resp.Compiled == nil || resp.Compiled.Assembly == "" {
		t.Fatal("no result for source input")
	}
}

func TestSubmitInvalidRequests(t *testing.T) {
	s := newTestServer(t, testConfig())
	cases := []struct {
		name string
		req  *Request
	}{
		{"nil", nil},
		{"no input", &Request{Machine: MachineSpec{Preset: "simulation"}}},
		{"both inputs", &Request{Source: "a = b", Tuples: "x:\n  1: Load #a", Machine: MachineSpec{Preset: "simulation"}}},
		{"no machine", &Request{Source: "a = b"}},
		{"unknown preset", &Request{Source: "a = b", Machine: MachineSpec{Preset: "nope"}}},
		{"bad machine text", &Request{Source: "a = b", Machine: MachineSpec{Text: "not a machine"}}},
		{"bad tuples", &Request{Tuples: "1: Bogus", Machine: MachineSpec{Preset: "simulation"}}},
		{"bad mode", &Request{Source: "a = b", Machine: MachineSpec{Preset: "simulation"}, Options: RequestOptions{Mode: "warp"}}},
	}
	for _, c := range cases {
		resp, err := s.Submit(context.Background(), c.req)
		if resp != nil || !errors.Is(err, ErrInvalidRequest) {
			t.Errorf("%s: resp=%v err=%v, want nil + ErrInvalidRequest", c.name, resp, err)
		}
		if code := ErrorCode(err); code != "invalid_request" {
			t.Errorf("%s: code = %q, want invalid_request", c.name, code)
		}
	}
}

// TestQueueFullRejects proves admission control under a saturated
// queue: with every worker busy and the queue at capacity, the next
// request is rejected immediately with a typed, retryable error.
func TestQueueFullRejects(t *testing.T) {
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
	var wg sync.WaitGroup
	// First request occupies the only worker...
	wg.Add(1)
	go func() { defer wg.Done(); _, _ = s.Submit(context.Background(), tupleRequest(1)) }()
	<-started
	// ...second fills the queue...
	wg.Add(1)
	go func() { defer wg.Done(); _, _ = s.Submit(context.Background(), tupleRequest(2)) }()
	waitFor(t, func() bool { return s.QueueDepth() == 1 })

	// ...third must bounce with ErrOverloaded and a retry hint.
	resp, err := s.Submit(context.Background(), tupleRequest(3))
	if resp != nil || !errors.Is(err, ErrOverloaded) {
		t.Fatalf("resp=%v err=%v, want nil + ErrOverloaded", resp, err)
	}
	var oe *OverloadError
	if !errors.As(err, &oe) || oe.RetryAfter <= 0 {
		t.Fatalf("want *OverloadError with RetryAfter, got %v", err)
	}
	close(gate)
	wg.Wait()
}

// TestDeadlineShedding: a request whose budget cannot cover the
// observed p95 queue wait is rejected without queueing.
func TestDeadlineShedding(t *testing.T) {
	s := newTestServer(t, testConfig())
	// Seed the wait window with 200ms observed waits.
	for i := 0; i < waitWindowMinSamples; i++ {
		s.waits.Observe(0.2)
	}
	req := tupleRequest(1)
	req.TimeoutMS = 50 // cannot cover the 200ms p95 wait
	resp, err := s.Submit(context.Background(), req)
	if resp != nil || !errors.Is(err, ErrOverloaded) {
		t.Fatalf("resp=%v err=%v, want nil + ErrOverloaded", resp, err)
	}
	var oe *OverloadError
	if !errors.As(err, &oe) || !strings.Contains(oe.Reason, "deadline") {
		t.Fatalf("want deadline-shed OverloadError, got %v", err)
	}
	// A request with enough budget sails through.
	req2 := tupleRequest(2)
	req2.TimeoutMS = 2000
	if _, err := s.Submit(context.Background(), req2); err != nil {
		t.Fatalf("roomy request rejected: %v", err)
	}
}

// TestCacheHit: the second identical request is served from the LRU
// without recompiling.
func TestCacheHit(t *testing.T) {
	var compiles int32
	testHookCompile = func(context.Context) { atomic.AddInt32(&compiles, 1) }
	defer func() { testHookCompile = nil }()
	s := newTestServer(t, testConfig())
	r1, err := s.Submit(context.Background(), tupleRequest(1))
	if err != nil || r1.Cached {
		t.Fatalf("first: resp=%+v err=%v", r1, err)
	}
	r2, err := s.Submit(context.Background(), tupleRequest(1))
	if err != nil || !r2.Cached {
		t.Fatalf("second: resp=%+v err=%v, want cache hit", r2, err)
	}
	if got := atomic.LoadInt32(&compiles); got != 1 {
		t.Errorf("compiles = %d, want 1", got)
	}
	if r2.Compiled != r1.Compiled {
		t.Error("cache returned a different result object")
	}
}

// TestSingleflightDedup: concurrent identical requests collapse into
// one compilation.
func TestSingleflightDedup(t *testing.T) {
	cfg := testConfig()
	cfg.CacheEntries = -1 // isolate dedup from caching
	var compiles int32
	gate := make(chan struct{})
	testHookCompile = func(ctx context.Context) {
		atomic.AddInt32(&compiles, 1)
		select {
		case <-gate:
		case <-ctx.Done():
		}
	}
	defer func() { testHookCompile = nil }()
	s := newTestServer(t, cfg)

	const n = 8
	var wg sync.WaitGroup
	var deduped int32
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			resp, err := s.Submit(context.Background(), tupleRequest(7))
			if err != nil {
				t.Errorf("Submit: %v", err)
				return
			}
			if resp.Deduped {
				atomic.AddInt32(&deduped, 1)
			}
		}()
	}
	// Wait until the leader is compiling and every follower has joined,
	// then release.
	key := fingerprintOfRequest(t, tupleRequest(7))
	waitFor(t, func() bool {
		s.mu.Lock()
		defer s.mu.Unlock()
		f := s.flights[key]
		return f != nil && f.refs == n && atomic.LoadInt32(&compiles) == 1
	})
	close(gate)
	wg.Wait()
	if got := atomic.LoadInt32(&compiles); got != 1 {
		t.Errorf("compiles = %d, want 1 (singleflight)", got)
	}
	if got := atomic.LoadInt32(&deduped); got != n-1 {
		t.Errorf("deduped = %d, want %d", got, n-1)
	}
}

// fingerprintOfRequest computes the fingerprint the server would use
// for req.
func fingerprintOfRequest(t *testing.T, req *Request) string {
	t.Helper()
	r, err := Resolve(req)
	if err != nil {
		t.Fatal(err)
	}
	return r.Key
}

// TestRetryTransientStageFault: a one-shot injected search fault is
// retried and the retry lands a clean optimal result.
func TestRetryTransientStageFault(t *testing.T) {
	defer faultinject.Activate(faultinject.New().
		Plan(faultinject.Search, faultinject.Plan{Err: errors.New("injected"), Times: 1}))()
	s := newTestServer(t, testConfig())
	resp, err := s.Submit(context.Background(), tupleRequest(1))
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}
	if resp.Retries != 1 {
		t.Errorf("Retries = %d, want 1", resp.Retries)
	}
	if resp.Compiled.Quality != pipesched.Optimal {
		t.Errorf("Quality = %v, want Optimal after retry", resp.Compiled.Quality)
	}
}

// TestRetryExhaustionKeepsLegalResult: a persistent search fault burns
// all retries but still returns the degraded-but-legal Heuristic rung
// with its typed reason.
func TestRetryExhaustionKeepsLegalResult(t *testing.T) {
	defer faultinject.Activate(faultinject.New().
		Plan(faultinject.Search, faultinject.Plan{Err: errors.New("injected")}))()
	s := newTestServer(t, testConfig())
	resp, err := s.Submit(context.Background(), tupleRequest(1))
	var se *pipesched.StageError
	if !errors.As(err, &se) || se.Stage != "search" {
		t.Fatalf("err = %v, want search *StageError", err)
	}
	if resp == nil || resp.Compiled == nil || resp.Compiled.Quality != pipesched.Heuristic {
		t.Fatalf("want legal Heuristic result alongside the error, got %+v", resp)
	}
	if want := testConfig().MaxRetries; resp.Retries != want {
		t.Errorf("Retries = %d, want %d", resp.Retries, want)
	}
}

// TestFrontendFaultNotRetried: frontend failures are permanent — no
// schedule, no retries.
func TestFrontendFaultNotRetried(t *testing.T) {
	defer faultinject.Activate(faultinject.New().
		Plan(faultinject.Frontend, faultinject.Plan{Err: errors.New("injected")}))()
	s := newTestServer(t, testConfig())
	resp, err := s.Submit(context.Background(), &Request{
		Source:  "a = b",
		Machine: MachineSpec{Preset: "simulation"},
	})
	var se *pipesched.StageError
	if !errors.As(err, &se) || se.Stage != "frontend" {
		t.Fatalf("err = %v, want frontend StageError", err)
	}
	if resp == nil || resp.Compiled != nil {
		t.Fatalf("resp = %+v, want response without a result", resp)
	}
	if resp.Retries != 0 {
		t.Errorf("Retries = %d, want 0 (frontend faults are permanent)", resp.Retries)
	}
	if ErrorCode(err) != "stage_failure" {
		t.Errorf("code = %q, want stage_failure", ErrorCode(err))
	}
}

// TestWorkerPanicIsolation: a panic outside the pipeline's own stage
// isolation is caught by the worker and surfaced as ErrInternal — the
// server keeps serving.
func TestWorkerPanicIsolation(t *testing.T) {
	var fired int32
	testHookCompile = func(context.Context) {
		if atomic.AddInt32(&fired, 1) == 1 {
			panic("server-layer boom")
		}
	}
	defer func() { testHookCompile = nil }()
	cfg := testConfig()
	cfg.MaxRetries = -1 // no retries: surface the panic directly
	s := newTestServer(t, cfg)
	resp, err := s.Submit(context.Background(), tupleRequest(1))
	if resp == nil || resp.Compiled != nil || !errors.Is(err, ErrInternal) {
		t.Fatalf("resp=%+v err=%v, want ErrInternal", resp, err)
	}
	if ErrorCode(err) != "internal" {
		t.Errorf("code = %q, want internal", ErrorCode(err))
	}
	// The pool survived: the next request compiles fine.
	resp, err = s.Submit(context.Background(), tupleRequest(2))
	if err != nil || resp.Compiled == nil {
		t.Fatalf("server died after panic: resp=%v err=%v", resp, err)
	}
}

// TestBreakerFastPathEndToEnd: repeated budget blowouts open the
// circuit, requests skip to the Heuristic rung, and after the cooldown
// a clean probe closes it again.
func TestBreakerFastPathEndToEnd(t *testing.T) {
	cfg := testConfig()
	cfg.BreakerThreshold = 2
	cfg.BreakerCooldown = 50 * time.Millisecond
	cfg.CacheEntries = -1
	s := newTestServer(t, cfg)
	req := &Request{Tuples: chainTuples(8), Machine: MachineSpec{Preset: "simulation"}}

	// Phase 1: forced curtailment — every search blows its budget.
	restore := faultinject.Activate(faultinject.New().
		Plan(faultinject.Search, faultinject.Plan{CurtailLambda: 1}))
	for i := 0; i < cfg.BreakerThreshold; i++ {
		resp, err := s.Submit(context.Background(), req)
		if !errors.Is(err, pipesched.ErrCurtailed) {
			t.Fatalf("submit %d: err = %v, want ErrCurtailed", i, err)
		}
		if resp == nil || resp.Compiled == nil {
			t.Fatalf("submit %d: curtailment must still return a legal schedule", i)
		}
	}
	// Circuit open: fast path, no error, Heuristic rung, no search.
	resp, err := s.Submit(context.Background(), req)
	if err != nil || !resp.FastPath || resp.Compiled.Quality != pipesched.Heuristic {
		t.Fatalf("open circuit: resp=%+v err=%v, want fast-path Heuristic", resp, err)
	}
	restore()

	// Phase 2: fault gone; after the cooldown the probe runs a full
	// search, succeeds, and the circuit closes.
	time.Sleep(cfg.BreakerCooldown + 10*time.Millisecond)
	resp, err = s.Submit(context.Background(), req)
	if err != nil || resp.FastPath || resp.Compiled.Quality != pipesched.Optimal {
		t.Fatalf("probe: resp=%+v err=%v, want full optimal search", resp, err)
	}
	resp, err = s.Submit(context.Background(), req)
	if err != nil || resp.FastPath || resp.Compiled.Quality != pipesched.Optimal {
		t.Fatalf("after recovery: resp=%+v err=%v, want full optimal search", resp, err)
	}
}

// TestDrain: Shutdown stops admission with a typed error, finishes
// in-flight work, and answers every waiter.
func TestDrain(t *testing.T) {
	cfg := testConfig()
	cfg.Workers = 1
	gate := make(chan struct{})
	entered := make(chan struct{}, 1)
	testHookCompile = func(ctx context.Context) {
		select {
		case entered <- struct{}{}:
		default:
		}
		select {
		case <-gate:
		case <-ctx.Done():
		}
	}
	defer func() { testHookCompile = nil }()
	s := New(cfg)

	inflight := make(chan error, 1)
	go func() {
		_, err := s.Submit(context.Background(), tupleRequest(1))
		inflight <- err
	}()
	<-entered

	shutdownDone := make(chan error, 1)
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		shutdownDone <- s.Shutdown(ctx)
	}()
	waitFor(t, func() bool { return s.Draining() })

	// New work is refused with the drain sentinel.
	if _, err := s.Submit(context.Background(), tupleRequest(2)); !errors.Is(err, ErrDraining) {
		t.Fatalf("err = %v, want ErrDraining", err)
	}

	// The in-flight request completes cleanly once released.
	close(gate)
	if err := <-inflight; err != nil {
		t.Fatalf("in-flight request failed during drain: %v", err)
	}
	if err := <-shutdownDone; err != nil {
		t.Fatalf("Shutdown: %v", err)
	}
}

// TestDrainDeadlineDegrades: when the drain budget expires, in-flight
// searches are canceled and still answer their waiters (with a legal
// incumbent or a typed error) instead of hanging.
func TestDrainDeadlineDegrades(t *testing.T) {
	cfg := testConfig()
	cfg.Workers = 1
	testHookCompile = func(ctx context.Context) { <-ctx.Done() } // stall until canceled
	defer func() { testHookCompile = nil }()
	s := New(cfg)

	inflight := make(chan struct{})
	var resp *Response
	var rerr error
	go func() {
		resp, rerr = s.Submit(context.Background(), tupleRequest(1))
		close(inflight)
	}()
	waitFor(t, func() bool {
		s.mu.Lock()
		defer s.mu.Unlock()
		return len(s.flights) == 1
	})

	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	err := s.Shutdown(ctx)
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("Shutdown = %v, want DeadlineExceeded (forced degradation)", err)
	}
	select {
	case <-inflight:
	case <-time.After(5 * time.Second):
		t.Fatal("in-flight waiter hung after forced drain")
	}
	// The degraded in-flight request must still terminate with a legal
	// result or a typed error.
	if rerr != nil && ErrorCode(rerr) == "error" {
		t.Errorf("untyped error after forced drain: %v", rerr)
	}
	if resp != nil && resp.Compiled != nil && resp.Compiled.Scheduled == nil {
		t.Error("degraded result has no schedule")
	}
}

// TestCallerAbandonment: a caller whose own ctx ends gets a typed error
// immediately; the flight itself is canceled when the last waiter
// leaves and the worker still answers (bookkeeping stays consistent).
func TestCallerAbandonment(t *testing.T) {
	cfg := testConfig()
	cfg.Workers = 1
	var calls int32
	testHookCompile = func(ctx context.Context) {
		if atomic.AddInt32(&calls, 1) == 1 {
			<-ctx.Done() // stall only the abandoned flight
		}
	}
	defer func() { testHookCompile = nil }()
	s := newTestServer(t, cfg)

	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() {
		_, err := s.Submit(ctx, tupleRequest(1))
		done <- err
	}()
	waitFor(t, func() bool {
		s.mu.Lock()
		defer s.mu.Unlock()
		return len(s.flights) == 1
	})
	cancel()
	select {
	case err := <-done:
		if !errors.Is(err, pipesched.ErrCanceled) {
			t.Fatalf("err = %v, want ErrCanceled", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("abandoning caller hung")
	}
	// The flight drains; the server remains usable.
	waitFor(t, func() bool {
		s.mu.Lock()
		defer s.mu.Unlock()
		return len(s.flights) == 0
	})
	if _, err := s.Submit(context.Background(), tupleRequest(2)); err != nil {
		t.Fatalf("server unusable after abandonment: %v", err)
	}
}

// waitFor polls cond until it holds or the deadline expires.
func waitFor(t *testing.T, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatal("condition never held")
}

// TestRetryBackoffCappedByDeadline: a backoff that cannot complete
// before the request deadline is not taken at all — the worker answers
// with the previous attempt's (legal, degraded) result immediately
// instead of sleeping the caller's remaining budget away.
func TestRetryBackoffCappedByDeadline(t *testing.T) {
	defer faultinject.Activate(faultinject.New().
		Plan(faultinject.Search, faultinject.Plan{Err: errors.New("injected")}))()
	cfg := testConfig()
	cfg.MaxRetries = 5
	cfg.RetryBase = 10 * time.Second // one backoff alone exceeds the budget
	cfg.RetryMax = 10 * time.Second
	s := newTestServer(t, cfg)

	start := time.Now()
	resp, err := s.Submit(context.Background(), &Request{
		Tuples:    tupleBlock(1),
		Machine:   MachineSpec{Preset: "simulation"},
		TimeoutMS: 200,
	})
	elapsed := time.Since(start)

	var se *pipesched.StageError
	if !errors.As(err, &se) {
		t.Fatalf("err = %v, want the injected stage error", err)
	}
	if resp == nil || resp.Compiled == nil {
		t.Fatal("no degraded result alongside the error")
	}
	if resp.Retries != 0 {
		t.Errorf("Retries = %d, want 0: every backoff overruns the deadline", resp.Retries)
	}
	// Well under one backoff (10s) and well under even the 200ms budget:
	// the worker returned instead of sleeping.
	if elapsed > 2*time.Second {
		t.Fatalf("Submit took %v: retry backoff slept past the request deadline", elapsed)
	}
}
