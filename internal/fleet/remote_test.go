package fleet

import (
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"pipesched"
	"pipesched/internal/dag"
	"pipesched/internal/faultinject"
	"pipesched/internal/machine"
	"pipesched/internal/regalloc"
	"pipesched/internal/server"
	"pipesched/internal/sim"
	"pipesched/internal/telemetry"
)

// newTracedCollector installs a tracer backed by a span collector for
// the duration of the test.
func newTracedCollector(t *testing.T) *spanCollector {
	t.Helper()
	pm := telemetry.NewMetrics(telemetry.NewRegistry())
	col := &spanCollector{}
	pm.SetSink(col)
	telemetry.InstallTracer(telemetry.NewTracer(pm, telemetry.TracerConfig{}))
	t.Cleanup(telemetry.UninstallTracer)
	return col
}

// tracedCtx opens a root span (standing in for the router's
// fleet.attempt parent) so RemoteNode's fleet.rpc spans are recorded.
func tracedCtx(t *testing.T) context.Context {
	t.Helper()
	ctx, root := telemetry.ActiveTracer().StartRoot(context.Background(), "test_root", telemetry.TraceContext{})
	t.Cleanup(root.End)
	return ctx
}

// rpcSpanAttr finds the latest fleet.rpc span and returns the given
// attribute ("" when the span or attribute is missing).
func rpcSpanAttr(col *spanCollector, key string) string {
	spans := col.named("fleet.rpc")
	if len(spans) == 0 {
		return ""
	}
	return spans[len(spans)-1].Attrs[key]
}

// TestRemoteNodeWireErrorMapping is the transport-error taxonomy table:
// each failure shape must map onto the documented failover outcome,
// health consequence and trace span attribute.
func TestRemoteNodeWireErrorMapping(t *testing.T) {
	req := tupleRequest(1)

	t.Run("refused connection", func(t *testing.T) {
		col := newTracedCollector(t)
		// Bind a port, then close it: nothing listens there.
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		addr := ln.Addr().String()
		ln.Close()

		rn := NewRemoteNode("w0", addr, RemoteConfig{AttemptTimeout: 2 * time.Second})
		resp, err := rn.Submit(tracedCtx(t), resolved(t, req))
		if resp != nil {
			t.Fatalf("resp = %v, want nil", resp)
		}
		var te *TransportError
		if !errors.As(err, &te) || te.Kind != TransportRefused {
			t.Fatalf("err = %v, want TransportError{Refused}", err)
		}
		if !errors.Is(err, ErrNodeDown) {
			t.Fatalf("refused connection must map onto ErrNodeDown, got %v", err)
		}
		if !failoverWorthy(resp, err) {
			t.Fatal("refused connection must be failover-worthy")
		}
		if rn.Healthy() {
			t.Fatal("refused connection must mark the node down")
		}
		if got := rpcSpanAttr(col, "transport_error"); got != "refused" {
			t.Fatalf("span transport_error = %q, want refused", got)
		}
	})

	t.Run("mid-body reset", func(t *testing.T) {
		col := newTracedCollector(t)
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		defer ln.Close()
		go func() {
			for {
				c, err := ln.Accept()
				if err != nil {
					return
				}
				go func(c net.Conn) {
					// Read the request, answer headers + a partial body,
					// then RST: a worker crash mid-response.
					buf := make([]byte, 4096)
					_, _ = c.Read(buf)
					fmt.Fprintf(c, "HTTP/1.1 200 OK\r\nContent-Type: application/json\r\nContent-Length: 4096\r\n\r\n{\"id\":")
					if tc, ok := c.(*net.TCPConn); ok {
						_ = tc.SetLinger(0)
					}
					_ = c.Close()
				}(c)
			}
		}()

		rn := NewRemoteNode("w1", ln.Addr().String(), RemoteConfig{AttemptTimeout: 2 * time.Second})
		_, err = rn.Submit(tracedCtx(t), resolved(t, req))
		var te *TransportError
		if !errors.As(err, &te) {
			t.Fatalf("err = %v, want TransportError", err)
		}
		// Depending on write/RST timing the kernel reports ECONNRESET or a
		// short read; both lose the answer and both must fail over as
		// node-down.
		if te.Kind != TransportReset && te.Kind != TransportTruncated && te.Kind != TransportEOF {
			t.Fatalf("kind = %v, want reset/truncated/eof", te.Kind)
		}
		if !errors.Is(err, ErrNodeDown) && !errors.Is(err, ErrNodeSlow) {
			t.Fatalf("mid-body reset must map onto a failover sentinel, got %v", err)
		}
		if !failoverWorthy(nil, err) {
			t.Fatal("mid-body reset must be failover-worthy")
		}
		if got := rpcSpanAttr(col, "transport_error"); got == "" {
			t.Fatal("span missing transport_error attribute")
		}
	})

	t.Run("truncated JSON response", func(t *testing.T) {
		col := newTracedCollector(t)
		hs := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			// A complete, well-formed HTTP exchange whose body is half a
			// JSON document — what a netchaos TruncateAfter fault produces.
			w.Header().Set("Content-Type", "application/json")
			fmt.Fprint(w, `{"id":"x","assembly":"...`)
		}))
		defer hs.Close()

		rn := NewRemoteNode("w2", strings.TrimPrefix(hs.URL, "http://"), RemoteConfig{AttemptTimeout: 2 * time.Second})
		_, err := rn.Submit(tracedCtx(t), resolved(t, req))
		var te *TransportError
		if !errors.As(err, &te) || te.Kind != TransportTruncated {
			t.Fatalf("err = %v, want TransportError{Truncated}", err)
		}
		if !errors.Is(err, ErrNodeDown) {
			t.Fatalf("truncated body must fail over as node-down, got %v", err)
		}
		if !failoverWorthy(nil, err) {
			t.Fatal("truncated body must be failover-worthy")
		}
		// The process answered: routing fails over, but the health verdict
		// belongs to the prober — the node is NOT down-marked.
		if !rn.Healthy() {
			t.Fatal("truncated body must not mark the node down")
		}
		if got := rpcSpanAttr(col, "transport_error"); got != "truncated" {
			t.Fatalf("span transport_error = %q, want truncated", got)
		}
	})

	t.Run("503 with Retry-After", func(t *testing.T) {
		col := newTracedCollector(t)
		hs := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			w.Header().Set("Retry-After", "1")
			w.Header().Set("Content-Type", "application/json")
			w.WriteHeader(http.StatusServiceUnavailable)
			fmt.Fprint(w, `{"error":{"code":"overloaded","message":"queue full","retry_after_ms":250}}`)
		}))
		defer hs.Close()

		rn := NewRemoteNode("w3", strings.TrimPrefix(hs.URL, "http://"), RemoteConfig{AttemptTimeout: 2 * time.Second})
		resp, err := rn.Submit(tracedCtx(t), resolved(t, req))
		if resp != nil {
			t.Fatalf("resp = %v, want nil (rejected, never executed)", resp)
		}
		if !errors.Is(err, server.ErrOverloaded) {
			t.Fatalf("err = %v, want ErrOverloaded", err)
		}
		var oe *server.OverloadError
		if !errors.As(err, &oe) || oe.RetryAfter != 250*time.Millisecond {
			t.Fatalf("err = %v, want OverloadError{RetryAfter: 250ms}", err)
		}
		if !failoverWorthy(resp, err) {
			t.Fatal("remote overload must be failover-worthy")
		}
		if !rn.Healthy() {
			t.Fatal("an overloaded worker is alive: must not be down-marked")
		}
		if got := rpcSpanAttr(col, "node"); got != "w3" {
			t.Fatalf("span node = %q, want w3", got)
		}
	})
}

// TestRemoteNodeSlowNotKilled is the satellite-2 regression: a worker
// that exceeds the per-attempt budget but holds the connection open is
// slow, not dead — the outcome must map onto ErrNodeSlow (failover)
// without a down-mark.
func TestRemoteNodeSlowNotKilled(t *testing.T) {
	col := newTracedCollector(t)
	block := make(chan struct{})
	hs := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		select {
		case <-block:
		case <-r.Context().Done():
		}
	}))
	defer hs.Close()
	defer close(block) // before hs.Close, which waits for the handler

	rn := NewRemoteNode("slow", strings.TrimPrefix(hs.URL, "http://"), RemoteConfig{AttemptTimeout: 50 * time.Millisecond})
	_, err := rn.Submit(tracedCtx(t), resolved(t, tupleRequest(2)))
	var te *TransportError
	if !errors.As(err, &te) || te.Kind != TransportDeadline {
		t.Fatalf("err = %v, want TransportError{Deadline}", err)
	}
	if !errors.Is(err, ErrNodeSlow) {
		t.Fatalf("attempt deadline must map onto ErrNodeSlow, got %v", err)
	}
	if errors.Is(err, ErrNodeDown) {
		t.Fatal("a slow worker must NOT map onto ErrNodeDown")
	}
	if !failoverWorthy(nil, err) {
		t.Fatal("a slow worker must still be failover-worthy")
	}
	if !rn.Healthy() {
		t.Fatal("a slow worker must not be Kill-marked by the router")
	}
	if got := rpcSpanAttr(col, "transport_error"); got != "deadline" {
		t.Fatalf("span transport_error = %q, want deadline", got)
	}
	if got := server.ErrorCode(err); got != "node_slow" {
		t.Fatalf("ErrorCode = %q, want node_slow", got)
	}
}

// TestRemoteNodeCallerCancelNotNodeFailure: expiry of the CALLER's
// context during an RPC is the caller's outcome, not the node's — it
// must surface as the pipesched sentinel and must not fail over.
func TestRemoteNodeCallerCancelNotNodeFailure(t *testing.T) {
	block := make(chan struct{})
	hs := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		select {
		case <-block:
		case <-r.Context().Done():
		}
	}))
	defer hs.Close()
	defer close(block) // before hs.Close, which waits for the handler

	rn := NewRemoteNode("c", strings.TrimPrefix(hs.URL, "http://"), RemoteConfig{AttemptTimeout: 5 * time.Second})
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Millisecond)
	defer cancel()
	_, err := rn.Submit(ctx, resolved(t, tupleRequest(3)))
	if !errors.Is(err, pipesched.ErrDeadline) {
		t.Fatalf("err = %v, want pipesched.ErrDeadline", err)
	}
	if failoverWorthy(nil, err) {
		t.Fatal("caller deadline must not trigger failover")
	}
	if !rn.Healthy() {
		t.Fatal("caller deadline must not mark the node down")
	}
}

// TestRemoteNodeRoundTrip proves the wire-schedule reconstruction: a
// real compile served over HTTP comes back as a Compiled whose
// schedule sim-verifies.
func TestRemoteNodeRoundTrip(t *testing.T) {
	srv := server.New(testServerConfig())
	defer srv.Close()
	hs := httptest.NewServer(srv.Handler())
	defer hs.Close()

	rn := NewRemoteNode("rt", strings.TrimPrefix(hs.URL, "http://"), RemoteConfig{})
	resp, err := rn.Submit(context.Background(), resolved(t, tupleRequest(4)))
	if err != nil || resp == nil || resp.Compiled == nil {
		t.Fatalf("round trip: resp=%v err=%v", resp, err)
	}
	c := resp.Compiled
	if c.Original == nil || len(c.Order) == 0 {
		t.Fatalf("reconstructed Compiled missing schedule: %+v", c)
	}
	if c.Quality != pipesched.Optimal {
		t.Fatalf("quality = %v, want Optimal", c.Quality)
	}
	// Sim-verify the reconstructed schedule exactly as the soaks do.
	g, err := dag.Build(c.Original)
	if err != nil {
		t.Fatal(err)
	}
	m := machine.Presets()["simulation"]()
	res, err := sim.Run(sim.Input{Graph: g, M: m, Order: c.Order, Eta: c.Eta, Pipes: c.Pipes}, sim.NOPPadding)
	if err != nil {
		t.Fatalf("reconstructed schedule does not sim-verify: %v", err)
	}
	if res.Delays != c.TotalNOPs {
		t.Fatalf("sim delays = %d, wire said %d NOPs", res.Delays, c.TotalNOPs)
	}
}

// TestRemoteNodeSchedRoundTrip: scheduler-mode results must survive the
// client→server→wire→rebuild path with their mode identity, MAXLIVE and
// scoreboard issue ticks intact, and the rebuilt schedule must verify
// under the mode's own model — not just the in-order simulator.
func TestRemoteNodeSchedRoundTrip(t *testing.T) {
	srv := server.New(testServerConfig())
	defer srv.Close()
	hs := httptest.NewServer(srv.Handler())
	defer hs.Close()
	rn := NewRemoteNode("sched-rt", strings.TrimPrefix(hs.URL, "http://"), RemoteConfig{})
	m := machine.Presets()["simulation"]()

	t.Run("minreg-lex", func(t *testing.T) {
		req := tupleRequest(40)
		req.Options.Sched = "minreg-lex"
		resp, err := rn.Submit(context.Background(), resolved(t, req))
		if err != nil || resp == nil || resp.Compiled == nil {
			t.Fatalf("round trip: resp=%v err=%v", resp, err)
		}
		c := resp.Compiled
		if c.Sched.String() != "minreg-lex" {
			t.Fatalf("rebuilt mode = %s, want minreg-lex", c.Sched)
		}
		perm, err := c.Original.Permute(c.Order)
		if err != nil {
			t.Fatal(err)
		}
		if got := regalloc.Pressure(perm); got != c.MaxLive {
			t.Fatalf("wire MaxLive %d, independent re-derivation %d", c.MaxLive, got)
		}
	})

	t.Run("scoreboard", func(t *testing.T) {
		req := tupleRequest(41)
		req.Options.Sched = "scoreboard=4x2"
		resp, err := rn.Submit(context.Background(), resolved(t, req))
		if err != nil || resp == nil || resp.Compiled == nil {
			t.Fatalf("round trip: resp=%v err=%v", resp, err)
		}
		c := resp.Compiled
		if c.Sched.String() != "scoreboard=4x2" {
			t.Fatalf("rebuilt mode = %s, want scoreboard=4x2", c.Sched)
		}
		g, err := dag.Build(c.Original)
		if err != nil {
			t.Fatal(err)
		}
		in := sim.ScoreboardInput{
			Input:  sim.Input{Graph: g, M: m, Order: c.Order, Pipes: c.Pipes},
			Window: c.Sched.Window,
			Width:  c.Sched.Width,
		}
		if err := sim.VerifyScoreboard(in, c.IssueTicks, c.TotalNOPs); err != nil {
			t.Fatalf("rebuilt scoreboard schedule does not replay: %v", err)
		}
	})
}

// TestClampHedgeDelay is the satellite-1 unit table.
func TestClampHedgeDelay(t *testing.T) {
	now := time.Now()
	bg := context.Background()
	if d, ok := clampHedgeDelay(bg, 100*time.Millisecond, now); !ok || d != 100*time.Millisecond {
		t.Fatalf("no deadline: got (%v, %v), want (100ms, true)", d, ok)
	}
	mk := func(remaining time.Duration) context.Context {
		ctx, cancel := context.WithDeadline(bg, now.Add(remaining))
		t.Cleanup(cancel)
		return ctx
	}
	if _, ok := clampHedgeDelay(mk(50*time.Millisecond), 100*time.Millisecond, now); ok {
		t.Fatal("remaining < delay: hedge must be suppressed")
	}
	if _, ok := clampHedgeDelay(mk(100*time.Millisecond), 100*time.Millisecond, now); ok {
		t.Fatal("remaining == delay: hedge must be suppressed (no time to win)")
	}
	if d, ok := clampHedgeDelay(mk(500*time.Millisecond), 100*time.Millisecond, now); !ok || d != 100*time.Millisecond {
		t.Fatalf("ample remaining: got (%v, %v), want (100ms, true)", d, ok)
	}
}

// TestFleetHedgeSuppressedNearDeadline is the satellite-1 integration
// regression: a request arriving with less remaining deadline than the
// hedge delay must never launch a hedge — before the fix, the fixed
// 100ms fallback armed a timer the deadline could not outlive, and a
// doomed second attempt launched anyway under slow nodes.
func TestFleetHedgeSuppressedNearDeadline(t *testing.T) {
	// Every search stalls well past both the hedge delay and the caller
	// deadline, so absent the clamp the hedge timer WOULD fire.
	inj := faultinject.New().Seed(1).
		Plan(faultinject.Search, faultinject.Plan{Delay: 300 * time.Millisecond, Prob: 1})
	defer faultinject.Activate(inj)()

	f := newTestFleet(t, 3, Config{Replicas: 2, HedgeDelay: 50 * time.Millisecond})
	ctx, cancel := context.WithTimeout(context.Background(), 40*time.Millisecond)
	defer cancel()
	_, err := f.Submit(ctx, tupleRequest(5))
	if err == nil {
		t.Fatal("expected a deadline outcome")
	}
	if got := f.met.hedges.Value(); got != 0 {
		t.Fatalf("hedges = %d, want 0 (no time left for a hedge to win)", got)
	}

	// Control: with ample deadline the same stall DOES hedge. A fresh
	// fingerprint avoids deduping onto the abandoned first flight.
	ctx2, cancel2 := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel2()
	if resp, err := f.Submit(ctx2, tupleRequest(6)); err != nil && (resp == nil || resp.Compiled == nil) {
		// The stalled search still answers within its compile budget.
		t.Fatalf("control submit: %v", err)
	}
	if got := f.met.hedges.Value(); got == 0 {
		t.Fatal("control: hedge did not launch with ample deadline")
	}
}
