package fleet

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"
	"time"

	"pipesched"
	"pipesched/internal/server"
	"pipesched/internal/telemetry"
)

// TestFleetWireCodesRoundTrip covers the fleet's rows of the one wire
// error table: each routing failure answers 503 under its own code and
// decodes back to an error matching its sentinel, even when it wraps a
// node's outcome that has a row of its own.
func TestFleetWireCodesRoundTrip(t *testing.T) {
	down := &TransportError{Node: "w0", Kind: TransportRefused, Err: errors.New("refused")}
	probes := []struct {
		code     string
		err      error
		sentinel error
	}{
		{"no_replicas", &NoReplicasError{Key: "k", Last: down}, ErrNoReplicas},
		{"node_down", down, ErrNodeDown},
		{"node_slow", &TransportError{Node: "w0", Kind: TransportDeadline, Err: context.DeadlineExceeded}, ErrNodeSlow},
	}
	hs := httptest.NewServer(server.Front{Submit: func(_ context.Context, req *server.Request) (*server.Response, error) {
		i, _ := strconv.Atoi(req.ID)
		return nil, probes[i].err
	}})
	defer hs.Close()
	for i, p := range probes {
		res, err := http.Post(hs.URL+"/compile", "application/json", strings.NewReader(fmt.Sprintf(`{"id":"%d"}`, i)))
		if err != nil {
			t.Fatal(err)
		}
		raw, err := io.ReadAll(res.Body)
		res.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		resp, derr := server.DecodeResponse(raw)
		if res.StatusCode != http.StatusServiceUnavailable || resp != nil || !errors.Is(derr, p.sentinel) {
			t.Errorf("%s: status %d, decoded (%v, %v); want 503 and a rejection matching its sentinel", p.code, res.StatusCode, resp, derr)
		}
		if got := server.ErrorCode(derr); got != p.code {
			t.Errorf("%s: decoded error re-encodes as %q", p.code, got)
		}
		if got := server.HTTPStatus(nil, derr); got != http.StatusServiceUnavailable {
			t.Errorf("%s: decoded error maps to status %d, want 503", p.code, got)
		}
	}
}

// TestFleetInfeasibleRoundTrip: a minreg-k bound that admits no
// schedule answers 422 infeasible through the fleet front door, and the
// client decodes it back to ErrInfeasible.
func TestFleetInfeasibleRoundTrip(t *testing.T) {
	f := newTestFleet(t, 2, Config{})
	front := httptest.NewServer(f.Handler())
	defer front.Close()
	req := &server.Request{
		Tuples:  "1: Load #b\n2: Load #c\n3: Mul @1, @2\n4: Store #a, @3",
		Machine: server.MachineSpec{Preset: "simulation"},
		Options: server.RequestOptions{Sched: "minreg-k=1"},
	}
	resp, err := (&server.Client{URL: front.URL}).Submit(context.Background(), req)
	if resp != nil || !errors.Is(err, pipesched.ErrInfeasible) {
		t.Fatalf("Submit = (%v, %v), want a rejection matching ErrInfeasible", resp, err)
	}
	if code, status := server.ErrorCode(err), server.HTTPStatus(nil, err); code != "infeasible" || status != http.StatusUnprocessableEntity {
		t.Errorf("decoded error maps to %q/%d, want infeasible/422", code, status)
	}
}

// TestFleetRelaysUnknownCode: a worker code the fleet has no row for
// passes through the fleet front door unchanged instead of collapsing
// to "error".
func TestFleetRelaysUnknownCode(t *testing.T) {
	worker := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(http.StatusInternalServerError)
		fmt.Fprint(w, `{"error":{"code":"quota_exceeded","message":"over quota"}}`)
	}))
	defer worker.Close()
	f := New(Config{Replicas: 1})
	t.Cleanup(f.Close)
	f.AddBackend(NewRemoteNode("w0", strings.TrimPrefix(worker.URL, "http://"), RemoteConfig{AttemptTimeout: 2 * time.Second}))
	front := httptest.NewServer(f.Handler())
	defer front.Close()

	resp, err := (&server.Client{URL: front.URL}).Submit(context.Background(), tupleRequest(1))
	var wf *server.WireFailure
	if resp != nil || !errors.As(err, &wf) || wf.Code != "quota_exceeded" {
		t.Fatalf("(%v, %v), want a WireFailure keeping code quota_exceeded", resp, err)
	}
}

// TestFleetFailsOverOnEmptyAnswer: a worker answer carrying neither a
// schedule nor an error is malformed. The remote node reports it as a
// truncated transport failure without down-marking the worker, and the
// router takes the next replica's answer instead of returning nothing.
func TestFleetFailsOverOnEmptyAnswer(t *testing.T) {
	empty := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		fmt.Fprint(w, `{"nops":0}`)
	}))
	defer empty.Close()
	srv := server.New(testServerConfig())
	defer srv.Close()
	good := httptest.NewServer(srv.Handler())
	defer good.Close()

	req := tupleRequest(7)
	key, err := server.Fingerprint(req)
	if err != nil {
		t.Fatal(err)
	}
	// No probes during the test: the real worker has no /workerz.
	f := New(Config{Replicas: 2, ProbeInterval: time.Hour, Metrics: telemetry.NewMetrics(telemetry.NewRegistry())})
	t.Cleanup(f.Close)
	a, b := NewRemoteNode("a", "", RemoteConfig{}), NewRemoteNode("b", "", RemoteConfig{})
	f.AddBackend(a)
	f.AddBackend(b)
	primary, secondary := a, b
	if f.ring.primary(key) == "b" {
		primary, secondary = b, a
	}
	primary.SetTarget(strings.TrimPrefix(empty.URL, "http://"))
	secondary.SetTarget(strings.TrimPrefix(good.URL, "http://"))

	resp, err := f.Submit(context.Background(), req)
	if err != nil || resp == nil || resp.Compiled == nil {
		t.Fatalf("Submit = (%v, %v), want the next replica's schedule", resp, err)
	}
	if got := f.met.failovers.Value(); got != 1 {
		t.Errorf("failovers = %d, want 1", got)
	}
	if !primary.Healthy() {
		t.Error("an empty answer must not down-mark the worker: it did answer")
	}

	_, err = primary.Submit(context.Background(), resolved(t, req))
	var te *TransportError
	if !errors.As(err, &te) || te.Kind != TransportTruncated || !errors.Is(err, server.ErrMalformedResponse) {
		t.Fatalf("empty answer: err = %v, want a truncated TransportError", err)
	}
}
