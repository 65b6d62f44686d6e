package fleet

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"pipesched/internal/server"
)

func TestFleetHandlerCompileAndHealth(t *testing.T) {
	f := newTestFleet(t, 2, Config{})
	ts := httptest.NewServer(f.Handler())
	defer ts.Close()

	// Single request round-trips through the router.
	body := `{"tuples": "b:\n  1: Load #x\n  2: Add @1, @1\n  3: Store #y, @2", "machine": {"preset": "simulation"}}`
	res, err := http.Post(ts.URL+"/compile", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer res.Body.Close()
	if res.StatusCode != http.StatusOK {
		t.Fatalf("status = %d", res.StatusCode)
	}
	var wire server.WireResponse
	if err := json.NewDecoder(res.Body).Decode(&wire); err != nil {
		t.Fatal(err)
	}
	if wire.Assembly == "" || wire.Error != nil {
		t.Fatalf("wire = %+v", wire)
	}

	// Batch: per-item outcomes, always 200.
	batch := `{"requests": [` + body + `, {"machine": {"preset": "simulation"}}]}`
	res2, err := http.Post(ts.URL+"/compile", "application/json", strings.NewReader(batch))
	if err != nil {
		t.Fatal(err)
	}
	defer res2.Body.Close()
	if res2.StatusCode != http.StatusOK {
		t.Fatalf("batch status = %d", res2.StatusCode)
	}
	var out struct {
		Responses []*server.WireResponse `json:"responses"`
	}
	if err := json.NewDecoder(res2.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	if len(out.Responses) != 2 {
		t.Fatalf("batch responses = %d", len(out.Responses))
	}
	if out.Responses[0].Error != nil {
		t.Errorf("valid batch item failed: %+v", out.Responses[0].Error)
	}
	if out.Responses[1].Error == nil || out.Responses[1].Error.Code != "invalid_request" {
		t.Errorf("invalid batch item error = %+v", out.Responses[1].Error)
	}

	// Health and membership.
	hres, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	hres.Body.Close()
	if hres.StatusCode != http.StatusOK {
		t.Fatalf("healthz = %d", hres.StatusCode)
	}
	fres, err := http.Get(ts.URL + "/fleet")
	if err != nil {
		t.Fatal(err)
	}
	defer fres.Body.Close()
	var st fleetStatus
	if err := json.NewDecoder(fres.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	if len(st.Nodes) != 2 {
		t.Fatalf("fleet status nodes = %+v", st.Nodes)
	}
}

func TestFleetHandlerAllNodesDown(t *testing.T) {
	f := newTestFleet(t, 2, Config{})
	ts := httptest.NewServer(f.Handler())
	defer ts.Close()
	f.Node("node-0").Kill()
	f.Node("node-1").Kill()

	hres, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	hres.Body.Close()
	if hres.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("healthz with dead fleet = %d, want 503", hres.StatusCode)
	}

	body := `{"tuples": "b:\n  1: Load #x\n  2: Store #y, @1", "machine": {"preset": "simulation"}}`
	res, err := http.Post(ts.URL+"/compile", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer res.Body.Close()
	if res.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("compile with dead fleet = %d, want 503", res.StatusCode)
	}
	var wire server.WireResponse
	if err := json.NewDecoder(res.Body).Decode(&wire); err != nil {
		t.Fatal(err)
	}
	if wire.Error == nil || wire.Error.Code != "no_replicas" {
		t.Fatalf("wire error = %+v, want no_replicas", wire.Error)
	}
}

// TestFleetHandlerAllNodesOverloaded overloads both nodes of a 2-node
// fleet: the front door answers 503 no_replicas carrying the last
// replica's retry hint, as a Retry-After header on a single request and
// as retry_after_ms on the wire error of a single and a batch item —
// the same hint a lone overloaded server gives.
func TestFleetHandlerAllNodesOverloaded(t *testing.T) {
	f := New(Config{})
	t.Cleanup(f.Close)
	for _, id := range []string{"w0", "w1"} {
		hs := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			w.Header().Set("Retry-After", "2")
			w.Header().Set("Content-Type", "application/json")
			w.WriteHeader(http.StatusServiceUnavailable)
			fmt.Fprint(w, `{"error":{"code":"overloaded","message":"queue full","retry_after_ms":1500}}`)
		}))
		t.Cleanup(hs.Close)
		f.AddBackend(NewRemoteNode(id, strings.TrimPrefix(hs.URL, "http://"), RemoteConfig{AttemptTimeout: 2 * time.Second}))
	}
	ts := httptest.NewServer(f.Handler())
	defer ts.Close()

	body := `{"tuples": "b:\n  1: Load #x\n  2: Store #y, @1", "machine": {"preset": "simulation"}}`
	res, err := http.Post(ts.URL+"/compile", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer res.Body.Close()
	if res.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("status = %d, want 503", res.StatusCode)
	}
	if got := res.Header.Get("Retry-After"); got != "2" {
		t.Errorf("Retry-After = %q, want 2 (1.5s rounded up)", got)
	}
	var wire server.WireResponse
	if err := json.NewDecoder(res.Body).Decode(&wire); err != nil {
		t.Fatal(err)
	}
	if wire.Error == nil || wire.Error.Code != "no_replicas" || wire.Error.RetryAfterMS != 1500 {
		t.Fatalf("wire error = %+v, want no_replicas with retry_after_ms 1500", wire.Error)
	}

	res2, err := http.Post(ts.URL+"/compile", "application/json", strings.NewReader(`{"requests": [`+body+`]}`))
	if err != nil {
		t.Fatal(err)
	}
	defer res2.Body.Close()
	var out struct {
		Responses []*server.WireResponse `json:"responses"`
	}
	if err := json.NewDecoder(res2.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	if len(out.Responses) != 1 || out.Responses[0].Error == nil ||
		out.Responses[0].Error.Code != "no_replicas" || out.Responses[0].Error.RetryAfterMS != 1500 {
		t.Fatalf("batch item = %+v, want no_replicas with retry_after_ms 1500", out.Responses)
	}
}
