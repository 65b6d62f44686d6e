package main

import (
	"context"
	"encoding/json"
	"net/http"
	"strings"
	"testing"
	"time"
)

// TestRunFleetServeEndToEnd boots the fleet front door on an ephemeral
// port, compiles over HTTP, inspects membership, then cancels the
// context (the SIGTERM path) and expects a clean drain.
func TestRunFleetServeEndToEnd(t *testing.T) {
	ready := make(chan string, 1)
	fleetReady = func(addr string) { ready <- addr }
	defer func() { fleetReady = nil }()

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var stdout, stderr syncBuffer
	exit := make(chan int, 1)
	go func() {
		exit <- runFleet(ctx, []string{
			"-addr", "127.0.0.1:0", "-nodes", "2",
			"-cache-dir", t.TempDir(), "-drain-timeout", "5s",
		}, &stdout, &stderr)
	}()

	var addr string
	select {
	case addr = <-ready:
	case <-time.After(10 * time.Second):
		t.Fatal("fleet never became ready")
	}
	base := "http://" + addr

	body := `{"id":"f1","tuples":"demo:\n  1: Load #x\n  2: Load #y\n  3: Mul @1, @2\n  4: Store #z, @3","machine":{"preset":"simulation"}}`
	resp, err := http.Post(base+"/compile", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	var wire struct {
		ID       string `json:"id"`
		Assembly string `json:"assembly"`
		Quality  string `json:"quality"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&wire); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || wire.ID != "f1" || wire.Quality != "optimal" || wire.Assembly == "" {
		t.Fatalf("compile: status=%d wire=%+v", resp.StatusCode, wire)
	}

	fres, err := http.Get(base + "/fleet")
	if err != nil {
		t.Fatal(err)
	}
	var st struct {
		Nodes []struct {
			ID      string `json:"id"`
			Healthy bool   `json:"healthy"`
		} `json:"nodes"`
	}
	if err := json.NewDecoder(fres.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	fres.Body.Close()
	if len(st.Nodes) != 2 || !st.Nodes[0].Healthy || !st.Nodes[1].Healthy {
		t.Fatalf("fleet status = %+v", st)
	}

	for _, path := range []string{"/healthz", "/metrics"} {
		r, err := http.Get(base + path)
		if err != nil {
			t.Fatal(err)
		}
		r.Body.Close()
		if r.StatusCode != http.StatusOK {
			t.Fatalf("%s = %d", path, r.StatusCode)
		}
	}

	cancel()
	select {
	case code := <-exit:
		if code != 0 {
			t.Fatalf("exit = %d\nstderr: %s", code, stderr.String())
		}
	case <-time.After(15 * time.Second):
		t.Fatal("fleet never drained")
	}
	if !strings.Contains(stderr.String(), "drained cleanly") {
		t.Fatalf("stderr missing clean drain: %s", stderr.String())
	}
}
