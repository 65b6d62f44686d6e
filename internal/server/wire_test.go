package server

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"slices"
	"strconv"
	"strings"
	"testing"
	"time"

	"pipesched"
)

// TestWireErrorTableRoundTrip drives every row of the wire error table,
// plus the stage-failure and unknown-code carriers, through the front
// door and back through the one decoder. Each answer must keep the HTTP
// status the code had before the table existed, decode to an error
// matching the code's sentinel with the same code and status, and keep
// its retry hint.
func TestWireErrorTableRoundTrip(t *testing.T) {
	wantStatus := map[string]int{
		"overloaded": 503, "draining": 503, "invalid_request": 400, "infeasible": 422, "internal": 500,
		"curtailed": 500, "deadline": 504, "canceled": 499,
		"stage_failure": 500, "quota_exceeded": 500,
	}
	type probe struct {
		code string
		err  error
		is   func(error) bool
	}
	// A code decodes to the sentinel of the first row naming it: the
	// three invalid_request rows all come back as ErrInvalidRequest.
	decoded := map[string]error{}
	var probes []probe
	for _, r := range codes {
		if decoded[r.code] == nil {
			decoded[r.code] = r.sentinel
		}
		err := fmt.Errorf("%w: probe", r.sentinel)
		if r.code == "overloaded" {
			err = &OverloadError{Reason: "queue full", RetryAfter: 1500 * time.Millisecond}
		}
		sentinel := decoded[r.code]
		probes = append(probes, probe{r.code, err, func(e error) bool { return errors.Is(e, sentinel) }})
	}
	probes = append(probes,
		probe{"stage_failure", &pipesched.StageError{Stage: "search", Err: errors.New("boom")}, func(e error) bool {
			var se *pipesched.StageError
			return errors.As(e, &se)
		}},
		probe{"quota_exceeded", &WireFailure{Code: "quota_exceeded", Message: "over quota"}, func(e error) bool {
			var wf *WireFailure
			return errors.As(e, &wf) && wf.Code == "quota_exceeded"
		}},
	)

	// The stub answers request i with probe i's error; the slice is
	// read-only once the server starts.
	hs := httptest.NewServer(Front{Submit: func(_ context.Context, req *Request) (*Response, error) {
		i, _ := strconv.Atoi(req.ID)
		return nil, probes[i].err
	}})
	defer hs.Close()

	for i, p := range probes {
		want, ok := wantStatus[p.code]
		if !ok {
			t.Errorf("code %q has no pinned status", p.code)
			continue
		}
		res, err := http.Post(hs.URL+"/compile", "application/json", strings.NewReader(fmt.Sprintf(`{"id":"%d"}`, i)))
		if err != nil {
			t.Fatal(err)
		}
		raw, err := io.ReadAll(res.Body)
		res.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		if res.StatusCode != want {
			t.Errorf("%s: status %d, want %d", p.code, res.StatusCode, want)
		}
		resp, derr := DecodeResponse(raw)
		if resp != nil || !p.is(derr) {
			t.Errorf("%s: decoded (%v, %v), want a rejection matching the row", p.code, resp, derr)
		}
		if got := ErrorCode(derr); got != p.code {
			t.Errorf("%s: decoded error re-encodes as %q", p.code, got)
		}
		if got := HTTPStatus(nil, derr); got != want {
			t.Errorf("%s: decoded error maps to status %d, want %d", p.code, got, want)
		}
		if p.code == "overloaded" {
			var oe *OverloadError
			if res.Header.Get("Retry-After") != "2" || !errors.As(derr, &oe) || oe.RetryAfter != 1500*time.Millisecond {
				t.Errorf("overloaded: Retry-After %q, decoded %v; want 2 and a 1.5s retry hint", res.Header.Get("Retry-After"), derr)
			}
		}
	}
}

// TestDecodeResponseRejectsMalformed: a body that is not a whole answer
// never decodes to (nil, nil) — the Submit contract has no such outcome.
func TestDecodeResponseRejectsMalformed(t *testing.T) {
	for name, body := range map[string]string{
		"truncated":  `{"id":"x","assembly":"...`,
		"empty":      `{"nops":0}`,
		"bad tuples": `{"quality":"optimal","schedule":{"tuples":"1: Frob","order":[0],"eta":[0],"pipes":[0]}}`,
	} {
		resp, err := DecodeResponse([]byte(body))
		if resp != nil || !errors.Is(err, ErrMalformedResponse) {
			t.Errorf("%s: (%v, %v), want ErrMalformedResponse", name, resp, err)
		}
	}
}

// TestClientSubmitRoundTrip: the HTTP client returns what the server's
// Submit returns, with a Compiled rebuilt from the wire schedule.
func TestClientSubmitRoundTrip(t *testing.T) {
	s := newTestServer(t, testConfig())
	hs := httptest.NewServer(s.Handler())
	defer hs.Close()
	req := schedRequest(7, "scoreboard=4x2")
	want, err := s.Submit(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	got, err := (&Client{URL: hs.URL}).Submit(context.Background(), req)
	if err != nil || got == nil || got.Compiled == nil {
		t.Fatalf("client submit: (%v, %v)", got, err)
	}
	if !got.Cached {
		t.Error("second submit of the same request missed the cache")
	}
	w, c := want.Compiled, got.Compiled
	if c.TotalNOPs != w.TotalNOPs || c.Ticks != w.Ticks || c.Sched != w.Sched ||
		!slices.Equal(c.Order, w.Order) || !slices.Equal(c.IssueTicks, w.IssueTicks) || c.Original.String() != w.Original.String() {
		t.Errorf("rebuilt Compiled differs: got %+v, want %+v", c, w)
	}
}
