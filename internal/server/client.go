package server

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strings"

	"pipesched"
	"pipesched/internal/telemetry"
)

// maxAnswerBytes bounds one /compile answer a Client reads.
const maxAnswerBytes = 64 << 20

// ErrMalformedResponse marks a /compile answer that carries no whole
// outcome: undecodable JSON, a schedule that does not parse back, or
// neither a schedule nor an error.
var ErrMalformedResponse = errors.New("server: malformed /compile answer")

// DecodeResponse is the one decoder of a /compile wire answer, the
// inverse of the front door's writer. It returns the outcome in
// Submit's shape: a Response whose Compiled is rebuilt from the wire
// schedule, so it can be sim-verified, with any typed degradation error
// beside it; or (nil, err) for a rejection. A body that is not a whole
// answer returns an error matching ErrMalformedResponse.
func DecodeResponse(raw []byte) (*Response, error) {
	var wire WireResponse
	if err := json.Unmarshal(raw, &wire); err != nil {
		return nil, fmt.Errorf("%w: decode %d-byte body: %w", ErrMalformedResponse, len(raw), err)
	}
	serr := decodeError(wire.Error)
	s := wire.Schedule
	switch {
	case s == nil && serr == nil:
		return nil, fmt.Errorf("%w: neither a schedule nor an error", ErrMalformedResponse)
	case s == nil:
		// A pure rejection (overload, draining, invalid, …): the Submit
		// contract reports it as (nil, err) — never executed.
		return nil, serr
	}
	blk, err := pipesched.ParseBlock(s.Tuples)
	if err != nil {
		return nil, fmt.Errorf("%w: wire schedule tuples: %w", ErrMalformedResponse, err)
	}
	q, err := pipesched.ParseQuality(wire.Quality)
	if err != nil {
		return nil, fmt.Errorf("%w: wire schedule: %w", ErrMalformedResponse, err)
	}
	sched, err := pipesched.ParseSchedMode(wire.Sched)
	if err != nil {
		return nil, fmt.Errorf("%w: wire schedule: %w", ErrMalformedResponse, err)
	}
	return &Response{
		ID: wire.ID,
		Compiled: &pipesched.Compiled{
			Original:   blk,
			Order:      s.Order,
			Eta:        s.Eta,
			Pipes:      s.Pipes,
			TotalNOPs:  wire.NOPs,
			Ticks:      wire.Ticks,
			Optimal:    wire.Optimal,
			Gap:        wire.Gap,
			RootLB:     wire.RootLB,
			Quality:    q,
			Assembly:   wire.Assembly,
			Sched:      sched,
			MaxLive:    wire.MaxLive,
			IssueTicks: s.IssueTicks,
		},
		Err:      serr,
		Cached:   wire.Cached,
		DiskHit:  wire.DiskHit,
		Deduped:  wire.Deduped,
		FastPath: wire.FastPath,
		Retries:  wire.Retries,
	}, serr
}

// Client is the one /compile client of a server or fleet front door.
// Its Submit keeps the Server's contract, so callers over the wire get
// the same errors.Is-typed outcomes as callers in process.
type Client struct {
	URL  string       // front-door base URL, e.g. "http://127.0.0.1:8080"
	HTTP *http.Client // nil = http.DefaultClient
}

// Submit posts one request and decodes the answer.
func (c *Client) Submit(ctx context.Context, req *Request) (*Response, error) {
	_, raw, err := c.Post(ctx, req)
	if err != nil {
		return nil, err
	}
	return DecodeResponse(raw)
}

// Post sends one request and returns the answer's header and bounded
// body. The trace on ctx, if any, travels in the TraceHeader. An error
// is a failure to encode the request (matching ErrInvalidRequest) or a
// transport failure; the header survives a failed body read.
func (c *Client) Post(ctx context.Context, req *Request) (http.Header, []byte, error) {
	body, err := json.Marshal(req)
	if err != nil {
		return nil, nil, fmt.Errorf("%w: encode request: %w", ErrInvalidRequest, err)
	}
	hreq, err := http.NewRequestWithContext(ctx, http.MethodPost, strings.TrimRight(c.URL, "/")+"/compile", bytes.NewReader(body))
	if err != nil {
		return nil, nil, fmt.Errorf("%w: build request: %w", ErrInvalidRequest, err)
	}
	hreq.Header.Set("Content-Type", "application/json")
	if tc := telemetry.TraceContextOf(ctx); tc.Valid() {
		telemetry.InjectTrace(hreq.Header, tc)
	}
	hc := c.HTTP
	if hc == nil {
		hc = http.DefaultClient
	}
	hresp, err := hc.Do(hreq)
	if err != nil {
		return nil, nil, err
	}
	defer hresp.Body.Close()
	raw, err := io.ReadAll(io.LimitReader(hresp.Body, maxAnswerBytes))
	return hresp.Header, raw, err
}
