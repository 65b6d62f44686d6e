package server

import (
	"errors"
	"fmt"
	"net/http"
	"slices"
	"time"

	"pipesched"
)

// Typed sentinel errors of the service layer, usable with errors.Is.
// Together with the pipesched sentinels (ErrCurtailed, ErrDeadline,
// ErrCanceled, ErrInvalidMachine, ErrInvalidBlock, ErrInvalidSource,
// ErrInfeasible, *StageError) they form the complete failure taxonomy
// of the compile service: every Submit call terminates with a legal
// schedule, one of these, or both (anytime semantics — a degraded
// result travels WITH its reason).
var (
	// ErrOverloaded: admission control rejected the request — the queue
	// is full, or the observed p95 queue wait already exceeds the
	// request's compile budget so queueing it could only waste capacity.
	// Wrapped in an *OverloadError carrying the suggested retry delay.
	ErrOverloaded = errors.New("server: overloaded")
	// ErrDraining: the server is shutting down and no longer admits work.
	ErrDraining = errors.New("server: draining, not admitting requests")
	// ErrInvalidRequest wraps malformed requests: no input, both source
	// and tuples, an unknown machine preset, or an unparsable machine
	// description or tuple block.
	ErrInvalidRequest = errors.New("server: invalid request")
	// ErrInternal: a panic escaped the compilation pipeline's own stage
	// isolation and was caught by the worker's last-resort recover.
	ErrInternal = errors.New("server: internal error")
)

// OverloadError is the concrete error behind ErrOverloaded; RetryAfter
// is the server's estimate of when capacity will free up (the observed
// p95 queue wait), surfaced as the HTTP Retry-After header.
type OverloadError struct {
	Reason     string // "queue full" | "deadline cannot cover queue wait"
	RetryAfter time.Duration
}

// Error renders the reason and the suggested retry delay.
func (e *OverloadError) Error() string {
	return fmt.Sprintf("%v: %s (retry after %s)", ErrOverloaded, e.Reason, e.RetryAfter)
}

// Unwrap makes errors.Is(err, ErrOverloaded) hold.
func (e *OverloadError) Unwrap() error { return ErrOverloaded }

// WireFailure carries a wire error code this side has no row for, so
// the code round-trips through a routing tier instead of collapsing to
// "error".
type WireFailure struct {
	Code    string
	Message string
}

func (e *WireFailure) Error() string {
	return fmt.Sprintf("remote %s: %s", e.Code, e.Message)
}

// codeRow is one entry of the wire error table: the stable code, the
// sentinel an error matches it by under errors.Is, and the HTTP status
// of a rejection carrying it.
type codeRow struct {
	code     string
	sentinel error
	status   int
}

// codes is the one wire error table. ErrorCode encodes an error as the
// code of the first row it matches, HTTPStatus answers a rejection with
// that row's status, and decodeError turns a code back into an error
// matching the first row that names it. Rows a routing tier registers
// go first: its failures wrap the last node's outcome, and the routing
// code must win.
var codes = []codeRow{
	{"overloaded", ErrOverloaded, http.StatusServiceUnavailable},
	{"draining", ErrDraining, http.StatusServiceUnavailable},
	{"invalid_request", ErrInvalidRequest, http.StatusBadRequest},
	{"invalid_request", pipesched.ErrInvalidMachine, http.StatusBadRequest},
	{"invalid_request", pipesched.ErrInvalidBlock, http.StatusBadRequest},
	{"invalid_request", pipesched.ErrInvalidSource, http.StatusBadRequest},
	{"infeasible", pipesched.ErrInfeasible, http.StatusUnprocessableEntity},
	{"internal", ErrInternal, http.StatusInternalServerError},
	{"curtailed", pipesched.ErrCurtailed, http.StatusInternalServerError},
	{"deadline", pipesched.ErrDeadline, http.StatusGatewayTimeout},
	{"canceled", pipesched.ErrCanceled, 499}, // client closed request (nginx convention)
}

// routed counts the registered rows at the front of codes.
var routed int

// RegisterCode adds a routing tier's row to the wire error table, after
// the rows registered before it and ahead of the service's own. Call it
// only from a package init.
func RegisterCode(code string, sentinel error, status int) {
	codes = slices.Insert(codes, routed, codeRow{code, sentinel, status})
	routed++
}

// rowOf returns the first table row err matches, or nil.
func rowOf(err error) *codeRow {
	for i := range codes {
		if errors.Is(err, codes[i].sentinel) {
			return &codes[i]
		}
	}
	return nil
}

// ErrorCode maps any error of the service taxonomy onto a stable wire
// code for the JSON API (and "" for nil). A relayed code with no row
// passes through; other unknown errors map to "error".
func ErrorCode(err error) string {
	if err == nil {
		return ""
	}
	if r := rowOf(err); r != nil {
		return r.code
	}
	var wf *WireFailure
	var se *pipesched.StageError
	switch {
	case errors.As(err, &wf):
		return wf.Code
	case errors.As(err, &se):
		return "stage_failure"
	}
	return "error"
}

// HTTPStatus maps one outcome onto an HTTP status for the single-
// request endpoint. Degraded-but-legal results are 200: the caller got
// a schedule; the error field explains the rung.
func HTTPStatus(resp *Response, err error) int {
	if err == nil || (resp != nil && resp.Compiled != nil) {
		return http.StatusOK
	}
	if r := rowOf(err); r != nil {
		return r.status
	}
	return http.StatusInternalServerError
}

// decodeError turns a wire error back into the typed taxonomy, so
// errors.Is and errors.As work identically on both sides of the wire.
func decodeError(we *WireError) error {
	switch {
	case we == nil || we.Code == "":
		return nil
	case we.Code == "overloaded":
		return &OverloadError{Reason: we.Message, RetryAfter: time.Duration(we.RetryAfterMS) * time.Millisecond}
	case we.Code == "stage_failure":
		return &pipesched.StageError{Stage: "remote", Err: errors.New(we.Message)}
	}
	for _, r := range codes {
		if r.code == we.Code {
			return fmt.Errorf("%w (remote): %s", r.sentinel, we.Message)
		}
	}
	return &WireFailure{Code: we.Code, Message: we.Message}
}
