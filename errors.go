package pipesched

import (
	"context"
	"errors"
	"fmt"

	"pipesched/internal/core"
	"pipesched/internal/ir"
	"pipesched/internal/machine"
)

// Quality names the rung of the degradation ladder a compilation landed
// on. Every rung yields a legal, NOP-padded schedule; only the top rung
// carries an optimality proof. The ladder, from best to worst:
//
//	Optimal   → the branch-and-bound search ran to completion
//	Incumbent → the search stopped early (λ, deadline or cancellation)
//	            and returned the best complete schedule found so far —
//	            never worse than the list-schedule seed
//	Heuristic → the search stage itself failed; the list-schedule seed
//	            was priced by the NOP-insertion analysis and returned
//	Baseline  → even the DAG or seed was unavailable; the block runs in
//	            program order with conservative full-drain NOP padding
type Quality int

// The degradation-ladder rungs, best first.
const (
	Optimal Quality = iota
	Incumbent
	Heuristic
	Baseline
)

// String names the rung.
func (q Quality) String() string {
	switch q {
	case Optimal:
		return "optimal"
	case Incumbent:
		return "incumbent"
	case Heuristic:
		return "heuristic"
	case Baseline:
		return "baseline"
	}
	return fmt.Sprintf("Quality(%d)", int(q))
}

// Degraded reports whether the rung is below Optimal.
func (q Quality) Degraded() bool { return q != Optimal }

// ParseQuality is the inverse of Quality.String, for decoding a rung
// that traveled over the wire. Unknown names report an error and the
// most conservative rung.
func ParseQuality(s string) (Quality, error) {
	switch s {
	case "optimal":
		return Optimal, nil
	case "incumbent":
		return Incumbent, nil
	case "heuristic":
		return Heuristic, nil
	case "baseline":
		return Baseline, nil
	}
	return Baseline, fmt.Errorf("pipesched: unknown quality %q", s)
}

// Typed sentinel errors, usable with errors.Is. ErrCurtailed, ErrDeadline
// and ErrCanceled are *degradation* signals: the *Ctx entry points return
// them ALONGSIDE a valid, legal Compiled result (anytime semantics) —
// check the result for nil before treating the error as fatal.
// ErrDeadline and ErrCanceled additionally match the underlying
// context.DeadlineExceeded / context.Canceled through errors.Is.
var (
	// ErrCurtailed: the search hit the curtail point λ and returned the
	// best incumbent without an optimality proof (the paper's rule [2]).
	ErrCurtailed = errors.New("pipesched: search curtailed by λ")
	// ErrDeadline: the context's deadline expired; the best schedule
	// found within the budget was returned.
	ErrDeadline = errors.New("pipesched: deadline exceeded")
	// ErrCanceled: the context was canceled; the best schedule found
	// before cancellation was returned.
	ErrCanceled = errors.New("pipesched: compilation canceled")
	// ErrInvalidMachine wraps every structurally-invalid machine
	// description error (see machine.Validate). Invalid scheduler-mode
	// parameters (Options.Sched) are part of the same family.
	ErrInvalidMachine = machine.ErrInvalid
	// ErrInvalidBlock wraps every structurally-invalid tuple block error
	// (see ir.Block.Validate).
	ErrInvalidBlock = ir.ErrInvalidBlock
	// ErrInvalidSource wraps every frontend error of a source program
	// that does not parse or lower to a tuple block (see CompileCtx and
	// CompileSequenceCtx).
	ErrInvalidSource = errors.New("pipesched: invalid source program")
	// ErrInfeasible: the minreg-k mode's register-pressure bound admits no
	// legal schedule of the block; the completed search is the proof.
	// Unlike the degradation sentinels above it accompanies a nil result —
	// there is no schedule to return.
	ErrInfeasible = core.ErrInfeasible
	// ErrModeUnsupported: the selected scheduler mode is not supported by
	// this entry point (ScheduleLarge supports the paper mode only; the
	// sequence entry points cannot thread pipeline state through the
	// scoreboard model).
	ErrModeUnsupported = errors.New("pipesched: scheduler mode not supported by this entry point")
)

// StageError reports a failure isolated at one pipeline-stage boundary:
// a panic converted into an error, or a fault injected by
// internal/faultinject. Recoverable stage failures are also collected in
// Compiled.Faults; a StageError returned with a nil Compiled is a hard
// failure.
type StageError struct {
	Stage string // "frontend", "opt", "dag", "search", "regalloc", "codegen"
	Block string // block label, "" when unknown
	Panic any    // recovered panic value; nil for ordinary failures
	Err   error  // underlying error; nil for pure panics
	Stack []byte // stack captured at panic recovery; nil otherwise
}

// Error renders the stage, block and cause.
func (e *StageError) Error() string {
	where := e.Stage
	if e.Block != "" {
		where += " (block " + e.Block + ")"
	}
	if e.Panic != nil {
		return fmt.Sprintf("pipesched: stage %s panicked: %v", where, e.Panic)
	}
	return fmt.Sprintf("pipesched: stage %s failed: %v", where, e.Err)
}

// Unwrap exposes the underlying error for errors.Is/errors.As.
func (e *StageError) Unwrap() error { return e.Err }

// stopError maps a search stop reason (core.ErrBudget or a context
// error) onto the public sentinel taxonomy. A nil reason maps to nil.
func stopError(stopped error) error {
	switch {
	case stopped == nil:
		return nil
	case errors.Is(stopped, context.DeadlineExceeded):
		return fmt.Errorf("%w (best incumbent returned): %w", ErrDeadline, stopped)
	case errors.Is(stopped, context.Canceled):
		return fmt.Errorf("%w (best incumbent returned): %w", ErrCanceled, stopped)
	case errors.Is(stopped, core.ErrBudget):
		return fmt.Errorf("%w (best incumbent returned): %w", ErrCurtailed, stopped)
	default:
		return fmt.Errorf("%w (best incumbent returned): %w", ErrCurtailed, stopped)
	}
}

// degradationError picks the error a *Ctx entry point reports alongside
// a legal-but-degraded result: the search stop reason when there is one,
// otherwise the first recovered stage fault.
func degradationError(stopped error, faults []*StageError) error {
	if err := stopError(stopped); err != nil {
		return err
	}
	if len(faults) > 0 {
		return faults[0]
	}
	return nil
}
