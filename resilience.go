// Resilience layer: context-aware entry points, panic isolation at every
// stage boundary, and the graceful degradation ladder.
//
// The *Ctx entry points never trade legality for speed. When the search
// is cut short — by the curtail point λ, a context deadline, or explicit
// cancellation — or when a whole stage fails (panics, or is forced to
// fail by internal/faultinject), the compilation steps down a ladder:
//
//	Optimal   → branch-and-bound completed; the schedule is provably best
//	Incumbent → search stopped early; best complete schedule found so far
//	Heuristic → search stage failed; list-schedule seed priced by the
//	            NOP-insertion analysis
//	Baseline  → even the DAG was unavailable; program order with
//	            conservative full-drain NOP padding
//
// Every rung yields a legal, hazard-free schedule (re-verified by the
// independent simulator whenever a dependence graph exists). A degraded
// result is returned TOGETHER with a typed error (ErrCurtailed,
// ErrDeadline, ErrCanceled, or a *StageError) so callers can both use
// the schedule and observe why it is not optimal. Only the frontend is
// unrecoverable: with no tuples there is nothing to schedule, so a
// frontend fault is a hard *StageError with a nil result.
package pipesched

import (
	"context"
	"fmt"
	"runtime/debug"
	"strconv"
	"sync/atomic"
	"time"

	"pipesched/internal/bound"
	"pipesched/internal/codegen"
	"pipesched/internal/core"
	"pipesched/internal/dag"
	"pipesched/internal/faultinject"
	"pipesched/internal/frontend"
	"pipesched/internal/listsched"
	"pipesched/internal/machine"
	"pipesched/internal/nopins"
	"pipesched/internal/opt"
	"pipesched/internal/regalloc"
	"pipesched/internal/seqsched"
	"pipesched/internal/sim"
	"pipesched/internal/telemetry"
	"pipesched/internal/tuplegen"
)

// runStage executes one pipeline stage with fault injection and panic
// isolation. An injected fault or a recovered panic comes back as a
// non-nil *StageError; an ordinary error from fn comes back as err and
// keeps its legacy hard-failure semantics.
//
// Every call is also one telemetry span (telemetry.StartStage): the
// stage's wall time lands in the pipesched_stage_duration_seconds
// histogram, and the span ends in one sink record — a "trace" record
// when the request runs under a distributed trace, else a "span" record
// when a sink is registered. fn runs under the span's context, so work
// inside the stage (search events) parents under it. With telemetry and
// tracing off (the default) this is two atomic loads and no-op calls on
// a zero span kept on the stack (BenchmarkTracingDisabled).
func runStage(ctx context.Context, stage faultinject.Stage, label string, fn func(context.Context) error) (fault *StageError, err error) {
	ctx, sp := telemetry.StartStage(ctx, string(stage), label)
	defer func() {
		if r := recover(); r != nil {
			fault = &StageError{Stage: string(stage), Block: label, Panic: r, Stack: debug.Stack()}
			err = nil
		}
		if fault != nil {
			sp.Fail(fault)
		} else {
			sp.Fail(err)
		}
		sp.End()
	}()
	if ferr := faultinject.Fire(stage); ferr != nil {
		return &StageError{Stage: string(stage), Block: label, Err: ferr}, nil
	}
	return nil, fn(ctx)
}

// tracePoint records an instant trace event (degradation-rung fallback,
// breaker decision) under the request's trace, if any. Free when
// tracing is off.
func tracePoint(ctx context.Context, name string, attrs ...string) {
	if tr := telemetry.ActiveTracer(); tr != nil {
		tr.Point(telemetry.TraceContextOf(ctx), name, attrs...)
	}
}

// beginCompile opens the per-block telemetry accounting for one public
// entry point; the returned func records the finished block. Both ends
// collapse to atomic no-ops when telemetry is off.
func beginCompile() func(*Compiled) {
	pm := telemetry.Active()
	if pm == nil {
		return func(*Compiled) {}
	}
	pm.InFlight.Add(1)
	start := time.Now()
	return func(c *Compiled) {
		pm.InFlight.Add(-1)
		if c == nil || c.Scheduled == nil {
			return
		}
		pm.RecordCompile(c.Scheduled.Label, int(c.Quality), c.Scheduled.Len(),
			c.InitialNOPs, c.TotalNOPs, len(c.Faults), time.Since(start))
	}
}

// isolate is runStage without the injection point: it only converts
// panics into *StageError. Fallback rungs run under isolate so that a
// persistent injection plan cannot re-fire and starve the ladder.
func isolate(stage faultinject.Stage, label string, fn func() error) (fault *StageError, err error) {
	defer func() {
		if r := recover(); r != nil {
			fault = &StageError{Stage: string(stage), Block: label, Panic: r, Stack: debug.Stack()}
			err = nil
		}
	}()
	return nil, fn()
}

func validateMachine(m *Machine) error {
	if m == nil {
		return fmt.Errorf("%w: nil machine", ErrInvalidMachine)
	}
	return m.Validate()
}

func validateBlock(b *Block) error {
	if b == nil {
		return fmt.Errorf("%w: nil block", ErrInvalidBlock)
	}
	return b.Validate()
}

// normLambda applies the Options.Lambda convention (0 → DefaultLambda,
// negative → unlimited) and then any curtail point forced by the fault
// injector.
func normLambda(lambda int64) int64 {
	switch {
	case lambda == 0:
		lambda = DefaultLambda
	case lambda < 0:
		lambda = 0 // core treats 0 as unlimited
	}
	if fl := faultinject.CurtailLambda(); fl > 0 {
		lambda = fl
	}
	return lambda
}

func assignMode(o Options) nopins.AssignMode {
	if o.AssignPipelines {
		return nopins.AssignGreedy
	}
	return nopins.AssignFixed
}

// searchOptions maps the public Options onto the core search options.
// Search events parent under ctx's span, so a search stage passes its
// own context.
// When the fault injector forces a curtail point, the root-bound
// certificate and the dominance table are switched off as well: both can
// finish a tight block before any Ω budget is spent, which would let the
// block dodge the injected curtailment entirely.
func searchOptions(ctx context.Context, o Options) core.Options {
	copts := core.Options{
		Sched:             o.Sched,
		Lambda:            normLambda(o.Lambda),
		Ctx:               ctx,
		Assign:            assignMode(o),
		AssignSearch:      o.AssignPipelines,
		StrongEquivalence: o.StrongEquivalence,
		SeedPriority:      listsched.ByHeight,
		Trace:             searchTrace(ctx, o.TraceSearch),
	}
	if faultinject.CurtailLambda() > 0 {
		copts.DisableLowerBound = true
		copts.DisableMemo = true
	}
	return copts
}

// searchTrace bridges the search's event hook to the request trace. When
// the caller asked for search events (bound > 0) and ctx carries a
// trace, each event becomes a trace point under ctx's span — the
// stage:search span — until bound points were recorded for this
// compile, across every worker and window. Otherwise it returns nil and
// the search pays one nil check per event site.
func searchTrace(ctx context.Context, bound int) func(core.TraceEvent) {
	if bound <= 0 {
		return nil
	}
	tr, tc := telemetry.ActiveTracer(), telemetry.TraceContextOf(ctx)
	if tr == nil || !tc.Valid() {
		return nil
	}
	var n atomic.Int64
	return func(e core.TraceEvent) {
		if n.Load() >= int64(bound) || n.Add(1) > int64(bound) {
			return
		}
		tr.Point(tc, string(e.Action), "depth", strconv.Itoa(e.Depth), "node", strconv.Itoa(e.Node),
			"eta", strconv.Itoa(e.Eta), "mu", strconv.Itoa(e.Mu), "worker", strconv.Itoa(e.Worker))
	}
}

// CompileCtx is Compile with cooperative cancellation and the full
// degradation ladder. On curtailment, deadline expiry or cancellation it
// returns the best legal schedule found TOGETHER with ErrCurtailed,
// ErrDeadline or ErrCanceled; on a recoverable stage fault it returns a
// degraded-but-legal result together with the *StageError. Only invalid
// input and frontend failures return a nil Compiled; a source that does
// not parse or lower returns ErrInvalidSource.
func CompileCtx(ctx context.Context, src string, m *Machine, o Options) (*Compiled, error) {
	if err := validateMachine(m); err != nil {
		return nil, err
	}
	done := beginCompile()
	var block *Block
	fault, err := runStage(ctx, faultinject.Frontend, "block", func(context.Context) error {
		var e error
		block, e = tuplegen.Compile(src, "block")
		return e
	})
	if fault != nil {
		done(nil)
		return nil, fault // nothing to schedule: hard failure
	}
	if err != nil {
		done(nil)
		return nil, fmt.Errorf("%w: %w", ErrInvalidSource, err)
	}
	var faults []*StageError
	if block, fault = optimizeStage(ctx, block, o); fault != nil {
		faults = append(faults, fault)
	}
	c, err := scheduleCtx(ctx, block, m, o, blockSearch(o.Workers), faults)
	if c != nil {
		c.Source = src
	}
	done(c)
	return c, err
}

// ScheduleCtx is Schedule with cooperative cancellation and the full
// degradation ladder; see CompileCtx for the result/error contract.
func ScheduleCtx(ctx context.Context, block *Block, m *Machine, o Options) (*Compiled, error) {
	if err := validateMachine(m); err != nil {
		return nil, err
	}
	if err := validateBlock(block); err != nil {
		return nil, err
	}
	done := beginCompile()
	c, err := scheduleCtx(ctx, block, m, o, blockSearch(o.Workers), nil)
	done(c)
	return c, err
}

// optimizeStage runs the optimizer (when Options ask for it) under stage
// isolation. On a fault the block degrades to its unoptimized tuples and
// the fault is returned for the caller to record.
func optimizeStage(ctx context.Context, block *Block, o Options) (*Block, *StageError) {
	if !o.Optimize && !o.Reassociate {
		return block, nil
	}
	optimized := block
	fault, _ := runStage(ctx, faultinject.Opt, block.Label, func(context.Context) error {
		if o.Reassociate {
			optimized = opt.OptimizeReassoc(block)
		} else {
			optimized = opt.Optimize(block)
		}
		return nil
	})
	if fault != nil {
		return block, fault
	}
	return optimized, nil
}

// searchFunc is the search stage of the degradation ladder: it schedules
// a block's whole dependence graph under the given core options.
type searchFunc func(g *dag.Graph, m *Machine, copts core.Options) (*core.Schedule, error)

// blockSearch is the whole-block branch-and-bound, parallel when the
// caller asks for more than one worker.
func blockSearch(workers int) searchFunc {
	if workers > 1 {
		return func(g *dag.Graph, m *Machine, copts core.Options) (*core.Schedule, error) {
			return core.FindParallel(g, m, copts, workers)
		}
	}
	return core.Find
}

// windowedSearch is the section 5.3 windows as a search stage. Its
// result is globally heuristic even when every window is locally
// optimal, so it carries the whole-block root bound as its certificate.
func windowedSearch(window int) searchFunc {
	return func(g *dag.Graph, m *Machine, copts core.Options) (*core.Schedule, error) {
		s, _, _, err := seqsched.Windows(g, m, window, copts)
		if err != nil {
			return nil, err
		}
		s.RootLB, s.Gap = rootGap(g, m, copts.Assign, s.TotalNOPs)
		return s, nil
	}
}

// rootGap certifies a schedule costing total NOPs with the whole-block
// root lower bound: the schedule is provably within gap NOPs of optimal.
// It runs under isolate so that a bound-engine panic cannot take down a
// rung that exists to survive panics; then there is no certificate
// (0, GapUnknown).
func rootGap(g *dag.Graph, m *Machine, assign nopins.AssignMode, total int) (lb, gap int) {
	if f, err := isolate(faultinject.Search, g.Block.Label, func() error {
		lb = bound.New(g, m, bound.Config{FixedAssign: assign == nopins.AssignFixed}, nil).Root()
		return nil
	}); f != nil || err != nil {
		return 0, GapUnknown
	}
	return lb, max(total-lb, 0)
}

// scheduleCtx runs DAG construction and the search stage with stage
// isolation, stepping down the ladder on faults. Every entry point that
// schedules one block runs it; they differ only in the search stage.
func scheduleCtx(ctx context.Context, block *Block, m *Machine, o Options, search searchFunc, faults []*StageError) (*Compiled, error) {
	label := block.Label

	var g *dag.Graph
	fault, err := runStage(ctx, faultinject.DAG, label, func(context.Context) error {
		var e error
		g, e = dag.Build(block)
		return e
	})
	if fault != nil {
		return baselineCompiled(ctx, block, m, o, append(faults, fault))
	}
	if err != nil {
		return nil, err
	}

	if o.HeuristicOnly {
		// Fail-fast path: the caller has decided (e.g. via the server's
		// circuit breaker) that this block should not pay for a search.
		return heuristicCompiled(ctx, block, g, m, o, faults)
	}

	var sched *core.Schedule
	fault, err = runStage(ctx, faultinject.Search, label, func(ctx context.Context) error {
		var e error
		sched, e = search(g, m, searchOptions(ctx, o))
		return e
	})
	if fault != nil {
		return heuristicCompiled(ctx, block, g, m, o, append(faults, fault))
	}
	if err != nil {
		return nil, err
	}
	telemetry.Active().RecordSearch(label, sched.Stats)

	if o.Sched.Kind == machine.SchedScoreboard {
		// Defense in depth for the scoreboard mode: the claimed issue
		// ticks and stall count must replay exactly on the independent
		// forward simulation of the window machine.
		if err := sim.VerifyScoreboard(sim.ScoreboardInput{
			Input:  sim.Input{Graph: g, M: m, Order: sched.Order, Pipes: sched.Pipes},
			Window: o.Sched.Window, Width: o.Sched.Width,
		}, sched.IssueTicks, sched.TotalNOPs); err != nil {
			return nil, fmt.Errorf("pipesched: scoreboard schedule failed verification: %w", err)
		}
	}

	quality := Optimal
	if sched.Stopped != nil {
		quality = Incumbent
	}
	c, err := emit(ctx, block, g, m, o, sched.Order, sched.Eta, sched.Pipes, quality, faults)
	if err != nil {
		return nil, err
	}
	c.Sched = o.Sched
	c.MaxLive = sched.MaxLive
	c.IssueTicks = sched.IssueTicks
	if o.Sched.Kind == machine.SchedScoreboard {
		// emit derives cost and ticks from the (all-zero) NOP padding;
		// the scoreboard objective lives in the search result.
		c.TotalNOPs = sched.TotalNOPs
		c.Ticks = sched.Ticks
	}
	c.InitialNOPs = sched.InitialNOPs
	c.Stats = sched.Stats
	c.RootLB = sched.RootLB
	c.Gap = sched.Gap
	telemetry.Active().RecordGap(label, c.Gap, sched.Stats.OmegaCalls)
	return c, degradationError(sched.Stopped, c.Faults)
}

// heuristicCompiled is the third ladder rung: the list-schedule seed
// priced by the NOP-insertion analysis — the same schedule the search
// would have started from. Runs under isolate so a persistent search
// injection cannot re-fire; if even the seed fails, drops to Baseline.
func heuristicCompiled(ctx context.Context, block *Block, g *dag.Graph, m *Machine, o Options, faults []*StageError) (*Compiled, error) {
	tracePoint(ctx, "degrade", "rung", "heuristic", "block", block.Label)
	var r nopins.Result
	f, err := isolate(faultinject.Search, block.Label, func() error {
		order := listsched.Schedule(g, listsched.ByHeight)
		var e error
		r, e = nopins.NewEvaluator(g, m, assignMode(o)).EvaluateOrder(order)
		return e
	})
	if f != nil || err != nil {
		if f != nil {
			faults = append(faults, f)
		}
		return baselineCompiled(ctx, block, m, o, faults)
	}
	c, err := emit(ctx, block, g, m, o, r.Order, r.Eta, r.Pipes, Heuristic, faults)
	if err != nil {
		return nil, err
	}
	c.InitialNOPs = r.TotalNOPs
	// The heuristic result still carries a certificate: the root lower
	// bound proves how far the seed can be from optimal.
	c.RootLB, c.Gap = rootGap(g, m, assignMode(o), c.TotalNOPs)
	telemetry.Active().RecordGap(block.Label, c.Gap, 0)
	return c, degradationError(nil, c.Faults)
}

// baselineSchedule is the last ladder rung: program order (always legal,
// because tuple operands may only reference earlier tuples) with
// conservative full-drain padding — every instruction after the first
// waits out the machine's largest latency/enqueue time, so no dependence
// or conflict can be violated regardless of the dependence structure.
// drain additionally pads before the first instruction (non-first blocks
// of a sequence, where earlier blocks' pipelines may still be busy).
func baselineSchedule(block *Block, m *Machine, drain bool) (order, eta, pipes []int) {
	maxDelay := 1
	for _, p := range m.Pipelines {
		if p.Latency > maxDelay {
			maxDelay = p.Latency
		}
		if p.Enqueue > maxDelay {
			maxDelay = p.Enqueue
		}
	}
	n := block.Len()
	order = make([]int, n)
	eta = make([]int, n)
	pipes = make([]int, n)
	for i := 0; i < n; i++ {
		order[i] = i
		pipes[i] = m.PipelineFor(block.Tuples[i].Op)
		if i > 0 || drain {
			eta[i] = maxDelay - 1
		}
	}
	return order, eta, pipes
}

// baselineCompiled materializes the Baseline rung for one block.
func baselineCompiled(ctx context.Context, block *Block, m *Machine, o Options, faults []*StageError) (*Compiled, error) {
	tracePoint(ctx, "degrade", "rung", "baseline", "block", block.Label)
	c, err := baselineBlock(ctx, block, m, o, false, faults)
	if err != nil {
		return nil, err
	}
	return c, degradationError(nil, c.Faults)
}

// baselineBlock emits block's baselineSchedule. The faulting DAG stage
// often still builds cleanly when retried outside the injection
// boundary; a graph re-enables the simulator verification inside emit.
func baselineBlock(ctx context.Context, block *Block, m *Machine, o Options, drain bool, faults []*StageError) (*Compiled, error) {
	order, eta, pipes := baselineSchedule(block, m, drain)
	var g *dag.Graph
	if f, err := isolate(faultinject.DAG, block.Label, func() error {
		var e error
		g, e = dag.Build(block)
		return e
	}); f != nil || err != nil {
		g = nil
	}
	c, err := emit(ctx, block, g, m, o, order, eta, pipes, Baseline, faults)
	if err != nil {
		return nil, err
	}
	c.InitialNOPs = c.TotalNOPs
	return c, nil
}

// allocateIsolated runs register allocation under stage isolation. On a
// fault it retries once without the register limit (outside the
// injection boundary); a second failure leaves the assignment nil — the
// schedule itself is unaffected.
func allocateIsolated(ctx context.Context, scheduled *Block, label string, limit int, faults *[]*StageError) (*regalloc.Assignment, error) {
	var regs *regalloc.Assignment
	fault, err := runStage(ctx, faultinject.Regalloc, label, func(context.Context) error {
		var e error
		regs, e = regalloc.Allocate(scheduled, limit)
		return e
	})
	switch {
	case fault != nil:
		*faults = append(*faults, fault)
		regs = nil
		if f, e := isolate(faultinject.Regalloc, label, func() error {
			var e error
			regs, e = regalloc.Allocate(scheduled, 0)
			return e
		}); f != nil || e != nil {
			regs = nil
		}
	case err != nil:
		return nil, err
	}
	return regs, nil
}

// emitIsolated runs code emission under stage isolation; on a fault the
// assembly is simply empty.
func emitIsolated(ctx context.Context, prog codegen.Program, mode DelayMode, label string, faults *[]*StageError) (string, error) {
	var asm string
	fault, err := runStage(ctx, faultinject.Codegen, label, func(context.Context) error {
		var e error
		asm, e = codegen.Emit(prog, mode)
		return e
	})
	switch {
	case fault != nil:
		*faults = append(*faults, fault)
		return "", nil
	case err != nil:
		return "", err
	}
	return asm, nil
}

// interlocked reports whether a schedule of the given quality relies on
// the scoreboard window's hardware interlocks instead of NOP padding. A
// search-produced scoreboard schedule does, so the in-order delay
// machinery (explanations, Tera backoff, the in-order hazard check) does
// not apply to it; degraded rungs (quality ≥ Heuristic) fall back to the
// paper's in-order NOP-padded semantics and keep the full machinery.
func interlocked(o Options, quality Quality) bool {
	return o.Sched.Kind == machine.SchedScoreboard && quality < Heuristic
}

// lower carries a computed schedule through register allocation and code
// emission, isolating faults in both stages so that a legal schedule
// always survives: a failed allocator leaves Registers nil, a failed code
// generator leaves Assembly empty. g may be nil on the Baseline rung; NOP
// explanations and Tera backoff counts then degrade gracefully instead
// of failing. The result's TotalNOPs and Ticks are the schedule's own
// padding; its Gap is GapUnknown until a caller holding a bound sets it.
func lower(ctx context.Context, block *Block, g *dag.Graph, m *Machine, o Options,
	order, eta, pipes []int, quality Quality, faults []*StageError) (*Compiled, error) {
	label := block.Label
	scheduled, err := block.Permute(order)
	if err != nil {
		return nil, fmt.Errorf("pipesched: internal: %w", err)
	}
	regs, err := allocateIsolated(ctx, scheduled, label, o.Registers, &faults)
	if err != nil {
		return nil, err
	}
	delays := g != nil && !interlocked(o, quality)
	mode := o.Mode
	prog := codegen.Program{Block: scheduled, Eta: eta, Regs: regs}
	if o.ExplainNOPs && delays {
		prog.Notes = make([]string, len(order))
		if causes, err := sim.ExplainDelays(sim.Input{
			Graph: g, M: m, Order: order, Eta: eta, Pipes: pipes,
		}); err == nil {
			for _, c := range causes {
				prog.Notes[c.Position] = c.Detail
			}
		} else {
			// Delays imposed by an earlier block's pipeline state or by
			// conservative padding bind on nothing inside this block's
			// own graph; they keep a generic note. (Were the schedule
			// actually illegal, emit's verification would catch it.)
			for i, e := range eta {
				if e > 0 {
					prog.Notes[i] = fmt.Sprintf("waits %d ticks (not bound inside this block)", e)
				}
			}
		}
	}
	if mode == TeraInterlock {
		if !delays {
			mode = NOPPadding // no graph (or no in-order delay semantics) to derive backoff counts from
		} else {
			back, err := sim.TeraCounts(sim.Input{Graph: g, M: m, Order: order, Eta: eta, Pipes: pipes})
			if err != nil {
				return nil, err
			}
			prog.Back = back
		}
	}
	asm, err := emitIsolated(ctx, prog, mode, label, &faults)
	if err != nil {
		return nil, err
	}
	total := 0
	for _, e := range eta {
		total += e
	}
	return &Compiled{
		Original:  block,
		Scheduled: scheduled,
		Order:     order,
		Eta:       eta,
		Pipes:     pipes,
		TotalNOPs: total,
		Ticks:     total + len(order),
		Optimal:   quality == Optimal,
		Quality:   quality,
		Gap:       GapUnknown,
		Faults:    faults,
		Registers: regs,
		Assembly:  asm,
	}, nil
}

// emit lowers a schedule of one block that starts from cold pipelines
// and, whenever a dependence graph exists, re-verifies a NOP-padded
// schedule with the independent simulator's in-order hazard check. A
// search-produced scoreboard schedule is not replayed here: scheduleCtx
// has already replayed it on the window machine, claimed issue ticks
// and stalls included. Defense in depth: no schedule leaves the library
// unchecked.
func emit(ctx context.Context, block *Block, g *dag.Graph, m *Machine, o Options,
	order, eta, pipes []int, quality Quality, faults []*StageError) (*Compiled, error) {
	c, err := lower(ctx, block, g, m, o, order, eta, pipes, quality, faults)
	if err != nil {
		return nil, err
	}
	if g != nil && !interlocked(o, quality) {
		if _, err := sim.Run(sim.Input{Graph: g, M: m, Order: order, Eta: eta, Pipes: pipes}, sim.NOPPadding); err != nil {
			return nil, fmt.Errorf("pipesched: schedule failed verification: %w", err)
		}
	}
	return c, nil
}

// ScheduleLargeCtx is ScheduleLarge with cooperative cancellation and
// the same degradation ladder as ScheduleCtx, with the section 5.3 windows
// as its search stage: windows whose search is cut short fall back to
// their list-schedule seeds (Incumbent); a failed search stage falls
// back to the whole-block seed (Heuristic); a failed DAG stage falls
// back to program order (Baseline).
func ScheduleLargeCtx(ctx context.Context, block *Block, m *Machine, window int, o Options) (*Compiled, error) {
	if err := validateMachine(m); err != nil {
		return nil, err
	}
	if err := validateBlock(block); err != nil {
		return nil, err
	}
	if !o.Sched.IsPaper() {
		return nil, fmt.Errorf("%w: ScheduleLarge schedules windows under the paper objective only (got %s)",
			ErrModeUnsupported, o.Sched)
	}
	done := beginCompile()
	c, err := scheduleCtx(ctx, block, m, o, windowedSearch(window), nil)
	done(c)
	return c, err
}

// ScheduleSequenceCtx is ScheduleSequence with cooperative cancellation
// and the degradation ladder. Curtailment, deadline expiry or
// cancellation demotes the affected blocks to their best incumbents; a
// failed search stage demotes the whole sequence to threaded
// list-schedule seeds (Heuristic); if even that fails, every block runs
// in program order with full pipeline drains at the boundaries
// (Baseline).
func ScheduleSequenceCtx(ctx context.Context, blocks []*Block, m *Machine, o Options) (*SequenceResult, error) {
	if err := validateMachine(m); err != nil {
		return nil, err
	}
	if o.Sched.Kind == machine.SchedScoreboard {
		return nil, fmt.Errorf("%w: the scoreboard model cannot thread in-order pipeline state across block boundaries",
			ErrModeUnsupported)
	}
	for i, b := range blocks {
		if b == nil {
			return nil, fmt.Errorf("%w: sequence block %d is nil", ErrInvalidBlock, i)
		}
		if err := b.Validate(); err != nil {
			return nil, err
		}
	}
	heuristic := false
	var faults []*StageError
	var r *seqsched.Result
	fault, err := runStage(ctx, faultinject.Search, "", func(ctx context.Context) error {
		var e error
		r, e = seqsched.Schedule(blocks, m, searchOptions(ctx, o))
		return e
	})
	switch {
	case fault != nil:
		faults = append(faults, fault)
		heuristic = true
		if f, e := isolate(faultinject.Search, "", func() error {
			var e error
			r, e = seqsched.ScheduleSeed(blocks, m, searchOptions(ctx, o))
			return e
		}); f != nil || e != nil {
			sr, serr := sequenceBaseline(ctx, blocks, m, o, faults)
			recordSequence(sr)
			return sr, serr
		}
	case err != nil:
		return nil, err
	}

	out := &SequenceResult{TotalNOPs: r.TotalNOPs, TotalTicks: r.TotalTicks, Optimal: r.Optimal && !heuristic}
	for i, bs := range r.Blocks {
		bq := Heuristic
		if !heuristic {
			if bs.Sched.Optimal {
				bq = Optimal
			} else {
				bq = Incumbent
			}
		}
		c, err := finishSequenceBlock(ctx, blocks[i], bs, m, o, bq)
		if err != nil {
			return nil, err
		}
		if c.Quality > out.Quality {
			out.Quality = c.Quality
		}
		faults = append(faults, c.Faults...)
		out.Blocks = append(out.Blocks, c)
	}
	recordSequence(out)
	return out, degradationError(r.Stopped, faults)
}

// recordSequence folds every block of a finished sequence into the
// telemetry metric set (no-op when telemetry is off). Per-block wall
// time is not split out — the stage spans already cover the sequence.
func recordSequence(r *SequenceResult) {
	pm := telemetry.Active()
	if pm == nil || r == nil {
		return
	}
	for _, c := range r.Blocks {
		if c == nil || c.Scheduled == nil {
			continue
		}
		if c.Stats.OmegaCalls > 0 || c.Stats.SeedOmegaCalls > 0 {
			pm.RecordSearch(c.Scheduled.Label, c.Stats)
		}
		pm.RecordGap(c.Scheduled.Label, c.Gap, c.Stats.OmegaCalls)
		pm.RecordCompile(c.Scheduled.Label, int(c.Quality), c.Scheduled.Len(),
			c.InitialNOPs, c.TotalNOPs, len(c.Faults), 0)
	}
}

// sequenceBaseline is the Baseline rung for a whole sequence: each block
// in program order with full-drain padding, and a full pipeline drain
// before every block boundary, so no cross-block state can be violated.
func sequenceBaseline(ctx context.Context, blocks []*Block, m *Machine, o Options, faults []*StageError) (*SequenceResult, error) {
	tracePoint(ctx, "degrade", "rung", "baseline", "blocks", fmt.Sprint(len(blocks)))
	out := &SequenceResult{Quality: Baseline}
	tick := 0
	for i, b := range blocks {
		c, err := baselineBlock(ctx, b, m, o, i > 0, nil)
		if err != nil {
			return nil, err
		}
		tick += c.Ticks
		c.Ticks = tick // absolute end tick, matching sequence semantics
		faults = append(faults, c.Faults...)
		out.Blocks = append(out.Blocks, c)
		out.TotalNOPs += c.TotalNOPs
	}
	out.TotalTicks = tick
	return out, degradationError(nil, faults)
}

// finishSequenceBlock lowers one block of a threaded sequence. The
// block's η values include boundary delays imposed by the PREVIOUS
// blocks' pipeline state, so emit's cold-start re-verification does not
// apply; the sequence-level verification lives in internal/seqsched
// (Flatten + simulator), exercised by its tests.
func finishSequenceBlock(ctx context.Context, block *Block, bs seqsched.BlockSchedule, m *Machine, o Options, quality Quality) (*Compiled, error) {
	s := bs.Sched
	c, err := lower(ctx, block, bs.Graph, m, o, s.Order, s.Eta, s.Pipes, quality, nil)
	if err != nil {
		return nil, err
	}
	c.TotalNOPs, c.InitialNOPs, c.Ticks = s.TotalNOPs, s.InitialNOPs, bs.EndTick
	c.RootLB, c.Gap, c.Stats = s.RootLB, s.Gap, s.Stats
	if quality < Heuristic {
		// Degraded sequence rungs fall back to the paper objective; only
		// search-produced blocks carry the mode and its pressure figure.
		c.Sched = o.Sched
		c.MaxLive = s.MaxLive
	}
	return c, nil
}

// CompileSequenceCtx is CompileSequence with cooperative cancellation
// and the degradation ladder; see ScheduleSequenceCtx. A frontend fault
// is a hard failure, and a source that does not parse or lower returns
// ErrInvalidSource; a per-block optimizer fault degrades that block to
// its unoptimized tuples and is recorded in the block's Faults.
func CompileSequenceCtx(ctx context.Context, src string, m *Machine, o Options) (*SequenceResult, error) {
	if err := validateMachine(m); err != nil {
		return nil, err
	}
	var blocks []*Block
	fault, err := runStage(ctx, faultinject.Frontend, "", func(context.Context) error {
		parsed, err := frontend.ParseFile(src)
		if err != nil {
			return err
		}
		for i, np := range parsed {
			label := np.Name
			if label == "" {
				label = fmt.Sprintf("block%d", i)
			}
			b, err := tuplegen.Generate(np.Program, label)
			if err != nil {
				return err
			}
			blocks = append(blocks, b)
		}
		return nil
	})
	if fault != nil {
		return nil, fault
	}
	if err != nil {
		return nil, fmt.Errorf("%w: %w", ErrInvalidSource, err)
	}
	optFaults := make([]*StageError, len(blocks))
	for i, b := range blocks {
		blocks[i], optFaults[i] = optimizeStage(ctx, b, o)
	}
	r, err := ScheduleSequenceCtx(ctx, blocks, m, o)
	if r != nil {
		for i := range r.Blocks {
			r.Blocks[i].Source = src
			if f := optFaults[i]; f != nil {
				r.Blocks[i].Faults = append([]*StageError{f}, r.Blocks[i].Faults...)
			}
		}
		if err == nil {
			for i := range blocks {
				if f := optFaults[i]; f != nil {
					err = f
					break
				}
			}
		}
	}
	return r, err
}
