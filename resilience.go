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
// One driver, ladder, walks these rungs for every entry point: a single
// block is a sequence of one, and only the search stage differs.
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

// compileRecord is the telemetry accounting of one public entry point,
// opened by beginCompile and closed by done. Both ends are no-ops when
// telemetry is off.
type compileRecord struct {
	pm    *telemetry.Metrics
	start time.Time
}

func beginCompile() compileRecord {
	pm := telemetry.Active()
	if pm == nil {
		return compileRecord{}
	}
	pm.InFlight.Add(1)
	return compileRecord{pm: pm, start: time.Now()}
}

// done is the one record path: it folds every finished block (none, or
// nil, after a hard failure) into the metric set — the search, when one
// produced the schedule, the certified gap and the compile. The blocks of
// a longer sequence share one wall time, so they record none of their own.
func (r compileRecord) done(cs ...*Compiled) {
	if r.pm == nil {
		return
	}
	r.pm.InFlight.Add(-1)
	var elapsed time.Duration
	if len(cs) == 1 {
		elapsed = time.Since(r.start)
	}
	for _, c := range cs {
		if c == nil {
			continue
		}
		label := c.Scheduled.Label
		if c.Quality < Heuristic {
			r.pm.RecordSearch(label, c.Stats)
		}
		r.pm.RecordGap(label, c.Gap, c.Stats.OmegaCalls)
		r.pm.RecordCompile(label, int(c.Quality), c.Scheduled.Len(),
			c.InitialNOPs, c.TotalNOPs, len(c.Faults), elapsed)
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
	rec := beginCompile()
	var block *Block
	fault, err := runStage(ctx, faultinject.Frontend, "block", func(context.Context) error {
		var e error
		block, e = tuplegen.Compile(src, "block")
		return e
	})
	if fault != nil {
		rec.done()
		return nil, fault // nothing to schedule: hard failure
	}
	if err != nil {
		rec.done()
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
	rec.done(c)
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
	rec := beginCompile()
	c, err := scheduleCtx(ctx, block, m, o, blockSearch(o.Workers), nil)
	rec.done(c)
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

// searchFunc is the search stage of one block: it schedules the block's
// whole dependence graph from cold pipelines under the given core options.
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
// optimal; seqsched.Windows certifies it with the whole-block root bound.
func windowedSearch(window int) searchFunc {
	return func(g *dag.Graph, m *Machine, copts core.Options) (*core.Schedule, error) {
		s, _, _, err := seqsched.Windows(g, m, window, copts)
		return s, err
	}
}

// scheduleCtx walks the degradation ladder for one block from cold
// pipelines, a sequence of one, with search as its search stage; faults
// are the block's faults from the stages before.
func scheduleCtx(ctx context.Context, block *Block, m *Machine, o Options, search searchFunc, faults []*StageError) (*Compiled, error) {
	var one [1]*Compiled
	r, err := ladder(ctx, &SequenceResult{Blocks: one[:]}, []*Block{block}, [][]*StageError{faults}, m, o, search)
	if r == nil {
		return nil, err
	}
	return r.Blocks[0], err
}

// ladder is the degradation ladder. It schedules blocks in order, each
// from the pipeline state the blocks before it left (the first starts
// cold), replays the delivered schedule on the simulator and lowers every
// block. Only the search stage differs by entry point: search schedules
// a single block (core.Find, core.FindParallel or the section 5.3
// windows); a nil search schedules the list as a footnote-1 sequence with
// seqsched.Schedule. Each rung exists once and applies to every block:
//
//   - DAG: a fault sends every block to Baseline.
//   - Search: a fault sends every block to Heuristic, as does
//     Options.HeuristicOnly; a search cut short leaves the blocks it
//     stopped in on Incumbent.
//   - Heuristic: seqsched.ScheduleSeed, the list-schedule seeds priced and
//     certified under the same threaded entry states; a fault sends every
//     block to Baseline.
//   - Baseline: baselineSchedule.
//
// prior[i] lists block i's faults from the stages before (the optimizer);
// a fault that demoted the list is recorded on every block after them.
// ladder sets r.Blocks[i], which must exist, to block i's result and
// returns r with the degradation error, or nil and a hard error.
func ladder(ctx context.Context, r *SequenceResult, blocks []*Block, prior [][]*StageError,
	m *Machine, o Options, search searchFunc) (*SequenceResult, error) {
	label := ""
	if len(blocks) == 1 {
		label = blocks[0].Label
	}
	var one [1]seqsched.BlockSchedule
	pieces := one[:]
	if len(blocks) != 1 {
		pieces = make([]seqsched.BlockSchedule, len(blocks))
	}

	var faults []*StageError // the faults that demoted every block
	rung := Optimal
	fault, err := runStage(ctx, faultinject.DAG, label, func(context.Context) error {
		for i, b := range blocks {
			var e error
			if pieces[i].Graph, e = dag.Build(b); e != nil {
				return e
			}
		}
		return nil
	})
	switch {
	case fault != nil:
		faults, rung = append(faults, fault), Baseline
	case err != nil:
		return nil, err
	case o.HeuristicOnly:
		// Fail-fast path: the caller has decided (e.g. via the server's
		// circuit breaker) that these blocks should not pay for a search.
		rung = Heuristic
	default:
		fault, err = runStage(ctx, faultinject.Search, label, func(ctx context.Context) error {
			copts := searchOptions(ctx, o)
			if search == nil {
				res, e := seqsched.Schedule(blocks, m, copts)
				if e == nil {
					copy(pieces, res.Blocks)
				}
				return e
			}
			s, e := search(pieces[0].Graph, m, copts)
			if e == nil {
				pieces[0].Sched, pieces[0].EndTick = s, s.Ticks
			}
			return e
		})
		if fault != nil {
			faults, rung = append(faults, fault), Heuristic
		} else if err != nil {
			return nil, err
		}
	}

	if rung == Heuristic {
		tracePoint(ctx, "degrade", "rung", "heuristic", "block", label)
		// Under isolate, so a persistent search injection cannot re-fire.
		var res *seqsched.Result
		f, err := isolate(faultinject.Search, label, func() error {
			var e error
			res, e = seqsched.ScheduleSeed(blocks, m, searchOptions(ctx, o))
			return e
		})
		if f != nil {
			faults = append(faults, f)
		}
		if f != nil || err != nil {
			rung = Baseline
		} else {
			copy(pieces, res.Blocks)
		}
	}
	if rung == Baseline {
		tracePoint(ctx, "degrade", "rung", "baseline", "block", label)
		baselineSchedule(pieces, blocks, m)
	}
	if err := verify(pieces, m, o, rung); err != nil {
		return nil, err
	}

	var stopped error
	var first []*StageError // the faults of the first block with any
	r.Optimal = true
	for i, p := range pieces {
		quality := rung
		if rung == Optimal && p.Sched.Stopped != nil {
			quality = Incumbent
			if stopped == nil {
				stopped = p.Sched.Stopped
			}
		}
		var fs []*StageError
		if i < len(prior) {
			fs = prior[i]
		}
		c, err := lower(ctx, blocks[i], p, m, o, quality, append(fs[:len(fs):len(fs)], faults...))
		if err != nil {
			return nil, err
		}
		if first == nil && len(c.Faults) > 0 {
			first = c.Faults
		}
		r.Blocks[i] = c
		r.TotalNOPs += c.TotalNOPs
		r.TotalTicks = p.EndTick
		r.Optimal = r.Optimal && c.Optimal
		r.Quality = max(r.Quality, quality)
	}
	return r, degradationError(stopped, first)
}

// baselineSchedule is the last ladder rung: every block in program order
// (always legal, because tuple operands may only reference earlier
// tuples) with conservative full-drain padding — every instruction waits
// out the machine's largest latency/enqueue time, except the first of
// the first block, which meets empty pipelines — so no dependence or
// conflict can be violated, inside a block or across a boundary,
// regardless of the dependence structure. It needs no graph; the
// faulting DAG stage often still builds cleanly when retried outside the
// injection boundary, and a graph re-enables the simulator replay.
func baselineSchedule(pieces []seqsched.BlockSchedule, blocks []*Block, m *Machine) {
	maxDelay := 1
	for _, p := range m.Pipelines {
		maxDelay = max(maxDelay, p.Latency, p.Enqueue)
	}
	tick := 0
	for i, b := range blocks {
		n := b.Len()
		s := &core.Schedule{Order: make([]int, n), Eta: make([]int, n), Pipes: make([]int, n), Gap: GapUnknown}
		for k := range s.Order {
			s.Order[k] = k
			s.Pipes[k] = m.PipelineFor(b.Tuples[k].Op)
			if k > 0 || i > 0 {
				s.Eta[k] = maxDelay - 1
				s.TotalNOPs += maxDelay - 1
			}
		}
		s.InitialNOPs = s.TotalNOPs
		p := &pieces[i]
		p.StartTick = tick
		tick += s.TotalNOPs + n
		p.EndTick, s.Ticks, p.Sched = tick, tick, s
		if p.Graph == nil {
			if f, err := isolate(faultinject.DAG, b.Label, func() error {
				var e error
				p.Graph, e = dag.Build(b)
				return e
			}); f != nil || err != nil {
				p.Graph = nil
			}
		}
	}
}

// verify replays the delivered schedule on the independent simulator
// before anything is lowered. A search-produced scoreboard schedule
// replays on the window machine against its claimed issue ticks and
// stall count. Any other schedule replays in the in-order hazard check,
// over the graph of the whole block list: the block's own graph for one
// block, and seqsched.Flatten's graph for a sequence, so every boundary
// delay is checked as well. A Baseline rung that could build no graph has
// nothing to replay against. Defense in depth: no schedule leaves the
// library unchecked.
func verify(pieces []seqsched.BlockSchedule, m *Machine, o Options, rung Quality) error {
	if interlocked(o, rung) {
		for _, p := range pieces {
			s := p.Sched
			if err := sim.VerifyScoreboard(sim.ScoreboardInput{
				Input:  sim.Input{Graph: p.Graph, M: m, Order: s.Order, Pipes: s.Pipes},
				Window: o.Sched.Window, Width: o.Sched.Width,
			}, s.IssueTicks, s.TotalNOPs); err != nil {
				return fmt.Errorf("pipesched: scoreboard schedule failed verification: %w", err)
			}
		}
		return nil
	}
	if len(pieces) == 0 {
		return nil
	}
	for _, p := range pieces {
		if p.Graph == nil {
			return nil
		}
	}
	s := pieces[0].Sched
	in := sim.Input{Graph: pieces[0].Graph, M: m, Order: s.Order, Eta: s.Eta, Pipes: s.Pipes}
	if len(pieces) > 1 {
		g, order, eta, pipes, err := seqsched.Flatten(&seqsched.Result{Blocks: pieces})
		if err != nil {
			return fmt.Errorf("pipesched: internal: %w", err)
		}
		in = sim.Input{Graph: g, M: m, Order: order, Eta: eta, Pipes: pipes}
	}
	if _, err := sim.Run(in, sim.NOPPadding); err != nil {
		return fmt.Errorf("pipesched: schedule failed verification: %w", err)
	}
	return nil
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

// lower carries one block's verified schedule through register
// allocation and code emission, isolating faults in both stages so that
// a legal schedule always survives: a failed allocator leaves Registers
// nil, a failed code generator leaves Assembly empty. p.Graph may be nil
// on the Baseline rung; NOP explanations and Tera backoff counts then
// degrade gracefully instead of failing. The schedule's cost, seed cost,
// certificate and search statistics carry over as they are; Ticks is the
// absolute tick of the block's last issue.
func lower(ctx context.Context, block *Block, p seqsched.BlockSchedule, m *Machine, o Options,
	quality Quality, faults []*StageError) (*Compiled, error) {
	label := block.Label
	g, s := p.Graph, p.Sched
	order, eta, pipes := s.Order, s.Eta, s.Pipes
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
			// actually illegal, verify would have caught it.)
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
	c := &Compiled{
		Original:    block,
		Scheduled:   scheduled,
		Order:       order,
		Eta:         eta,
		Pipes:       pipes,
		TotalNOPs:   s.TotalNOPs,
		InitialNOPs: s.InitialNOPs,
		Ticks:       p.EndTick,
		Optimal:     quality == Optimal,
		RootLB:      s.RootLB,
		Gap:         s.Gap,
		Quality:     quality,
		Faults:      faults,
		Registers:   regs,
		Assembly:    asm,
		Stats:       s.Stats,
	}
	if quality < Heuristic {
		// The degraded rungs fall back to the paper objective; only a
		// search-produced schedule carries the mode, its pressure figure
		// and its scoreboard issue ticks.
		c.Sched, c.MaxLive, c.IssueTicks = o.Sched, s.MaxLive, s.IssueTicks
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
	rec := beginCompile()
	c, err := scheduleCtx(ctx, block, m, o, windowedSearch(window), nil)
	rec.done(c)
	return c, err
}

// ScheduleSequenceCtx is ScheduleSequence with cooperative cancellation
// and the degradation ladder of ScheduleCtx, each rung applied to the
// whole sequence: curtailment, deadline expiry or cancellation demotes
// the affected blocks to their best incumbents; Options.HeuristicOnly or
// a failed search stage demotes every block to its threaded
// list-schedule seed (Heuristic); a failed DAG stage, or a failed seed,
// runs every block in program order with full pipeline drains at the
// boundaries (Baseline).
func ScheduleSequenceCtx(ctx context.Context, blocks []*Block, m *Machine, o Options) (*SequenceResult, error) {
	if err := validateMachine(m); err != nil {
		return nil, err
	}
	rec := beginCompile()
	r, err := sequenceCtx(ctx, blocks, nil, m, o)
	rec.done(r.blocks()...)
	return r, err
}

// sequenceCtx checks a footnote-1 sequence and walks the ladder over it;
// prior is as in ladder.
func sequenceCtx(ctx context.Context, blocks []*Block, prior [][]*StageError, m *Machine, o Options) (*SequenceResult, error) {
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
	return ladder(ctx, &SequenceResult{Blocks: make([]*Compiled, len(blocks))}, blocks, prior, m, o, nil)
}

// blocks is r's blocks, or none when r is nil.
func (r *SequenceResult) blocks() []*Compiled {
	if r == nil {
		return nil
	}
	return r.Blocks
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
	rec := beginCompile()
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
		rec.done()
		return nil, fault
	}
	if err != nil {
		rec.done()
		return nil, fmt.Errorf("%w: %w", ErrInvalidSource, err)
	}
	prior := make([][]*StageError, len(blocks))
	for i, b := range blocks {
		var f *StageError
		if blocks[i], f = optimizeStage(ctx, b, o); f != nil {
			prior[i] = []*StageError{f}
		}
	}
	r, err := sequenceCtx(ctx, blocks, prior, m, o)
	for _, c := range r.blocks() {
		c.Source = src
	}
	rec.done(r.blocks()...)
	return r, err
}
