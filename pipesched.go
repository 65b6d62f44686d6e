// Package pipesched is an optimal basic-block instruction scheduler for
// processors with multiple pipelines, reproducing Nisar & Dietz,
// "Optimal Code Scheduling for Multiple-Pipeline Processors" (Purdue
// TR-EE 90-11 / ICPP 1990).
//
// The library finds the schedule of a basic block that minimizes the
// total delay (NOP count) on a machine where every pipeline has its own
// latency (dependence delay) and enqueue time (structural delay). The
// search is a heavily pruned branch-and-bound that never prunes away all
// optimal schedules; a curtail point λ bounds worst-case compile time,
// trading the optimality proof (not, usually, the schedule quality) on
// the rare blocks whose pruned space is still huge.
//
// The simplest entry point compiles source text end to end:
//
//	m := pipesched.SimulationMachine()
//	c, err := pipesched.Compile("b = 15;\na = b * a;", m, pipesched.Options{})
//	// c.Assembly holds scheduled, register-allocated, NOP-padded code.
//
// Schedule does the same for an already-built tuple block, and the
// sub-packages under internal/ expose each stage (front end, optimizer,
// DAG, list scheduler, branch-and-bound core, baselines, simulator,
// synthetic benchmark generator, experiment drivers) for finer control.
package pipesched

import (
	"context"
	"fmt"
	"strings"

	"pipesched/internal/codegen"
	"pipesched/internal/core"
	"pipesched/internal/dag"
	"pipesched/internal/exhaustive"
	"pipesched/internal/gross"
	"pipesched/internal/ir"
	"pipesched/internal/machine"
	"pipesched/internal/nopins"
	"pipesched/internal/regalloc"
)

// Machine describes the target processor: a pipeline table plus an
// operation-to-pipeline map (the paper's section 4.1 configuration).
type Machine = machine.Machine

// Pipeline is one row of a machine's pipeline description table.
type Pipeline = machine.Pipeline

// Block is a basic block of tuple intermediate code.
type Block = ir.Block

// SearchStats reports how much work the branch-and-bound search did.
type SearchStats = core.Stats

// SchedMode selects the scheduler machine model ("mode"): the paper's
// NOP-minimizing in-order model (the zero value), the register-pressure
// objectives, or the out-of-order scoreboard approximation. See
// ParseSchedMode for the textual forms.
type SchedMode = machine.SchedMode

// ParseSchedMode reads a scheduler mode from its textual form: "paper"
// (or ""), "minreg-lex", "minreg-k=<k>", "scoreboard=<window>x<width>"
// ("scoreboard" alone selects the 8x2 default). Errors wrap
// ErrInvalidMachine.
func ParseSchedMode(text string) (SchedMode, error) { return machine.ParseSchedMode(text) }

// MinRegLex selects the mode minimizing (total NOPs, MAXLIVE)
// lexicographically: among all NOP-optimal schedules, the one with the
// lowest peak register pressure.
func MinRegLex() SchedMode { return machine.MinRegLex() }

// MinRegK selects the mode minimizing total NOPs subject to MAXLIVE ≤ k.
// A block with no legal schedule under the bound fails with
// ErrInfeasible — the search proves that, too.
func MinRegK(k int) SchedMode { return machine.MinRegK(k) }

// Scoreboard selects the out-of-order approximation: instructions enter
// a window-entry scoreboard in schedule order and up to width of them
// issue per tick; the objective is total stall ticks. Window 1, width 1
// is exactly the paper's in-order machine.
func Scoreboard(window, width int) SchedMode { return machine.Scoreboard(window, width) }

// DelayMode selects how delays appear in emitted assembly.
type DelayMode = codegen.Mode

// Delay mechanisms for emitted assembly (paper section 2.2).
const (
	NOPPadding        = codegen.NOPPadding
	ExplicitInterlock = codegen.ExplicitInterlock
	ImplicitInterlock = codegen.ImplicitInterlock
	TeraInterlock     = codegen.TeraInterlock
)

// SimulationMachine returns the machine of the paper's evaluation
// (Tables 4/5): single loader, adder and multiplier pipelines.
func SimulationMachine() *Machine { return machine.SimulationMachine() }

// ExampleMachine returns the machine of the paper's Tables 2/3: two
// loaders, two adders, one multiplier, with op→pipeline choice.
func ExampleMachine() *Machine { return machine.ExampleMachine() }

// NewMachine builds a custom machine description; see machine.New.
func NewMachine(name string, pipes []Pipeline, opMap map[ir.Op][]int) (*Machine, error) {
	return machine.New(name, pipes, opMap)
}

// ParseMachine reads a machine description in the textual table format.
func ParseMachine(text string) (*Machine, error) { return machine.ParseString(text) }

// ParseBlock reads a tuple block in the textual form of the paper's
// Figure 3 (e.g. "1: Const 15\n2: Store #b, @1\n...").
func ParseBlock(text string) (*Block, error) { return ir.ParseBlock(text) }

// GapUnknown marks a Compiled whose optimality gap could not be
// certified: the result came from a rung that never built a dependence
// graph, so no admissible bound exists to measure it against.
const GapUnknown = -1

// DefaultLambda is the curtail point used when Options.Lambda is zero.
// It is large relative to the search effort of typical blocks (the paper
// finds most blocks need well under 10^3 steps), so only pathological
// blocks lose their optimality proof.
const DefaultLambda = 1_000_000

// Options configures Compile and Schedule.
type Options struct {
	// Sched selects the scheduler machine model. The zero value is the
	// paper's NOP-minimizing in-order model; MinRegLex, MinRegK and
	// Scoreboard select the extended modes. Compile and Schedule support
	// every mode; ScheduleLarge and the sequence entry points support the
	// in-order modes only (ErrModeUnsupported otherwise). The degraded
	// rungs below Incumbent (Heuristic, Baseline) always fall back to the
	// paper objective: they stay legal and hazard-free but do not honor a
	// pressure bound or scoreboard costing — check Compiled.Quality.
	Sched SchedMode

	// Lambda is the curtail point λ: the maximum number of search steps
	// before giving up the optimality proof. 0 selects DefaultLambda;
	// a negative value disables curtailment entirely (the search may then
	// take super-exponential time on wide blocks).
	Lambda int64

	// Optimize runs constant folding, CSE, dead-code and dead-store
	// elimination, and algebraic peepholes before scheduling.
	Optimize bool

	// Reassociate additionally rebalances associative Add/Mul chains
	// into minimum-height trees before scheduling (implies Optimize).
	// This is an ILP-exposing extension beyond the paper's optimizer:
	// it shortens dependence chains the scheduler cannot otherwise hide,
	// at the price of higher register pressure.
	Reassociate bool

	// Registers is the architectural register count available for
	// post-scheduling allocation; 0 means unlimited.
	Registers int

	// Mode selects the delay mechanism of the emitted assembly.
	Mode DelayMode

	// ExplainNOPs annotates the emitted assembly with a comment before
	// every delayed instruction naming the binding constraint (which
	// producer's latency, or which pipeline's enqueue time, forces it).
	ExplainNOPs bool

	// AssignPipelines enables the exact pipeline-assignment extension for
	// machines where an operation may run on several pipelines (in every
	// search, including ScheduleLarge's windows and sequence blocks).
	AssignPipelines bool

	// StrongEquivalence enables the extended interchangeable-instruction
	// pruning filter (never sacrifices optimality; usually shrinks the
	// search further than the paper's [5c]). Like AssignPipelines and
	// TraceSearch, it applies to ScheduleLarge's windows too.
	StrongEquivalence bool

	// HeuristicOnly skips the branch-and-bound search entirely and
	// returns the Heuristic rung directly: the list-schedule seed priced
	// by the NOP-insertion analysis, with its root-bound certificate
	// (Compiled.Gap). The result is legal and fast but carries no
	// optimality proof (Compiled.Quality == Heuristic). Every entry point
	// honours it: ScheduleLarge prices the whole block's seed instead of
	// searching windows, and a sequence prices every block's seed from the
	// pipeline state the blocks before it left. Services use it as the
	// fail-fast path for blocks whose search has repeatedly blown its
	// budget (see internal/server's circuit breaker).
	HeuristicOnly bool

	// Workers > 1 runs the branch-and-bound in parallel: first-level
	// subtrees fan out across goroutines sharing one atomic incumbent
	// bound. The cost and optimality verdict stay deterministic; which
	// of several equal-cost optima is returned may vary. 0 or 1 keeps
	// the sequential search. ScheduleLarge ignores it: its windows are
	// always searched sequentially.
	Workers int

	// TraceSearch, when positive, records up to this many search events
	// per compile (placements, prunes by class, incumbent improvements,
	// the curtail point) as trace points under the stage:search span, each
	// carrying depth, node, eta, mu and the reporting worker. It takes
	// effect only when a tracer is installed (EnableTracing) and ctx
	// carries a trace (Tracer.StartRoot); ChromeTraceRequest renders the
	// points inside the stage slices. 0 (the default) records none. It
	// does not affect the search result; the bound holds across Workers
	// and across ScheduleLarge's windows, whose node numbers are local to
	// the window.
	TraceSearch int
}

// Compiled is the result of compiling or scheduling one block.
type Compiled struct {
	Source    string // original source text ("" when scheduling raw tuples)
	Original  *Block // tuple block handed to the scheduler (post-optimize)
	Scheduled *Block // the same tuples in optimal (or best-found) order

	Order       []int // scheduled order, as positions into Original
	Eta         []int // NOPs inserted immediately before each position
	Pipes       []int // pipeline binding per position
	TotalNOPs   int   // μ(π), the schedule's delay cost (stall ticks in scoreboard mode)
	InitialNOPs int   // NOPs of the list-schedule seed
	Ticks       int   // total issue ticks (instructions + NOPs)
	Optimal     bool  // true iff provably optimal (search completed)

	// Sched is the scheduler mode the result was produced under.
	Sched SchedMode
	// MaxLive is the schedule's peak register pressure, filled by the
	// register-pressure modes (zero otherwise; see Registers.MaxLive for
	// the post-allocation figure on any rung).
	MaxLive int
	// IssueTicks is the per-position issue tick of the scoreboard model,
	// filled by scoreboard-mode searches (nil otherwise).
	IssueTicks []int

	// RootLB is the admissible lower bound on TotalNOPs computed at the
	// search root (0 when the bound engine was disabled — still a valid,
	// merely trivial, bound).
	RootLB int
	// Gap is the certified optimality gap TotalNOPs − RootLB attached to
	// curtailed, deadline-expired and heuristic results: the schedule is
	// provably within Gap NOPs of optimal. 0 means provably optimal;
	// GapUnknown (-1) means no certificate exists for this result (the
	// Baseline rung schedules without a dependence graph, so no bound
	// can be computed).
	Gap int

	// Quality is the degradation-ladder rung the schedule landed on;
	// Optimal unless the search was cut short or a stage failed.
	Quality Quality
	// Faults lists stage failures that were isolated and recovered from
	// (panics or injected faults); empty on a clean compilation.
	Faults []*StageError

	Registers *regalloc.Assignment
	Assembly  string
	Stats     SearchStats
}

// Compile parses, optionally optimizes, lowers, optimally schedules,
// register-allocates and emits one source block for machine m.
//
// Compile keeps the legacy anytime contract: a curtailed search still
// returns its best schedule with a nil error (check Compiled.Optimal or
// Compiled.Quality). Use CompileCtx to also observe WHY a result is
// degraded, or to bound compile time with a deadline.
func Compile(src string, m *Machine, o Options) (*Compiled, error) {
	return suppressDegraded(CompileCtx(context.Background(), src, m, o))
}

// Schedule optimally schedules an existing tuple block for machine m and
// carries the result through register allocation and code emission. Like
// Compile, it returns degraded-but-legal results with a nil error; use
// ScheduleCtx for deadlines and the typed degradation errors.
func Schedule(block *Block, m *Machine, o Options) (*Compiled, error) {
	return suppressDegraded(ScheduleCtx(context.Background(), block, m, o))
}

// suppressDegraded implements the legacy error contract: degradation
// errors accompany a usable result and are dropped; only hard failures
// (nil result) surface as errors.
func suppressDegraded[T any](r *T, err error) (*T, error) {
	if r != nil {
		return r, nil
	}
	return nil, err
}

// ScheduleLarge schedules a block using the section 5.3 splitting
// strategy: the list schedule is partitioned into windows of at most
// window instructions (0 selects the paper's suggested 20) and each
// window is scheduled locally optimally, threading pipeline state across
// the boundaries. Use it for blocks too large for whole-block search;
// the result is legal and hazard-free but only per-window optimal.
// Compiled.Optimal reports whether every window's search completed;
// Compiled.Gap certifies the result against the whole-block root bound.
//
// Every window's search honours the same Options as Schedule's —
// Lambda (per window), AssignPipelines, StrongEquivalence, TraceSearch and
// HeuristicOnly — except Workers: windows are small and always searched
// sequentially.
func ScheduleLarge(block *Block, m *Machine, window int, o Options) (*Compiled, error) {
	return suppressDegraded(ScheduleLargeCtx(context.Background(), block, m, window, o))
}

// SequenceResult is the outcome of scheduling consecutive blocks with
// pipeline state threaded across the boundaries (the paper's footnote 1).
type SequenceResult struct {
	Blocks     []*Compiled
	TotalNOPs  int
	TotalTicks int  // issue tick of the final instruction of the sequence
	Optimal    bool // every block's search completed
	// Quality is the worst degradation-ladder rung across the blocks.
	Quality Quality
}

// ScheduleSequence schedules a straight-line sequence of blocks,
// threading each block's exit pipeline state into the next block's
// NOP-insertion analysis, so cross-boundary conflicts cost exactly the
// delays they need — no hazards, no pessimistic pipeline drains.
//
// The per-block Compiled results carry each block's own assembly (whose
// leading NOPs implement the boundary delays) and per-block register
// allocation; TotalNOPs and TotalTicks describe the whole sequence, and
// each block's Ticks is the absolute tick of its last issue. The sequence
// walks the same degradation ladder as Schedule, each rung applied to
// every block (Options.HeuristicOnly included), and the delivered
// schedule is replayed on the simulator over the graph of the whole
// sequence, boundary delays included. Like Schedule, it returns
// degraded-but-legal results with a nil error; use ScheduleSequenceCtx to
// observe why. The scoreboard mode is unsupported (ErrModeUnsupported).
func ScheduleSequence(blocks []*Block, m *Machine, o Options) (*SequenceResult, error) {
	return suppressDegraded(ScheduleSequenceCtx(context.Background(), blocks, m, o))
}

// GreedyBaseline schedules block with the Gross-style greedy postpass
// heuristic instead of the optimal search — useful for comparisons.
// It returns the greedy schedule's total NOP count and execution ticks.
func GreedyBaseline(block *Block, m *Machine) (totalNOPs, ticks int, err error) {
	g, err := dag.Build(block)
	if err != nil {
		return 0, 0, err
	}
	r := gross.Schedule(g, m, nopins.AssignFixed)
	return r.TotalNOPs, r.Ticks, nil
}

// CountLegalSchedules counts the block's legal instruction orders
// (topological orders of its dependence DAG), stopping at limit when
// limit > 0 — the size of the paper's "pruning illegal" search space.
func CountLegalSchedules(block *Block, limit int64) (int64, error) {
	g, err := dag.Build(block)
	if err != nil {
		return 0, err
	}
	return exhaustive.CountLegal(g, limit), nil
}

// CompileSequence compiles a multi-block source file (blocks written as
// "block name { ... }"; a plain statement file is one unnamed block),
// scheduling the blocks as a straight-line sequence with pipeline state
// threaded across the boundaries. Each block is lowered — and, per
// Options, optimized — independently, exactly as the paper's compiler
// treats basic blocks, then the blocks are scheduled as ScheduleSequence
// schedules them (footnote 1), with the same Options, ladder and replay.
func CompileSequence(src string, m *Machine, o Options) (*SequenceResult, error) {
	return suppressDegraded(CompileSequenceCtx(context.Background(), src, m, o))
}

// Report renders a human-readable compilation report: the machine, the
// tuple block before and after scheduling, search statistics, the
// register assignment and the assembly. It is what `cmd/pipesched`
// users read when debugging a schedule.
func (c *Compiled) Report(m *Machine) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "=== pipesched report: %s on %s ===\n\n", labelOf(c), m.Name)
	if c.Source != "" {
		fmt.Fprintf(&sb, "--- source ---\n%s\n", strings.TrimSpace(c.Source))
	}
	fmt.Fprintf(&sb, "\n--- tuples (program order) ---\n%s", c.Original)
	fmt.Fprintf(&sb, "\n--- tuples (scheduled order) ---\n%s", c.Scheduled)
	fmt.Fprintf(&sb, "\n--- result ---\n")
	fmt.Fprintf(&sb, "instructions: %d\n", c.Scheduled.Len())
	if !c.Sched.IsPaper() {
		fmt.Fprintf(&sb, "mode:         %s\n", c.Sched)
	}
	if c.Sched.Kind == machine.SchedScoreboard {
		fmt.Fprintf(&sb, "stalls:       %d (seed had %d)\n", c.TotalNOPs, c.InitialNOPs)
	} else {
		fmt.Fprintf(&sb, "NOPs:         %d (seed had %d)\n", c.TotalNOPs, c.InitialNOPs)
	}
	if c.Sched.NeedsPressure() {
		fmt.Fprintf(&sb, "maxlive:      %d\n", c.MaxLive)
	}
	fmt.Fprintf(&sb, "ticks:        %d\n", c.Ticks)
	fmt.Fprintf(&sb, "optimal:      %v\n", c.Optimal)
	fmt.Fprintf(&sb, "quality:      %s\n", c.Quality)
	switch {
	case c.Gap == GapUnknown:
		fmt.Fprintf(&sb, "gap:          unknown (no certificate on this rung)\n")
	case c.Gap == 0:
		fmt.Fprintf(&sb, "gap:          0 (certified optimal, root bound %d)\n", c.RootLB)
	default:
		fmt.Fprintf(&sb, "gap:          %d (within %d NOPs of optimal, root bound %d)\n",
			c.Gap, c.Gap, c.RootLB)
	}
	if len(c.Faults) > 0 {
		fmt.Fprintf(&sb, "faults:       %d stage failure(s) isolated", len(c.Faults))
		for _, f := range c.Faults {
			fmt.Fprintf(&sb, " [%s]", f.Stage)
		}
		fmt.Fprintln(&sb)
	}
	st := c.Stats
	fmt.Fprintf(&sb, "search:       Ω=%d examined=%d improvements=%d curtailed=%v\n",
		st.OmegaCalls, st.SchedulesExamined, st.Improvements, st.Curtailed)
	fmt.Fprintf(&sb, "pruned:       bounds=%d illegal=%d equiv=%d strong=%d αβ=%d lb=%d resource=%d memo=%d pressure=%d\n",
		st.PrunedBounds, st.PrunedIllegal, st.PrunedEquivalence,
		st.PrunedStrongEquiv, st.PrunedAlphaBeta, st.PrunedLowerBound,
		st.PrunedResource, st.MemoHits, st.PrunedPressure)
	if c.Registers != nil {
		fmt.Fprintf(&sb, "registers:    %d used (peak liveness %d)\n",
			c.Registers.NumRegs, c.Registers.MaxLive)
	}
	fmt.Fprintf(&sb, "\n--- assembly ---\n%s", c.Assembly)
	return sb.String()
}

func labelOf(c *Compiled) string {
	if c.Scheduled != nil && c.Scheduled.Label != "" {
		return c.Scheduled.Label
	}
	return "(unnamed block)"
}
