// Package nopins implements the paper's NOP insertion algorithm
// (section 4.2.2) — the procedure the paper calls Ω (or Q): given a
// schedule prefix, compute the minimum number of NOPs that must precede
// the next instruction so that no pipeline conflict or dependence is
// violated.
//
// The Evaluator keeps the state of a partial schedule and supports O(1)
// undo (Pop), which is what makes the branch-and-bound search in
// internal/core cheap: each search step is one Push/Pop pair rather than
// an O(n) re-evaluation of the whole prefix.
//
// Timing model: instruction at (0-based) position i issues at tick
// t(i) = Σ_{k≤i} (η(k)+1) where η(k) is the number of NOPs inserted
// immediately before position k. The gap τ between two issued
// instructions is the difference of their issue ticks.
//
//   - Conflict (enqueue) rule: if positions j < i use the same pipeline,
//     then t(i) − t(j) ≥ enqueue time of that pipeline.
//   - Dependence (latency) rule: if the instruction at position i has a
//     flow dependence on the one at position j, then t(i) − t(j) ≥
//     latency of the producer's pipeline. Memory-ordering edges
//     (anti/output) carry no latency; issue order alone satisfies them.
package nopins

import (
	"fmt"
	"math"
	"slices"

	"pipesched/internal/dag"
	"pipesched/internal/machine"
)

// AssignMode selects how operations are bound to pipelines when the
// machine's op→pipeline sets are not singletons.
type AssignMode uint8

const (
	// AssignFixed always uses the first pipeline in the op's set. This is
	// the paper's core model (footnote 3: the presented algorithm does not
	// choose between multiple viable pipelines).
	AssignFixed AssignMode = iota
	// AssignGreedy picks, at each placement, the allowed pipeline that
	// yields the fewest NOPs for that instruction (ties to the lowest ID).
	// This is the pipeline-assignment extension described in DESIGN.md.
	AssignGreedy
)

// Evaluator computes NOP counts for incrementally built schedules of one
// block on one machine.
type Evaluator struct {
	G    *dag.Graph
	M    *machine.Machine
	Mode AssignMode

	pipeSets [][]int        // node -> allowed pipeline IDs (singleton under AssignFixed)
	timing   [][]pipeTiming // node -> the timing of each pipeSets entry

	// Per-position state of the current partial schedule.
	nodeAt    []int // position -> node
	pipeAt    []int // position -> assigned pipeline ID
	latAt     []int // position -> latency of its pipeline
	etaAt     []int // position -> NOPs inserted immediately before it
	issue     []int // position -> issue tick t(i)
	slotAt    []int // position -> its pipeline's slot, or -1
	savedLast []int // position -> the lastEnq entry its push replaced
	posOf     []int // node -> position, or -1 if unscheduled
	n         int   // number of placed positions
	total     int   // μ of the current partial schedule

	// lastEnq is, per pipeline slot (machine.PipelineIndex), the tick of
	// its most recent enqueue: in the prefix, else EntryState.PipeLast,
	// else noEnqueue.
	lastEnq []int

	entry EntryState // cross-block initial conditions (zero = cold start)
}

// noEnqueue is lastEnq for a pipeline that has never accepted an
// instruction: far enough back that no enqueue time can reach past it.
const noEnqueue = math.MinInt / 2

// pipeTiming is one pipeline's latency, enqueue time and slot (zero, zero
// and -1 for machine.NoPipeline), resolved once so Ω does no machine
// lookups.
type pipeTiming struct{ lat, enq, slot int }

// NewEvaluator prepares an evaluator for graph g on machine m.
func NewEvaluator(g *dag.Graph, m *machine.Machine, mode AssignMode) *Evaluator {
	// One allocation backs every per-position, per-node and per-pipeline
	// array: an evaluator is built for every search, most of which stop
	// at the root.
	n := g.N
	ints := make([]int, 8*n+len(m.Pipelines))
	e := &Evaluator{
		G:         g,
		M:         m,
		Mode:      mode,
		pipeSets:  make([][]int, n),
		timing:    make([][]pipeTiming, n),
		nodeAt:    ints[0*n : 1*n : 1*n],
		pipeAt:    ints[1*n : 2*n : 2*n],
		latAt:     ints[2*n : 3*n : 3*n],
		etaAt:     ints[3*n : 4*n : 4*n],
		issue:     ints[4*n : 5*n : 5*n],
		slotAt:    ints[5*n : 6*n : 6*n],
		savedLast: ints[6*n : 7*n : 7*n],
		posOf:     ints[7*n : 8*n : 8*n],
		lastEnq:   ints[8*n:],
	}
	// One backing array for every node's timing: sets are mostly
	// singletons, and a subslice stays valid if append moves the rest.
	timing := make([]pipeTiming, 0, g.N)
	for u := 0; u < g.N; u++ {
		op := g.Block.Tuples[u].Op
		set := m.PipelinesFor(op)
		if mode == AssignFixed && len(set) > 1 {
			set = set[:1]
		}
		if len(set) == 0 {
			set = []int{machine.NoPipeline}
		}
		e.pipeSets[u] = set
		start := len(timing)
		for _, p := range set {
			timing = append(timing, pipeTiming{lat: m.Latency(p), enq: m.EnqueueTime(p), slot: m.PipelineIndex(p)})
		}
		e.timing[u] = timing[start:len(timing):len(timing)]
		e.posOf[u] = -1
	}
	e.Reset()
	return e
}

// Reset empties the partial schedule.
func (e *Evaluator) Reset() {
	for i := 0; i < e.n; i++ {
		e.posOf[e.nodeAt[i]] = -1
	}
	e.n = 0
	e.total = 0
	for s := range e.lastEnq {
		e.lastEnq[s] = noEnqueue
		if e.entry.PipeLast != nil && e.entry.PipeLast[s] > 0 {
			e.lastEnq[s] = e.entry.PipeLast[s]
		}
	}
}

// Len returns the number of instructions placed so far.
func (e *Evaluator) Len() int { return e.n }

// TotalNOPs returns μ(Φ), the NOPs required by the current partial
// schedule.
func (e *Evaluator) TotalNOPs() int { return e.total }

// Scheduled reports whether node u is in the current partial schedule.
func (e *Evaluator) Scheduled(u int) bool { return e.posOf[u] >= 0 }

// NodeAt returns the node placed at position i.
func (e *Evaluator) NodeAt(i int) int { return e.nodeAt[i] }

// PipeAt returns the pipeline assigned to the instruction at position i.
func (e *Evaluator) PipeAt(i int) int { return e.pipeAt[i] }

// LatencyAt returns the latency of the pipeline at position i (0 when
// the instruction uses none).
func (e *Evaluator) LatencyAt(i int) int { return e.latAt[i] }

// IssueAt returns the issue tick t(i) of position i (first tick is 1).
func (e *Evaluator) IssueAt(i int) int { return e.issue[i] }

// Ready reports whether all of u's immediate predecessors are scheduled
// (the paper's exact legality test [5b]: ρ(ξ) ⊆ Φ).
func (e *Evaluator) Ready(u int) bool {
	for _, d := range e.G.Preds[u] {
		if e.posOf[d.Node] < 0 {
			return false
		}
	}
	return true
}

// etaFor computes the NOPs that placing node u on its k-th allowed
// pipeline at the next position would require, without modifying the
// schedule. It panics if a predecessor of u is unscheduled (callers must
// check Ready first).
func (e *Evaluator) etaFor(u, k int) int {
	tm := e.timing[u][k]
	prevIssue := e.entry.StartTick
	if e.n > 0 {
		prevIssue = e.issue[e.n-1]
	}
	// base(t) = prevIssue + 1 − t is the gap to an earlier issue tick t
	// assuming η(i) = 0; η(i) widens every gap by the same amount, so the
	// exact η is the largest deficit over the constraints below.
	need := 0
	if e.entry.ReadyTick != nil {
		// External dependence: issue = prevIssue + η + 1 ≥ ReadyTick[u].
		need = max(need, e.entry.ReadyTick[u]-prevIssue-1)
	}
	// Conflict check: only the pipeline's most recent enqueue binds — an
	// earlier one is at least the enqueue time further back already.
	if tm.slot >= 0 {
		need = max(need, tm.enq-(prevIssue+1-e.lastEnq[tm.slot]))
	}
	// Dependence check: each flow predecessor imposes
	// η(i) ≥ latency(producer pipe) − base(issue(producer)).
	for _, d := range e.G.Preds[u] {
		if !d.Kind.CarriesLatency() {
			continue
		}
		jp := e.posOf[d.Node]
		if jp < 0 {
			panic(fmt.Sprintf("nopins: predecessor %d of node %d not scheduled", d.Node, u))
		}
		need = max(need, e.latAt[jp]-(prevIssue+1-e.issue[jp]))
	}
	return need
}

// choosePipe returns the index into u's allowed set of the pipeline the
// evaluator would assign to node u at the next position, along with the
// NOPs that choice costs. Under AssignFixed the choice is the op's first
// pipeline; under AssignGreedy it is the cheapest allowed pipeline
// (ties to the earliest).
func (e *Evaluator) choosePipe(u int) (k, eta int) {
	eta = e.etaFor(u, 0)
	if e.Mode == AssignGreedy {
		for j := 1; j < len(e.pipeSets[u]); j++ {
			if c := e.etaFor(u, j); c < eta {
				k, eta = j, c
			}
		}
	}
	return k, eta
}

// PipeChoices returns the allowed pipeline IDs for node u.
func (e *Evaluator) PipeChoices(u int) []int { return e.pipeSets[u] }

// Push appends node u to the schedule, assigning its pipeline per the
// evaluator's mode, and returns η for the new position.
func (e *Evaluator) Push(u int) int {
	k, eta := e.choosePipe(u)
	e.pushWith(u, k, eta)
	return eta
}

// PushWithPipe appends node u bound to an explicit pipeline (which must
// be in the node's allowed set) and returns η for the new position. It is
// used by the assignment-search extension.
func (e *Evaluator) PushWithPipe(u, pipe int) int {
	k := slices.Index(e.pipeSets[u], pipe)
	if k < 0 {
		panic(fmt.Sprintf("nopins: pipeline %d not allowed for node %d", pipe, u))
	}
	eta := e.etaFor(u, k)
	e.pushWith(u, k, eta)
	return eta
}

// pushWith appends node u on its k-th allowed pipeline.
func (e *Evaluator) pushWith(u, k, eta int) {
	if e.posOf[u] >= 0 {
		panic(fmt.Sprintf("nopins: node %d already scheduled", u))
	}
	i := e.n
	e.nodeAt[i] = u
	e.pipeAt[i] = e.pipeSets[u][k]
	e.latAt[i] = e.timing[u][k].lat
	e.etaAt[i] = eta
	if i == 0 {
		e.issue[i] = e.entry.StartTick + eta + 1
	} else {
		e.issue[i] = e.issue[i-1] + eta + 1
	}
	e.slotAt[i] = e.timing[u][k].slot
	if slot := e.slotAt[i]; slot >= 0 {
		e.savedLast[i], e.lastEnq[slot] = e.lastEnq[slot], e.issue[i]
	}
	e.posOf[u] = i
	e.total += eta
	e.n++
}

// Pop removes the most recently pushed instruction.
func (e *Evaluator) Pop() {
	if e.n == 0 {
		panic("nopins: Pop on empty schedule")
	}
	e.n--
	e.total -= e.etaAt[e.n]
	e.posOf[e.nodeAt[e.n]] = -1
	if slot := e.slotAt[e.n]; slot >= 0 {
		e.lastEnq[slot] = e.savedLast[e.n]
	}
}

// Result is a fully evaluated schedule: the execution order (as nodes of
// the graph), per-position NOP counts and pipeline assignments, and the
// total.
type Result struct {
	Order     []int // position -> node
	Eta       []int // position -> NOPs inserted immediately before it
	Pipes     []int // position -> pipeline assignment
	TotalNOPs int
	Ticks     int // total execution ticks: instructions + NOPs
}

// snapshot copies the evaluator's complete current schedule.
func (e *Evaluator) snapshot() Result {
	r := Result{
		Order:     append([]int(nil), e.nodeAt[:e.n]...),
		Eta:       append([]int(nil), e.etaAt[:e.n]...),
		Pipes:     append([]int(nil), e.pipeAt[:e.n]...),
		TotalNOPs: e.total,
	}
	if e.n > 0 {
		r.Ticks = e.issue[e.n-1]
	}
	return r
}

// Snapshot returns a copy of the current (complete or partial) schedule.
func (e *Evaluator) Snapshot() Result { return e.snapshot() }

// EvaluateOrder runs the full NOP insertion algorithm over a complete
// proposed order (the paper's procedure Q applied to one schedule). The
// evaluator's previous state is discarded. It returns an error if order
// is not a legal topological order of the graph.
func (e *Evaluator) EvaluateOrder(order []int) (Result, error) {
	if !e.G.IsLegalOrder(order) {
		return Result{}, fmt.Errorf("nopins: order %v violates dependences", order)
	}
	e.Reset()
	for _, u := range order {
		e.Push(u)
	}
	return e.snapshot(), nil
}

// EntryState carries pipeline conditions into a block, supporting the
// paper's footnote 1 ("interactions between adjacent blocks can be
// managed ... by modifying the initial conditions in the analysis for
// each block") and the section 5.3 block-splitting strategy. All ticks
// are absolute: the first instruction of this block issues no earlier
// than StartTick+1.
type EntryState struct {
	// StartTick is the issue tick of the last instruction already issued
	// before this block; 0 means a cold start.
	StartTick int
	// ReadyTick, when non-nil, gives per node the earliest issue tick
	// permitted by dependences on instructions OUTSIDE the block (e.g.
	// values still in flight from the previous block or window).
	ReadyTick []int
	// PipeLast, when non-nil, gives per pipeline slot (the machine's
	// PipelineIndex) the absolute tick of its most recent enqueue before
	// this block, for cross-boundary conflict (enqueue-time) constraints.
	// Issue ticks start at 1, so 0 means the pipeline was never enqueued.
	PipeLast []int
}

// Advance moves s past a piece of code scheduled from it: position k
// issues after eta[k] NOPs on pipeline pipes[k]. s.PipeLast must hold a
// slot per pipeline of m. issue, when non-nil, receives each position's
// absolute issue tick.
func (s *EntryState) Advance(m *machine.Machine, eta, pipes, issue []int) {
	for k, p := range pipes {
		s.StartTick += eta[k] + 1
		if issue != nil {
			issue[k] = s.StartTick
		}
		if slot := m.PipelineIndex(p); slot >= 0 {
			s.PipeLast[slot] = s.StartTick
		}
	}
}

// SetEntryState installs entry conditions and resets the schedule. A nil
// state restores the default cold start.
func (e *Evaluator) SetEntryState(s *EntryState) {
	if s == nil {
		e.entry = EntryState{}
	} else {
		if s.ReadyTick != nil && len(s.ReadyTick) != e.G.N {
			panic(fmt.Sprintf("nopins: ReadyTick length %d != %d nodes", len(s.ReadyTick), e.G.N))
		}
		if s.PipeLast != nil && len(s.PipeLast) != len(e.M.Pipelines) {
			panic(fmt.Sprintf("nopins: PipeLast length %d != %d pipelines", len(s.PipeLast), len(e.M.Pipelines)))
		}
		e.entry = *s
	}
	e.Reset()
}
