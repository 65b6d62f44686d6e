// Package bound is the search's admissible lower-bound engine: given a
// partial schedule, it computes a provable lower bound on the total NOP
// count of ANY legal completion, maintained in O(1) per search step.
//
// Two bound families are combined (the result is their max):
//
//   - Critical-path / height bound. For every scheduled instruction v the
//     final issue tick is at least issue(v) + tail(v), where tail(v) is
//     the longest latency-weighted path from v to a DAG sink: a flow edge
//     out of u costs the MINIMUM latency over u's allowed pipelines
//     (admissible under every assignment mode), an ordering edge costs
//     one tick. The engine keeps the running maximum over the scheduled
//     prefix, so Push/Pop are O(1).
//
//   - Per-pipeline enqueue-occupancy ("resource") bound. If k unscheduled
//     instructions are forced onto pipeline p with enqueue time e_p, they
//     must enqueue at least e_p ticks apart, the first of them no earlier
//     than max(lastEnqueue(p)+e_p, lastIssue+1); the final issue tick is
//     at least the last of those enqueues. Remaining counts and last
//     enqueue ticks are maintained incrementally per pipeline.
//
// Total NOPs of a complete schedule equal finalIssueTick − N − startTick,
// so a lower bound on the final issue tick is a lower bound on the cost.
// Both bounds are admissible — they never exceed the cost of the best
// completion — so pruning with them can never remove all optimal
// schedules (DESIGN.md §11 carries the full argument).
//
// Root (the bound of the empty schedule) additionally threads a forward
// release-time pass: issue(v) is at least startTick+1, at least the
// cross-block ReadyTick, at least lastEnqueue(p)+e_p for v forced onto an
// entry-occupied pipeline, and at least every predecessor's release plus
// the edge weight. Root certifies results: a search whose incumbent cost
// equals Root is provably optimal without exploring anything, and a
// curtailed search's incumbent carries the certified optimality gap
// incumbent − Root.
package bound

import (
	"slices"

	"pipesched/internal/dag"
	"pipesched/internal/machine"
)

// Config selects the assignment semantics and cross-block entry state the
// bounds must stay admissible under.
type Config struct {
	// FixedAssign mirrors nopins.AssignFixed: the evaluator truncates
	// every op→pipeline set to its first element, so even multi-pipeline
	// ops are forced onto one pipeline (strengthening the resource bound).
	// When false (greedy or search assignment) only singleton sets force.
	FixedAssign bool

	// StartTick is the issue tick of the last instruction issued before
	// this block (0 for a cold start) — nopins.EntryState.StartTick.
	StartTick int

	// PipeLast maps a pipeline ID to the absolute tick of its most recent
	// enqueue before this block — nopins.EntryState.PipeLast.
	PipeLast map[int]int

	// ReadyTick, when non-nil, gives per node the earliest issue tick
	// permitted by dependences outside the block —
	// nopins.EntryState.ReadyTick.
	ReadyTick []int
}

// Engine maintains the combined lower bound for one search. It mirrors
// the search's Push/Pop discipline; all per-step work is O(1).
type Engine struct {
	n         int
	startTick int

	tails []int // longest latency-weighted path from node to any sink
	root  int   // lower bound on total NOPs of any complete schedule

	pipeIDs []int // dense index -> pipeline ID, in machine table order
	enq     []int // per pipe index: enqueue time
	forced  []int // node -> forced pipe index, or -1
	rem     []int // per pipe index: unscheduled forced instructions
	lastEnq []int // per pipe index: absolute tick of latest enqueue (0 = never)

	remTotal int
	drain    int // max over scheduled v of issue(v) + tails[v]

	depth        int
	savedDrain   []int
	savedEnq     []int
	savedEnqPipe []int // pipe index whose lastEnq was overwritten, or -1
}

// New builds the engine for one (graph, machine) pair. The construction
// is O(N + E + P); every Push/Pop after it is O(1).
func New(g *dag.Graph, m *machine.Machine, cfg Config) *Engine {
	n := g.N
	e := &Engine{
		n:            n,
		startTick:    cfg.StartTick,
		pipeIDs:      make([]int, len(m.Pipelines)),
		enq:          make([]int, len(m.Pipelines)),
		forced:       make([]int, n),
		rem:          make([]int, len(m.Pipelines)),
		lastEnq:      make([]int, len(m.Pipelines)),
		remTotal:     n,
		savedDrain:   make([]int, n),
		savedEnq:     make([]int, n),
		savedEnqPipe: make([]int, n),
	}
	for i, p := range m.Pipelines {
		e.pipeIDs[i] = p.ID
		e.enq[i] = p.Enqueue
		if last, ok := cfg.PipeLast[p.ID]; ok {
			e.lastEnq[i] = last
		}
	}

	// Minimum latency per node over its allowed pipelines: the weight a
	// flow edge out of the node carries in the path bounds. Admissible
	// because no assignment mode can make the producer faster.
	minLat := make([]int, n)
	for u := 0; u < n; u++ {
		set := m.PipelinesFor(g.Block.Tuples[u].Op)
		e.forced[u] = -1
		if len(set) == 0 {
			continue
		}
		if cfg.FixedAssign {
			set = set[:1]
		}
		min := m.Latency(set[0])
		for _, p := range set[1:] {
			if l := m.Latency(p); l < min {
				min = l
			}
		}
		minLat[u] = min
		if len(set) == 1 && set[0] != machine.NoPipeline {
			pi := slices.Index(e.pipeIDs, set[0])
			e.forced[u] = pi
			e.rem[pi]++
		}
	}

	weight := func(u int, d dag.Dep) int {
		if d.Kind.CarriesLatency() && minLat[u] > 1 {
			return minLat[u]
		}
		return 1
	}

	// tails: backward longest path (node order is topological).
	e.tails = make([]int, n)
	for u := n - 1; u >= 0; u-- {
		for _, d := range g.Succs[u] {
			if t := weight(u, d) + e.tails[d.Node]; t > e.tails[u] {
				e.tails[u] = t
			}
		}
	}

	// Root: forward release times r(v) — the earliest tick v can issue in
	// ANY legal schedule — then max over v of r(v)+tails[v], the N-wide
	// issue floor, and the per-pipeline occupancy floor.
	release := make([]int, n)
	rootTick := cfg.StartTick + n // one issue slot per instruction
	for v := 0; v < n; v++ {
		r := cfg.StartTick + 1
		if cfg.ReadyTick != nil && cfg.ReadyTick[v] > r {
			r = cfg.ReadyTick[v]
		}
		if pi := e.forced[v]; pi >= 0 && e.lastEnq[pi] > 0 {
			if t := e.lastEnq[pi] + e.enq[pi]; t > r {
				r = t
			}
		}
		for _, d := range g.Preds[v] {
			if t := release[d.Node] + weight(d.Node, d); t > r {
				r = t
			}
		}
		release[v] = r
		if t := r + e.tails[v]; t > rootTick {
			rootTick = t
		}
	}
	for pi, k := range e.rem {
		if k == 0 {
			continue
		}
		first := cfg.StartTick + 1
		if e.lastEnq[pi] > 0 {
			if t := e.lastEnq[pi] + e.enq[pi]; t > first {
				first = t
			}
		}
		if t := first + (k-1)*e.enq[pi]; t > rootTick {
			rootTick = t
		}
	}
	if e.root = rootTick - n - cfg.StartTick; e.root < 0 {
		e.root = 0
	}
	return e
}

// Root returns the admissible lower bound on the total NOP count of any
// complete legal schedule of the block (≥ 0). A schedule costing exactly
// Root is provably optimal; incumbent − Root is a certified optimality
// gap for any incumbent.
func (e *Engine) Root() int { return e.root }

// Push records one placement: node u issued on pipeID (machine.NoPipeline
// when σ = ∅) at the given absolute tick.
func (e *Engine) Push(u, pipeID, issue int) {
	d := e.depth
	e.savedDrain[d] = e.drain
	e.savedEnqPipe[d] = -1
	if t := issue + e.tails[u]; t > e.drain {
		e.drain = t
	}
	if pipeID != machine.NoPipeline {
		if pi := slices.Index(e.pipeIDs, pipeID); pi >= 0 {
			e.savedEnqPipe[d] = pi
			e.savedEnq[d] = e.lastEnq[pi]
			e.lastEnq[pi] = issue
		}
	}
	if pi := e.forced[u]; pi >= 0 {
		e.rem[pi]--
	}
	e.remTotal--
	e.depth++
}

// Pop undoes the most recent Push. The node is implied by the engine's
// own undo stack, so callers need not repeat it.
func (e *Engine) Pop(u int) {
	e.depth--
	d := e.depth
	e.drain = e.savedDrain[d]
	if pi := e.savedEnqPipe[d]; pi >= 0 {
		e.lastEnq[pi] = e.savedEnq[d]
	}
	if pi := e.forced[u]; pi >= 0 {
		e.rem[pi]++
	}
	e.remTotal++
}

// Lower returns the two lower-bound components on the total NOPs of any
// completion of the current partial schedule, given the issue tick of the
// most recently placed instruction: cp is the critical-path/height
// component, res the per-pipeline enqueue-occupancy component. Both are
// admissible individually; callers prune against max(cp, res). Values may
// be negative on loose states; only comparisons against an incumbent
// matter.
func (e *Engine) Lower(lastIssue int) (cp, res int) {
	cp = e.drain - e.n - e.startTick
	res = lastIssue + e.remTotal - e.n - e.startTick // ≡ cost so far
	for pi, k := range e.rem {
		if k == 0 {
			continue
		}
		first := lastIssue + 1
		if e.lastEnq[pi] > 0 {
			if t := e.lastEnq[pi] + e.enq[pi]; t > first {
				first = t
			}
		}
		if t := first + (k-1)*e.enq[pi] - e.n - e.startTick; t > res {
			res = t
		}
	}
	return cp, res
}

// PipeResiduals writes, per pipeline in machine table order, how many
// ticks after lastIssue+1 the pipeline's enqueue slot stays blocked by
// its most recent enqueue (0 = free). This is the residual pipeline
// state the memoization layer keys on; out is reused when it has
// capacity.
func (e *Engine) PipeResiduals(lastIssue int, out []int) []int {
	out = out[:0]
	for pi, last := range e.lastEnq {
		r := 0
		if last > 0 {
			if v := last + e.enq[pi] - (lastIssue + 1); v > 0 {
				r = v
			}
		}
		out = append(out, r)
	}
	return out
}
