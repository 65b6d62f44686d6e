// Package bound is the search's admissible lower-bound engine: given a
// partial schedule, it computes a provable lower bound on the total NOP
// count of ANY legal completion, maintained in O(1) per search step.
//
// Two bound families are combined (the result is their max):
//
//   - Critical-path / height bound. For every instruction v the final
//     issue tick is at least issue(v) + tail(v), where tail(v) is the
//     longest latency-weighted path from v to a DAG sink: a flow edge
//     out of u costs the MINIMUM latency over u's allowed pipelines
//     (admissible under every assignment mode), an ordering edge costs
//     one tick. The engine keeps the running maximum over the scheduled
//     prefix, and every unscheduled v issues at lastIssue+1 or later, so
//     the tallest of them adds lastIssue + 1 + tail(v); an index into the
//     nodes sorted by falling tail finds it. Push/Pop are O(1) apart from
//     the index's skip past scheduled nodes.
//
//   - Per-pipeline enqueue-occupancy ("resource") bound. If k unscheduled
//     instructions are forced onto pipeline p with enqueue time e_p, they
//     must enqueue at least e_p ticks apart, the first of them no earlier
//     than max(lastEnqueue(p)+e_p, lastIssue+1); the last of those
//     enqueues is followed by its own tail, at least minTail(p), the
//     smallest tail among p's forced nodes. Remaining counts and last
//     enqueue ticks are maintained incrementally per pipeline.
//
// Total NOPs of a complete schedule equal finalIssueTick − N − startTick,
// so a lower bound on the final issue tick is a lower bound on the cost.
// Both bounds are admissible — they never exceed the cost of the best
// completion — so pruning with them can never remove all optimal
// schedules (DESIGN.md §11 carries the full argument).
//
// Root (the bound of the empty schedule) threads a forward release-time
// pass: issue(v) is at least startTick+1, at least the cross-block
// ReadyTick, at least lastEnqueue(p)+e_p for v forced onto an
// entry-occupied pipeline, and at least every predecessor's release plus
// the edge weight. Over the nodes released at or after each threshold r —
// all of them, and those forced onto each pipeline — one sweep by falling
// release takes the single-machine bound with release dates: the last of
// cnt such nodes on p issues at r + (cnt−1)·e_p or later and adds
// minTail, and the last of cnt nodes at all issues at r + cnt − 1 or
// later. Root certifies results: a search whose incumbent cost equals
// Root is provably optimal without exploring anything, and a curtailed
// search's incumbent carries the certified optimality gap
// incumbent − Root.
package bound

import (
	"math"
	"math/bits"
	"slices"

	"pipesched/internal/dag"
	"pipesched/internal/machine"
	"pipesched/internal/nopins"
)

// Config selects the assignment semantics the bounds must stay
// admissible under.
type Config struct {
	// FixedAssign mirrors nopins.AssignFixed: the evaluator truncates
	// every op→pipeline set to its first element, so even multi-pipeline
	// ops are forced onto one pipeline (strengthening the resource bound).
	// When false (greedy or search assignment) only singleton sets force.
	FixedAssign bool
}

// Engine maintains the combined lower bound for one search. It mirrors
// the search's Push/Pop discipline; all per-step work is O(1) apart from
// the tallest-node index's skip.
type Engine struct {
	n         int
	startTick int

	tails  []int // longest latency-weighted path from node to any sink
	byTail []int // nodes by falling tail
	root   int   // lower bound on total NOPs of any complete schedule

	m       *machine.Machine
	enq     []int // per pipe index: enqueue time
	minTail []int // per pipe index: smallest tail among its forced nodes
	forced  []int // node -> forced pipe index, or -1
	rem     []int // per pipe index: unscheduled forced instructions
	lastEnq []int // per pipe index: absolute tick of latest enqueue (0 = never)

	remTotal int
	drain    int    // max over scheduled v of issue(v) + tails[v]
	done     []bool // node -> scheduled
	tallest  int    // index in byTail of the tallest unscheduled node

	depth        int
	savedDrain   []int
	savedTallest []int
	savedEnq     []int
	savedEnqPipe []int // pipe index whose lastEnq was overwritten, or -1
}

// New builds the engine for one (graph, machine) pair entered from entry,
// the cross-block state the search's evaluator starts from (nil for a
// cold start). The construction is O(N log N + E + P); every Push/Pop
// after it is O(1) apart from the tallest-node index's skip.
func New(g *dag.Graph, m *machine.Machine, cfg Config, entry *nopins.EntryState) *Engine {
	if entry == nil {
		entry = &nopins.EntryState{}
	}
	n, np := g.N, len(m.Pipelines)
	// One allocation backs every per-node and per-pipeline array, New's
	// own scratch included: most searches stop at the root, so the
	// engine's setup is a visible share of their cost.
	slab := make([]int, 10*n+6*np)
	ints := func(k int) []int {
		s := slab[:k:k]
		slab = slab[k:]
		return s
	}
	e := &Engine{
		n:            n,
		startTick:    entry.StartTick,
		tails:        ints(n),
		byTail:       ints(n),
		m:            m,
		enq:          ints(np),
		minTail:      ints(np),
		forced:       ints(n),
		rem:          ints(np),
		lastEnq:      ints(np),
		remTotal:     n,
		done:         make([]bool, n),
		savedDrain:   ints(n),
		savedTallest: ints(n),
		savedEnq:     ints(n),
		savedEnqPipe: ints(n),
	}
	for i, p := range m.Pipelines {
		e.enq[i] = p.Enqueue
		e.minTail[i] = math.MaxInt
	}
	copy(e.lastEnq, entry.PipeLast)

	// Minimum latency per node over its allowed pipelines: the weight a
	// flow edge out of the node carries in the path bounds. Admissible
	// because no assignment mode can make the producer faster.
	minLat := ints(n)
	for u := 0; u < n; u++ {
		set := m.PipelinesFor(g.Block.Tuples[u].Op)
		e.forced[u] = -1
		if len(set) == 0 {
			continue
		}
		if cfg.FixedAssign {
			set = set[:1]
		}
		minLat[u] = m.Latency(set[0])
		for _, p := range set[1:] {
			minLat[u] = min(minLat[u], m.Latency(p))
		}
		if len(set) == 1 && set[0] != machine.NoPipeline {
			pi := m.PipelineIndex(set[0])
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
	for u := n - 1; u >= 0; u-- {
		for _, d := range g.Succs[u] {
			if t := weight(u, d) + e.tails[d.Node]; t > e.tails[u] {
				e.tails[u] = t
			}
		}
		if pi := e.forced[u]; pi >= 0 {
			e.minTail[pi] = min(e.minTail[pi], e.tails[u])
		}
	}
	sortFalling(e.byTail, e.tails)

	// Root: forward release times r(v) — the earliest tick v can issue in
	// ANY legal schedule — giving the critical path max r(v)+tails[v],
	// then the release-date sweep.
	release, byRelease := ints(n), ints(n)
	rootTick := 0
	for v := 0; v < n; v++ {
		r := entry.StartTick + 1
		if entry.ReadyTick != nil && entry.ReadyTick[v] > r {
			r = entry.ReadyTick[v]
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
		rootTick = max(rootTick, r+e.tails[v])
	}
	// The sweep: the nodes released at or after r(v), taken in falling
	// release order, are cnt instructions that issue on distinct ticks
	// from r(v) on, so the last of them issues at r(v)+cnt−1 or later
	// (the N-wide issue floor is the last step). The set holds every
	// descendant of its members, sinks included, so its smallest tail is
	// 0 and adds nothing. Those forced onto one pipeline p also enqueue
	// e_p apart, and the last of them adds its tail: at least the
	// smallest over the set. No descendant of that last node can share
	// the set, as it would issue later still.
	sortFalling(byRelease, release)
	cnt, minTail := ints(np), ints(np)
	for pi := range minTail {
		minTail[pi] = math.MaxInt
	}
	for i, v := range byRelease {
		r := release[v]
		rootTick = max(rootTick, r+i)
		if pi := e.forced[v]; pi >= 0 {
			cnt[pi]++
			minTail[pi] = min(minTail[pi], e.tails[v])
			rootTick = max(rootTick, r+(cnt[pi]-1)*e.enq[pi]+minTail[pi])
		}
	}
	if e.root = rootTick - n - entry.StartTick; e.root < 0 {
		e.root = 0
	}
	return e
}

// sortFalling fills nodes with 0..len−1 ordered by falling value, ties by
// node number. It sorts packed keys −value·2^s + node, which keeps the
// comparator out of the sort: the engine is built once per search.
func sortFalling(nodes, value []int) {
	s := bits.Len(uint(len(nodes)))
	for u := range nodes {
		nodes[u] = -value[u]<<s | u
	}
	slices.Sort(nodes)
	for i, k := range nodes {
		nodes[i] = k & (1<<s - 1)
	}
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
	e.savedTallest[d] = e.tallest
	e.savedEnqPipe[d] = -1
	if t := issue + e.tails[u]; t > e.drain {
		e.drain = t
	}
	e.done[u] = true
	for e.tallest < e.n && e.done[e.byTail[e.tallest]] {
		e.tallest++
	}
	if pi := e.m.PipelineIndex(pipeID); pi >= 0 {
		e.savedEnqPipe[d] = pi
		e.savedEnq[d] = e.lastEnq[pi]
		e.lastEnq[pi] = issue
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
	e.tallest = e.savedTallest[d]
	e.done[u] = false
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
// component (the scheduled drain and the tallest unscheduled node), res
// the issue-slot and per-pipeline enqueue-occupancy component. Both are
// admissible individually; callers prune against max(cp, res). Values may
// be negative on loose states; only comparisons against an incumbent
// matter. A call is O(pipelines).
func (e *Engine) Lower(lastIssue int) (cp, res int) {
	cp = e.drain
	if e.tallest < e.n {
		cp = max(cp, lastIssue+1+e.tails[e.byTail[e.tallest]])
	}
	res = lastIssue + e.remTotal // one issue slot per instruction
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
		res = max(res, first+(k-1)*e.enq[pi]+e.minTail[pi])
	}
	return cp - e.n - e.startTick, res - e.n - e.startTick
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
