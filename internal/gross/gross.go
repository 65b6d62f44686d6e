// Package gross implements a greedy postpass list scheduler in the style
// of Gross [Gro83] and Gibbons–Muchnick — the heuristic family the paper
// positions its optimal search against.
//
// The scheduler walks the clock tick by tick. At every tick it considers
// the instructions whose dependence predecessors have all issued and
// whose latency and enqueue constraints are satisfied *at this tick*, and
// greedily issues the one with the longest dependence path below it
// (critical path first; ties to more successors, then program order).
// When nothing can issue, the tick becomes a NOP. The result is fast and
// usually good, but — unlike internal/core — carries no optimality
// guarantee.
package gross

import (
	"pipesched/internal/dag"
	"pipesched/internal/machine"
	"pipesched/internal/nopins"
)

// Schedule greedily schedules g for m and returns the resulting order
// with its NOP counts (same Result shape as the optimal search uses, so
// the two are directly comparable). Pipeline assignment follows mode.
func Schedule(g *dag.Graph, m *machine.Machine, mode nopins.AssignMode) nopins.Result {
	n := g.N
	if n == 0 {
		return nopins.Result{Order: []int{}, Eta: []int{}, Pipes: []int{}}
	}

	issueTick := make([]int, n) // tick each node issued at (1-based)
	pipeOf := make([]int, n)    // pipeline each node was bound to
	scheduled := make([]bool, n)
	remaining := make([]int, n)
	for u := 0; u < n; u++ {
		remaining[u] = len(g.Preds[u])
	}
	var buf [8]int
	lastEnqueue := buf[:] // pipeline index -> tick of most recent enqueue, 0 before any
	if len(m.Pipelines) > len(buf) {
		lastEnqueue = make([]int, len(m.Pipelines))
	}

	// pipesFor mirrors the evaluator's assignment modes: fixed uses the
	// first allowed pipeline, greedy may use any.
	pipesFor := func(u int) []int {
		set := m.PipelinesFor(g.Block.Tuples[u].Op)
		if len(set) == 0 {
			return []int{machine.NoPipeline}
		}
		if mode == nopins.AssignFixed {
			return set[:1]
		}
		return set
	}

	// canIssue reports whether u may issue at tick on some allowed
	// pipeline, returning the chosen pipeline.
	canIssue := func(u, tick int) (int, bool) {
		for _, d := range g.Preds[u] {
			if !d.Kind.CarriesLatency() {
				continue
			}
			if tick-issueTick[d.Node] < m.Latency(pipeOf[d.Node]) {
				return 0, false
			}
		}
		for _, p := range pipesFor(u) {
			k := m.PipelineIndex(p) // -1 for NoPipeline
			if k < 0 || lastEnqueue[k] == 0 || tick-lastEnqueue[k] >= m.Pipelines[k].Enqueue {
				return p, true
			}
		}
		return 0, false
	}

	order := make([]int, 0, n)
	eta := make([]int, 0, n)
	pipes := make([]int, 0, n)
	tick := 0
	pendingNops := 0
	for len(order) < n {
		tick++
		bestNode, bestPipe := -1, 0
		for u := 0; u < n; u++ {
			if scheduled[u] || remaining[u] != 0 {
				continue
			}
			p, ok := canIssue(u, tick)
			if !ok {
				continue
			}
			if bestNode < 0 || better(g, u, bestNode) {
				bestNode, bestPipe = u, p
			}
		}
		if bestNode < 0 {
			pendingNops++ // nothing could issue: this tick is a NOP
			continue
		}
		scheduled[bestNode] = true
		issueTick[bestNode] = tick
		pipeOf[bestNode] = bestPipe
		if k := m.PipelineIndex(bestPipe); k >= 0 {
			lastEnqueue[k] = tick
		}
		for _, d := range g.Succs[bestNode] {
			remaining[d.Node]--
		}
		order = append(order, bestNode)
		eta = append(eta, pendingNops)
		pipes = append(pipes, bestPipe)
		pendingNops = 0
	}

	total := 0
	for _, e := range eta {
		total += e
	}
	return nopins.Result{Order: order, Eta: eta, Pipes: pipes, TotalNOPs: total, Ticks: tick}
}

// better reports whether ready node u beats v under the greedy priority:
// greatest height, then most immediate successors, then program order.
func better(g *dag.Graph, u, v int) bool {
	if g.Height(u) != g.Height(v) {
		return g.Height(u) > g.Height(v)
	}
	if len(g.Succs[u]) != len(g.Succs[v]) {
		return len(g.Succs[u]) > len(g.Succs[v])
	}
	return u < v
}
