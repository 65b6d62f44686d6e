// Package seqsched schedules a straight-line *sequence* of basic blocks,
// implementing the paper's footnote 1: "Interactions between adjacent
// blocks can be managed without major modification of the basic block
// schedules, essentially by modifying the initial conditions in the
// analysis for each block."
//
// Each block is scheduled independently by the optimal search, but the
// NOP-insertion analysis of block k starts from the pipeline state block
// k-1 left behind: the issue tick of its last instruction and the last
// enqueue tick of every pipeline. Without that threading, naively
// concatenating independently-scheduled blocks can violate enqueue
// (conflict) constraints right at the boundary — the simulator catches
// exactly that, and the tests demonstrate it.
//
// Cross-block value flow happens through memory in this IR (tuple
// references never escape a block) and stores carry no pipeline latency,
// so pipeline reservations are the only state that must cross the
// boundary.
package seqsched

import (
	"fmt"

	"pipesched/internal/bound"
	"pipesched/internal/core"
	"pipesched/internal/dag"
	"pipesched/internal/ir"
	"pipesched/internal/listsched"
	"pipesched/internal/machine"
	"pipesched/internal/nopins"
)

// BlockSchedule is the outcome for one block of the sequence.
type BlockSchedule struct {
	Graph     *dag.Graph
	Sched     *core.Schedule
	StartTick int // absolute tick before the block's first issue
	EndTick   int // absolute tick of the block's last issue
}

// Result is a scheduled block sequence.
type Result struct {
	Blocks     []BlockSchedule
	TotalNOPs  int
	TotalTicks int  // issue tick of the final instruction
	Optimal    bool // every block's search completed
	// Stopped is the first block's early-stop reason (core.ErrBudget or
	// a context error), or nil when every search ran to completion.
	Stopped error
	// ExitPipeLast is the last enqueue tick of every pipeline after the
	// final block — with TotalTicks it forms the entry state a following
	// sequence would continue from (ScheduleFrom's entry). Tuple
	// references never escape a block in this IR, so only the clock and
	// pipeline reservations cross the boundary.
	ExitPipeLast map[int]int
}

// blockScheduler produces block i's schedule given its DAG and the entry
// state the preceding blocks left behind.
type blockScheduler func(i int, g *dag.Graph, entry *nopins.EntryState) (*core.Schedule, error)

// Schedule schedules each block in order on m, threading pipeline state
// across the boundaries. opts applies to every block's search (its Entry
// and InitialOrder fields are overridden per block).
func Schedule(blocks []*ir.Block, m *machine.Machine, opts core.Options) (*Result, error) {
	return ScheduleFrom(blocks, m, opts, nil)
}

// ScheduleFrom is Schedule starting from an explicit entry state — the
// clock and pipeline reservations a preceding sequence left behind (see
// Result.ExitPipeLast). A nil entry means a cold start at tick zero.
// Grouping is associative under this threading: scheduling [A,B] and
// continuing with [C] from the exit state yields the same per-block
// schedules and total cost as [A] continued with [B,C].
func ScheduleFrom(blocks []*ir.Block, m *machine.Machine, opts core.Options, entry *nopins.EntryState) (*Result, error) {
	return scheduleWith(blocks, entry, func(_ int, g *dag.Graph, entry *nopins.EntryState) (*core.Schedule, error) {
		o := opts
		o.InitialOrder = nil
		o.Entry = entry
		return core.Find(g, m, o)
	})
}

// ScheduleSeed schedules each block with its list-schedule seed alone —
// no branch-and-bound — while still threading pipeline state across the
// boundaries. It is the heuristic fallback rung of the degradation
// ladder: legal and hazard-free by the same entry-state analysis as
// Schedule, just without optimality. Every block reports Optimal=false.
func ScheduleSeed(blocks []*ir.Block, m *machine.Machine, opts core.Options) (*Result, error) {
	r, err := scheduleWith(blocks, nil, func(_ int, g *dag.Graph, entry *nopins.EntryState) (*core.Schedule, error) {
		s, err := price(g, m, opts.Assign, entry, listsched.Schedule(g, opts.SeedPriority))
		if err != nil {
			return nil, err
		}
		// Even the heuristic rung carries a certificate: the root lower
		// bound under this block's entry state proves the seed is within
		// Gap NOPs of the block's optimum.
		s.RootLB = bound.New(g, m, bound.Config{
			FixedAssign: opts.Assign == nopins.AssignFixed,
			StartTick:   entry.StartTick,
			PipeLast:    entry.PipeLast,
			ReadyTick:   entry.ReadyTick,
		}).Root()
		s.Gap = max(s.TotalNOPs-s.RootLB, 0)
		return s, nil
	})
	if err != nil {
		return nil, err
	}
	r.Optimal = false
	return r, nil
}

// Price keeps each block's given order — orders[i] for blocks[i], a
// legal order of its DAG — and prices it by the NOP-insertion analysis
// under the entry state the preceding blocks left behind. No search
// runs; every block reports Optimal=false.
func Price(blocks []*ir.Block, orders [][]int, m *machine.Machine, assign nopins.AssignMode) (*Result, error) {
	r, err := scheduleWith(blocks, nil, func(i int, g *dag.Graph, entry *nopins.EntryState) (*core.Schedule, error) {
		return price(g, m, assign, entry, orders[i])
	})
	if err != nil {
		return nil, err
	}
	r.Optimal = false
	return r, nil
}

// price evaluates one block's order under its entry state.
func price(g *dag.Graph, m *machine.Machine, assign nopins.AssignMode, entry *nopins.EntryState, order []int) (*core.Schedule, error) {
	eval := nopins.NewEvaluator(g, m, assign)
	eval.SetEntryState(entry)
	res, err := eval.EvaluateOrder(order)
	if err != nil {
		return nil, err
	}
	return &core.Schedule{
		Order: res.Order, Eta: res.Eta, Pipes: res.Pipes,
		TotalNOPs: res.TotalNOPs, Ticks: res.Ticks,
		InitialNOPs: res.TotalNOPs,
	}, nil
}

func scheduleWith(blocks []*ir.Block, entry *nopins.EntryState, schedule blockScheduler) (*Result, error) {
	res := &Result{Optimal: true}
	startTick := 0
	pipeLast := map[int]int{}
	if entry != nil {
		startTick = entry.StartTick
		for k, v := range entry.PipeLast {
			pipeLast[k] = v
		}
	}
	for bi, b := range blocks {
		g, err := dag.Build(b)
		if err != nil {
			return nil, fmt.Errorf("seqsched: block %d: %w", bi, err)
		}
		entryPipes := make(map[int]int, len(pipeLast))
		for k, v := range pipeLast {
			entryPipes[k] = v
		}
		sched, err := schedule(bi, g, &nopins.EntryState{StartTick: startTick, PipeLast: entryPipes})
		if err != nil {
			return nil, fmt.Errorf("seqsched: block %d: %w", bi, err)
		}
		bs := BlockSchedule{Graph: g, Sched: sched, StartTick: startTick}

		// Advance the absolute clock and pipeline reservations.
		tick := startTick
		for k := range sched.Order {
			tick += sched.Eta[k] + 1
			if p := sched.Pipes[k]; p != machine.NoPipeline {
				pipeLast[p] = tick
			}
		}
		if g.N > 0 && tick != sched.Ticks {
			return nil, fmt.Errorf("seqsched: block %d tick mismatch: %d vs %d", bi, tick, sched.Ticks)
		}
		bs.EndTick = tick
		startTick = tick
		res.TotalNOPs += sched.TotalNOPs
		res.Optimal = res.Optimal && sched.Optimal
		if res.Stopped == nil {
			res.Stopped = sched.Stopped
		}
		res.Blocks = append(res.Blocks, bs)
	}
	res.TotalTicks = startTick
	res.ExitPipeLast = pipeLast
	return res, nil
}

// Flatten concatenates the per-block schedules into one combined graph
// plus global order/eta/pipes arrays, suitable for simulation or code
// emission of the whole sequence. It returns the combined dependence
// graph (built over ir.Concat of the blocks) and the arrays.
func Flatten(r *Result) (*dag.Graph, []int, []int, []int, error) {
	var blocks []*ir.Block
	for _, bs := range r.Blocks {
		blocks = append(blocks, bs.Graph.Block)
	}
	combined, err := ir.Concat("sequence", blocks...)
	if err != nil {
		return nil, nil, nil, nil, err
	}
	g, err := dag.Build(combined)
	if err != nil {
		return nil, nil, nil, nil, err
	}
	order, eta, pipes := r.Concat()
	return g, order, eta, pipes, nil
}

// Concat concatenates the per-block schedules into global order, eta and
// pipes arrays over the nodes of ir.Concat of the blocks (block i's node
// u is node u plus the sizes of the blocks before it).
func (r *Result) Concat() (order, eta, pipes []int) {
	offset := 0
	for _, bs := range r.Blocks {
		for k, u := range bs.Sched.Order {
			order = append(order, offset+u)
			eta = append(eta, bs.Sched.Eta[k])
			pipes = append(pipes, bs.Sched.Pipes[k])
		}
		offset += bs.Graph.N
	}
	return order, eta, pipes
}
