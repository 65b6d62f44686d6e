// Package seqsched schedules code in pieces, each piece starting from
// the pipeline state the pieces before it left. The paper uses this one
// idea twice:
//
//   - Footnote 1, for a straight-line *sequence* of basic blocks:
//     "Interactions between adjacent blocks can be managed without major
//     modification of the basic block schedules, essentially by
//     modifying the initial conditions in the analysis for each block."
//     Schedule, ScheduleSeed and Price take this path.
//   - Section 5.3, for a block too large to search whole: "it might be
//     useful to split the basic blocks into smaller sections (containing,
//     say, twenty instructions or less each) and find solutions which are
//     locally optimal. A good heuristic for the split might be to simply
//     partition the list schedule." Windows takes this path.
//
// Each piece is scheduled independently, but the NOP-insertion analysis
// of piece k starts from the nopins.EntryState piece k-1 left behind: the
// issue tick of its last instruction and the last enqueue tick of every
// pipeline. Without that threading, naively concatenating
// independently-scheduled pieces can violate enqueue (conflict)
// constraints right at the boundary — the simulator catches exactly
// that, and the tests demonstrate it.
//
// Cross-block value flow happens through memory in this IR (tuple
// references never escape a block) and stores carry no pipeline latency,
// so pipeline reservations are the only state that must cross a block
// boundary. A window's operands may still be in flight from an earlier
// window; they become the window's ready ticks.
package seqsched

import (
	"fmt"
	"slices"

	"pipesched/internal/bound"
	"pipesched/internal/core"
	"pipesched/internal/dag"
	"pipesched/internal/ir"
	"pipesched/internal/listsched"
	"pipesched/internal/machine"
	"pipesched/internal/nopins"
)

// BlockSchedule is the outcome for one piece: a block of a sequence, or
// one window of a large block.
type BlockSchedule struct {
	Graph     *dag.Graph
	Sched     *core.Schedule
	StartTick int // absolute tick before the piece's first issue
	EndTick   int // absolute tick of the piece's last issue
}

// Result is a scheduled sequence of pieces.
type Result struct {
	Blocks     []BlockSchedule
	TotalNOPs  int
	TotalTicks int  // issue tick of the final instruction
	Optimal    bool // every piece's search completed
	// Stopped is the first piece's early-stop reason (core.ErrBudget or
	// a context error), or nil when every search ran to completion.
	Stopped error
}

// piece schedules the i-th piece from entry, the clock and pipeline
// reservations the pieces before it left; it may add ReadyTick. issue
// holds the absolute issue tick of every position those pieces placed,
// in order.
type piece func(i int, entry *nopins.EntryState, issue []int) (*dag.Graph, *core.Schedule, error)

// thread schedules n pieces in order on m, starting from start's clock
// and pipeline reservations (nil for a cold start) and advancing them
// past each piece in turn.
func thread(m *machine.Machine, start *nopins.EntryState, n int, next piece) (*Result, error) {
	res := &Result{Optimal: true}
	state := nopins.EntryState{PipeLast: make([]int, len(m.Pipelines))}
	if start != nil {
		state.StartTick = start.StartTick
		copy(state.PipeLast, start.PipeLast)
	}
	var issue []int
	for i := 0; i < n; i++ {
		// The search reads the reservations only while it runs, so the
		// entry shares them with the advancing state.
		entry := nopins.EntryState{StartTick: state.StartTick, PipeLast: state.PipeLast}
		g, sched, err := next(i, &entry, issue)
		if err != nil {
			return nil, err
		}
		bs := BlockSchedule{Graph: g, Sched: sched, StartTick: state.StartTick}
		k := len(issue)
		issue = slices.Grow(issue, len(sched.Pipes))[:k+len(sched.Pipes)]
		state.Advance(m, sched.Eta, sched.Pipes, issue[k:])
		if len(sched.Order) > 0 && state.StartTick != sched.Ticks {
			return nil, fmt.Errorf("seqsched: piece %d tick mismatch: %d vs %d", i, state.StartTick, sched.Ticks)
		}
		bs.EndTick = state.StartTick
		res.TotalNOPs += sched.TotalNOPs
		res.Optimal = res.Optimal && sched.Optimal
		if res.Stopped == nil {
			res.Stopped = sched.Stopped
		}
		res.Blocks = append(res.Blocks, bs)
	}
	res.TotalTicks = state.StartTick
	return res, nil
}

// blockScheduler produces block i's schedule given its DAG and the entry
// state the preceding blocks left behind.
type blockScheduler func(i int, g *dag.Graph, entry *nopins.EntryState) (*core.Schedule, error)

// sequence threads the blocks from start (nil for a cold start); start's
// ReadyTick, if any, applies to the first block.
func sequence(blocks []*ir.Block, m *machine.Machine, start *nopins.EntryState, schedule blockScheduler) (*Result, error) {
	return thread(m, start, len(blocks), func(i int, entry *nopins.EntryState, _ []int) (*dag.Graph, *core.Schedule, error) {
		g, err := dag.Build(blocks[i])
		if err != nil {
			return nil, nil, fmt.Errorf("seqsched: block %d: %w", i, err)
		}
		if i == 0 && start != nil {
			entry.ReadyTick = start.ReadyTick
		}
		s, err := schedule(i, g, entry)
		if err != nil {
			return nil, nil, fmt.Errorf("seqsched: block %d: %w", i, err)
		}
		return g, s, nil
	})
}

// Schedule schedules each block in order on m, threading pipeline state
// across the boundaries from opts.Entry (nil for a cold start). opts
// applies to every block's search; its InitialOrder is ignored and its
// Entry is replaced per block. Grouping is associative: scheduling [A,B]
// and continuing with [C] from the state [A,B] left yields the same
// per-block schedules and total cost as [A] continued with [B,C].
func Schedule(blocks []*ir.Block, m *machine.Machine, opts core.Options) (*Result, error) {
	return sequence(blocks, m, opts.Entry, func(_ int, g *dag.Graph, entry *nopins.EntryState) (*core.Schedule, error) {
		o := opts
		o.InitialOrder = nil
		o.Entry = entry
		return core.Find(g, m, o)
	})
}

// ScheduleSeed schedules each block with its list-schedule seed alone —
// no branch-and-bound — while still threading pipeline state across the
// boundaries from opts.Entry. It is the heuristic fallback rung of the
// degradation ladder: legal and hazard-free by the same entry-state
// analysis as Schedule, just without optimality. Every block reports
// Optimal=false.
func ScheduleSeed(blocks []*ir.Block, m *machine.Machine, opts core.Options) (*Result, error) {
	r, err := sequence(blocks, m, opts.Entry, func(_ int, g *dag.Graph, entry *nopins.EntryState) (*core.Schedule, error) {
		s, err := price(g, m, opts.Assign, entry, listsched.Schedule(g, opts.SeedPriority))
		if err != nil {
			return nil, err
		}
		// Even the heuristic rung carries a certificate.
		certify(s, g, m, opts.Assign, entry)
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
// under the entry state the preceding blocks left behind, from a cold
// start. No search runs; every block reports Optimal=false.
func Price(blocks []*ir.Block, orders [][]int, m *machine.Machine, assign nopins.AssignMode) (*Result, error) {
	r, err := sequence(blocks, m, nil, func(i int, g *dag.Graph, entry *nopins.EntryState) (*core.Schedule, error) {
		return price(g, m, assign, entry, orders[i])
	})
	if err != nil {
		return nil, err
	}
	r.Optimal = false
	return r, nil
}

// certify attaches the root lower bound of g under entry to s, g's
// schedule: s is provably within Gap NOPs of g's optimum.
func certify(s *core.Schedule, g *dag.Graph, m *machine.Machine, assign nopins.AssignMode, entry *nopins.EntryState) {
	s.RootLB = bound.New(g, m, bound.Config{FixedAssign: assign == nopins.AssignFixed}, entry).Root()
	s.Gap = max(s.TotalNOPs-s.RootLB, 0)
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

// Windows partitions g's list schedule into windows of at most window
// instructions (0 or less selects the paper's suggested 20) and searches
// each on m in order, under the same core.Options as a whole-block
// search, from opts.Entry (nil for a cold start; its ReadyTick indexes
// g's nodes). Values still in flight from earlier windows become ready
// ticks. The result is locally optimal per window, globally heuristic —
// but its search cost is linear in the number of windows instead of
// exponential in the block size.
//
// It returns the whole block's schedule (its InitialNOPs sums the
// windows' seeds, Optimal and Stopped cover every window, and RootLB and
// Gap certify it against the whole block's root bound from opts.Entry),
// the number of windows, and how many of them searched to completion.
// When opts.Ctx is done, every remaining window keeps its list-schedule
// seed, so the result stays legal.
func Windows(g *dag.Graph, m *machine.Machine, window int, opts core.Options) (s *core.Schedule, windows, optimal int, err error) {
	if window <= 0 {
		window = 20
	}
	seed := listsched.Schedule(g, opts.SeedPriority)
	if !g.IsLegalOrder(seed) {
		return nil, 0, 0, fmt.Errorf("seqsched: list schedule %v violates dependences", seed)
	}
	s = &core.Schedule{Order: []int{}, Eta: []int{}, Pipes: []int{}}
	pos := make([]int, g.N) // node -> position in s.Order, or -1 until placed
	for u := range pos {
		pos[u] = -1
	}
	r, err := thread(m, opts.Entry, (g.N+window-1)/window, func(w int, entry *nopins.EntryState, issue []int) (*dag.Graph, *core.Schedule, error) {
		nodes := seed[w*window : min((w+1)*window, g.N)]
		sub := dag.Induced(g, nodes)
		entry.ReadyTick = make([]int, sub.N)
		for i, u := range nodes {
			if opts.Entry != nil && opts.Entry.ReadyTick != nil {
				entry.ReadyTick[i] = opts.Entry.ReadyTick[u]
			}
			// A predecessor outside the window was placed by an earlier
			// one: the seed is a legal order.
			for _, d := range g.Preds[u] {
				if p := pos[d.Node]; p >= 0 {
					req := issue[p] + 1 // order edges: strictly after
					if d.Kind.CarriesLatency() {
						req = issue[p] + m.Latency(s.Pipes[p])
					}
					entry.ReadyTick[i] = max(entry.ReadyTick[i], req)
				}
			}
		}
		o := opts
		o.InitialOrder = nil
		o.Entry = entry
		// Once the context is gone, every remaining window takes the
		// documented fallback — its list-schedule seed — rather than the
		// root-certificate fast path, so the caller sees the deadline
		// (Stopped) even when all windows would certify instantly.
		if opts.Ctx != nil && opts.Ctx.Err() != nil {
			o.DisableLowerBound, o.DisableMemo = true, true
		}
		ws, err := core.Find(sub, m, o)
		if err != nil {
			return nil, nil, err
		}
		for k, u := range ws.Order {
			pos[nodes[u]] = len(s.Order)
			s.Order = append(s.Order, nodes[u])
			s.Eta = append(s.Eta, ws.Eta[k])
			s.Pipes = append(s.Pipes, ws.Pipes[k])
		}
		s.InitialNOPs += ws.InitialNOPs
		s.Stats.OmegaCalls += ws.Stats.OmegaCalls
		if ws.Optimal {
			optimal++
		}
		return sub, ws, nil
	})
	if err != nil {
		return nil, 0, 0, err
	}
	s.TotalNOPs, s.Ticks = r.TotalNOPs, r.TotalTicks
	s.Optimal, s.Stopped = r.Stopped == nil, r.Stopped
	s.Stats.Curtailed = r.Stopped != nil
	certify(s, g, m, opts.Assign, opts.Entry)
	return s, len(r.Blocks), optimal, nil
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
