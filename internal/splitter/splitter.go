// Package splitter implements the strategy the paper sketches in
// section 5.3 for very large basic blocks: "it might be useful to split
// the basic blocks into smaller sections (containing, say, twenty
// instructions or less each) and find solutions which are locally
// optimal. A good heuristic for the split might be to simply partition
// the list schedule."
//
// Schedule partitions the block's list schedule into fixed-size windows
// and runs the optimal branch-and-bound search on each window in order,
// under the same core.Options as a whole-block search, threading the
// pipeline state across window boundaries through the nopins.EntryState
// mechanism (the paper's footnote 1 initial-conditions idea): values
// still in flight from earlier windows impose ready ticks, and the last
// enqueue per pipeline imposes cross-boundary conflict spacing. The
// result is locally optimal per window, globally heuristic — but its
// search cost is linear in the number of windows instead of exponential
// in the block size.
package splitter

import (
	"fmt"

	"pipesched/internal/core"
	"pipesched/internal/dag"
	"pipesched/internal/listsched"
	"pipesched/internal/machine"
	"pipesched/internal/nopins"
)

// Result is a complete schedule for the whole block assembled from
// locally-optimal windows.
type Result struct {
	Order          []int // parent-graph nodes in execution order
	Eta            []int // NOPs before each position
	Pipes          []int // pipeline binding per position
	TotalNOPs      int
	InitialNOPs    int   // sum of every window's seed NOPs, before searching
	Ticks          int   // issue tick of the last instruction
	Windows        int   // number of windows scheduled
	OptimalWindows int   // windows whose search completed
	OmegaCalls     int64 // total search placements across windows
	Stopped        error // first window's early-stop reason, nil if none
}

// Schedule partitions g's list schedule into windows of at most window
// instructions (0 or less selects the paper's suggested 20) and schedules
// each on m. opts applies to every window's search, exactly as to a
// whole-block core.Find; its Entry and InitialOrder fields are overridden
// per window. When opts.Ctx is done, every remaining window keeps its
// list-schedule seed, so the result stays legal.
func Schedule(g *dag.Graph, m *machine.Machine, window int, opts core.Options) (*Result, error) {
	if window <= 0 {
		window = 20
	}
	if g.N == 0 {
		return &Result{Order: []int{}, Eta: []int{}, Pipes: []int{}}, nil
	}

	seed := listsched.Schedule(g, opts.SeedPriority)
	res := &Result{}

	// Absolute state threaded across windows.
	issueOf := make([]int, g.N) // absolute issue tick per parent node
	pipeOf := make([]int, g.N)  // pipeline binding per parent node
	inPrev := map[int]bool{}    // nodes scheduled in earlier windows
	pipeLast := map[int]int{}   // pipeline -> absolute tick of last enqueue
	startTick := 0

	for lo := 0; lo < g.N; lo += window {
		hi := lo + window
		if hi > g.N {
			hi = g.N
		}
		windowNodes := seed[lo:hi]
		sub := dag.Induced(g, windowNodes)

		// External dependences become per-node ready ticks.
		selected := map[int]bool{}
		for _, u := range windowNodes {
			selected[u] = true
		}
		ready := make([]int, sub.N)
		for i, u := range windowNodes {
			for _, d := range g.ExternalPreds(u, selected) {
				if !inPrev[d.Node] {
					return nil, fmt.Errorf(
						"splitter: window order broke dependences (node %d before pred %d)", u, d.Node)
				}
				req := issueOf[d.Node] + 1 // order edges: strictly after
				if d.Kind.CarriesLatency() {
					req = issueOf[d.Node] + m.Latency(pipeOf[d.Node])
				}
				if req > ready[i] {
					ready[i] = req
				}
			}
		}

		entryPipeLast := make(map[int]int, len(pipeLast))
		for k, v := range pipeLast {
			entryPipeLast[k] = v
		}
		wo := opts
		wo.InitialOrder = nil
		wo.Entry = &nopins.EntryState{
			StartTick: startTick,
			ReadyTick: ready,
			PipeLast:  entryPipeLast,
		}
		// Once the context is gone, every remaining window takes the
		// documented fallback — its list-schedule seed — rather than the
		// root-certificate fast path, so the caller sees the deadline
		// (Stopped) even when all windows would certify instantly.
		if opts.Ctx != nil && opts.Ctx.Err() != nil {
			wo.DisableLowerBound, wo.DisableMemo = true, true
		}
		sched, err := core.Find(sub, m, wo)
		if err != nil {
			return nil, err
		}

		// Splice the window into the global schedule and update state.
		tick := startTick
		for k, subNode := range sched.Order {
			u := windowNodes[subNode]
			tick += sched.Eta[k] + 1
			issueOf[u] = tick
			pipeOf[u] = sched.Pipes[k]
			if sched.Pipes[k] != machine.NoPipeline {
				if last, ok := pipeLast[sched.Pipes[k]]; !ok || tick > last {
					pipeLast[sched.Pipes[k]] = tick
				}
			}
			inPrev[u] = true
			res.Order = append(res.Order, u)
			res.Eta = append(res.Eta, sched.Eta[k])
			res.Pipes = append(res.Pipes, sched.Pipes[k])
			res.TotalNOPs += sched.Eta[k]
		}
		res.InitialNOPs += sched.InitialNOPs
		if tick != sched.Ticks {
			return nil, fmt.Errorf("splitter: internal tick mismatch: %d vs %d", tick, sched.Ticks)
		}
		startTick = tick
		res.Windows++
		if sched.Optimal {
			res.OptimalWindows++
		}
		if res.Stopped == nil {
			res.Stopped = sched.Stopped
		}
		res.OmegaCalls += sched.Stats.OmegaCalls
	}
	res.Ticks = startTick
	return res, nil
}
