package campaign

import (
	"context"
	"fmt"

	"pipesched"
	"pipesched/internal/dag"
	"pipesched/internal/ir"
	"pipesched/internal/machine"
	"pipesched/internal/nopins"
	"pipesched/internal/seqsched"
	"pipesched/internal/sim"
)

// Compiler compiles one tuple block to a schedule. Implementations run
// the in-process scheduler, the compile service, or the fleet front
// door; the machine and scheduler mode are bound at construction so a
// trace never mixes models. A degraded-but-delivered result (non-nil
// Compiled with a pipesched.ErrCurtailed-family error) is acceptable.
type Compiler interface {
	Compile(ctx context.Context, block *ir.Block) (*pipesched.Compiled, error)
}

// TraceResult is one scheduled superblock trace.
type TraceResult struct {
	Name   string `json:"name"`
	Blocks int    `json:"blocks"`
	Tuples int    `json:"tuples"`

	// ColdNOPs is the sum of each member block's cost scheduled cold —
	// the naive concatenation figure. It is informational: cold
	// schedules butted together can be illegal at the seams, so it is
	// not a deliverable baseline (and can be beaten or missed by both
	// baselines below).
	ColdNOPs int `json:"cold_nops"`
	// BaselineNOPs prices the per-block schedules with footnote-1
	// boundary threading: each member keeps its own order, repriced
	// under the entry state its predecessors left behind. The result is
	// a feasible schedule of the merged trace graph, which is what
	// makes the oracle inequality DeliveredNOPs <= BaselineNOPs sound.
	BaselineNOPs int `json:"baseline_nops"`
	// MergedNOPs is the cost of scheduling the whole merged trace as
	// one unit (cross-block NOP amortization), or -1 when the trace has
	// a single block or the merged compile failed outright.
	MergedNOPs int `json:"merged_nops"`
	// DeliveredNOPs = min(BaselineNOPs, MergedNOPs): the campaign never
	// delivers a merged schedule that lost to its own baseline (a
	// curtailed merged search can be worse; the baseline then wins).
	DeliveredNOPs int  `json:"delivered_nops"`
	UsedMerged    bool `json:"used_merged"`
	Optimal       bool `json:"optimal"`

	// The delivered schedule over the merged trace graph.
	Order      []int `json:"order"`
	Eta        []int `json:"eta,omitempty"`
	Pipes      []int `json:"pipes"`
	IssueTicks []int `json:"issue_ticks,omitempty"` // scoreboard mode
}

// NOPsSaved is the cross-block amortization win: baseline minus
// delivered, never negative.
func (tr *TraceResult) NOPsSaved() int { return tr.BaselineNOPs - tr.DeliveredNOPs }

// acceptable returns c when the compile delivered a usable (possibly
// degraded) schedule, or nil when it hard-failed.
func acceptable(c *pipesched.Compiled, err error) (*pipesched.Compiled, error) {
	if err != nil && c == nil {
		return nil, err
	}
	return c, nil
}

// ScheduleTrace compiles one trace: every member block individually
// (those submissions hit the service cache and dedup across programs),
// the footnote-1 threaded baseline built from the member schedules,
// and — for multi-block traces — the merged superblock. The delivered
// schedule is the cheaper of merged and baseline and is always
// re-verified by independent simulation over the merged graph before
// it is returned.
func ScheduleTrace(ctx context.Context, t *Trace, m *machine.Machine, mode machine.SchedMode, comp Compiler) (*TraceResult, error) {
	res := &TraceResult{Name: t.Name(), Blocks: len(t.Blocks), MergedNOPs: -1, Optimal: true}

	members := make([]*pipesched.Compiled, len(t.Blocks))
	for i, b := range t.Blocks {
		c, err := acceptable(comp.Compile(ctx, b.IR))
		if err != nil {
			return nil, fmt.Errorf("campaign: trace %s block %q: %w", res.Name, b.Name, err)
		}
		members[i] = c
		res.ColdNOPs += c.TotalNOPs
		res.Tuples += b.IR.Len()
		res.Optimal = res.Optimal && c.Optimal
	}

	merged, err := t.Merged()
	if err != nil {
		return nil, fmt.Errorf("campaign: trace %s: %w", res.Name, err)
	}
	mg, err := dag.Build(merged)
	if err != nil {
		return nil, fmt.Errorf("campaign: trace %s: %w", res.Name, err)
	}

	var baseline *TraceResult
	if mode.Kind == machine.SchedScoreboard {
		baseline, err = scoreboardBaseline(t, members, mg, m, mode)
	} else {
		baseline, err = threadedBaseline(t, members, m)
	}
	if err != nil {
		return nil, fmt.Errorf("campaign: trace %s baseline: %w", res.Name, err)
	}
	res.BaselineNOPs = baseline.BaselineNOPs
	res.DeliveredNOPs = baseline.BaselineNOPs
	res.Order, res.Eta, res.Pipes, res.IssueTicks = baseline.Order, baseline.Eta, baseline.Pipes, baseline.IssueTicks

	if len(t.Blocks) > 1 {
		// The merged superblock search. A curtailed or failed merged
		// compile silently loses to the baseline — the campaign must
		// deliver the threaded result in that case, never nothing.
		if mc, err := acceptable(comp.Compile(ctx, merged)); err == nil && mc != nil {
			res.MergedNOPs = mc.TotalNOPs
			if mc.TotalNOPs <= res.BaselineNOPs {
				res.DeliveredNOPs = mc.TotalNOPs
				res.UsedMerged = true
				res.Order, res.Eta, res.Pipes, res.IssueTicks = mc.Order, mc.Eta, mc.Pipes, mc.IssueTicks
				res.Optimal = mc.Optimal
			}
		} else {
			res.Optimal = false
		}
	}

	if err := verifyTrace(res, mg, m, mode); err != nil {
		return nil, fmt.Errorf("campaign: trace %s: %w", res.Name, err)
	}
	return res, nil
}

// threadedBaseline reprices the member schedules under footnote-1
// entry-state threading and concatenates them into one schedule of the
// merged graph (seqsched.Result.Concat numbers nodes exactly as ir.Concat
// renumbers the merged block).
func threadedBaseline(t *Trace, members []*pipesched.Compiled, m *machine.Machine) (*TraceResult, error) {
	blocks := make([]*ir.Block, len(t.Blocks))
	orders := make([][]int, len(t.Blocks))
	for i, b := range t.Blocks {
		blocks[i], orders[i] = b.IR, members[i].Order
	}
	r, err := seqsched.Price(blocks, orders, m, nopins.AssignFixed)
	if err != nil {
		return nil, fmt.Errorf("member order rejected at seam: %w", err)
	}
	out := &TraceResult{BaselineNOPs: r.TotalNOPs}
	out.Order, out.Eta, out.Pipes = r.Concat()
	return out, nil
}

// scoreboardBaseline concatenates the member orders (a legal order of
// the merged graph: every cross-block dependence points forward) and
// replays them on the scoreboard window machine to price the seams.
func scoreboardBaseline(t *Trace, members []*pipesched.Compiled, mg *dag.Graph, m *machine.Machine, mode machine.SchedMode) (*TraceResult, error) {
	out := &TraceResult{}
	offset := 0
	for i, b := range t.Blocks {
		for k, u := range members[i].Order {
			out.Order = append(out.Order, offset+u)
			out.Pipes = append(out.Pipes, members[i].Pipes[k])
		}
		offset += b.IR.Len()
	}
	tr, err := sim.RunScoreboard(sim.ScoreboardInput{
		Input:  sim.Input{Graph: mg, M: m, Order: out.Order, Pipes: out.Pipes},
		Window: mode.Window, Width: mode.Width,
	})
	if err != nil {
		return nil, err
	}
	out.BaselineNOPs = tr.Stalls
	out.IssueTicks = tr.IssueTick
	return out, nil
}

// verifyTrace independently simulates the delivered schedule over the
// merged graph: NOP-padding replay for the in-order models, window
// replay for scoreboard. Every seam of the trace is inside this graph,
// so a single clean run certifies every boundary.
func verifyTrace(res *TraceResult, mg *dag.Graph, m *machine.Machine, mode machine.SchedMode) error {
	if mode.Kind == machine.SchedScoreboard {
		return sim.VerifyScoreboard(sim.ScoreboardInput{
			Input:  sim.Input{Graph: mg, M: m, Order: res.Order, Pipes: res.Pipes},
			Window: mode.Window, Width: mode.Width,
		}, res.IssueTicks, res.DeliveredNOPs)
	}
	tr, err := sim.Run(sim.Input{Graph: mg, M: m, Order: res.Order, Eta: res.Eta, Pipes: res.Pipes}, sim.NOPPadding)
	if err != nil {
		return fmt.Errorf("delivered schedule hazarded: %w", err)
	}
	if tr.Delays != res.DeliveredNOPs {
		return fmt.Errorf("delivered schedule claims %d NOPs but simulates to %d", res.DeliveredNOPs, tr.Delays)
	}
	return nil
}
