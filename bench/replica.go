package main

import (
	"context"
	"fmt"
	"slices"

	"pipesched"
	"pipesched/internal/codegen"
	"pipesched/internal/core"
	"pipesched/internal/dag"
	"pipesched/internal/frontend"
	"pipesched/internal/ir"
	"pipesched/internal/listsched"
	"pipesched/internal/machine"
	"pipesched/internal/nopins"
	"pipesched/internal/opt"
	"pipesched/internal/regalloc"
	"pipesched/internal/sim"
	"pipesched/internal/tuplegen"
)

// replica repeats pipesched.CompileCtx one stage at a time through each
// stage's public function, so a traced run can time every layer from
// outside the program. It has no fault isolation or degradation ladder:
// on the benchmark's inputs no stage fails. Its order and NOPs must equal
// CompileCtx's (sameAsReplica), which every run checks.
type replica struct {
	m        *pipesched.Machine
	sched    pipesched.SchedMode
	optimize bool
}

// staged is one block compiled by the replica, with the work counters the
// traced run reports per layer.
type staged struct {
	order, eta, pipes, issueTicks []int
	nops, ticks                   int
	optimal                       bool
	stats                         core.Stats
	assembly                      string

	lowered                                      bool // compiled from source: tuplesIn and tuplesOut are set
	tuplesIn, tuplesOut, edges, registers, lines int
}

// searchOptions mirrors the core options CompileCtx builds from
// pipesched.Options{Sched: sched} (the unexported searchOptions).
func (rp replica) searchOptions() core.Options {
	return core.Options{
		Sched:        rp.sched,
		Lambda:       pipesched.DefaultLambda,
		Ctx:          context.Background(),
		Assign:       nopins.AssignFixed,
		SeedPriority: listsched.ByHeight,
	}
}

func (rp replica) scoreboard() bool { return rp.sched.Kind == machine.SchedScoreboard }

// fromSource compiles source text: the front end, then fromBlock. Spans
// are children of parent and carry unit.
func (rp replica) fromSource(tr *recorder, unit string, parent int, src string) (*staged, error) {
	var prog *frontend.Program
	var block *ir.Block
	var err error
	tr.stage("frontend.Parse", "frontend", unit, parent, func() { prog, err = frontend.Parse(src) })
	if err != nil {
		return nil, err
	}
	tr.stage("tuplegen.Generate", "tuplegen", unit, parent, func() { block, err = tuplegen.Generate(prog, "block") })
	if err != nil {
		return nil, err
	}
	in := block.Len()
	if rp.optimize {
		tr.stage("opt.Optimize", "opt", unit, parent, func() { block = opt.Optimize(block) })
	}
	s, err := rp.fromBlock(tr, unit, parent, block)
	if err != nil {
		return nil, err
	}
	s.lowered, s.tuplesIn, s.tuplesOut = true, in, block.Len()
	return s, nil
}

// fromBlock schedules a tuple block the way pipesched.ScheduleCtx does.
func (rp replica) fromBlock(tr *recorder, unit string, parent int, block *ir.Block) (*staged, error) {
	s := &staged{}
	var g *dag.Graph
	var err error
	tr.stage("dag.Build", "dag", unit, parent, func() { g, err = dag.Build(block) })
	if err != nil {
		return nil, err
	}
	for _, succ := range g.Succs {
		s.edges += len(succ)
	}
	// core.Find seeds itself with this list schedule and its NOP pricing;
	// the replica repeats them to time the seed on its own.
	tr.stage("listsched.Schedule", "listsched", unit, parent, func() {
		_, err = nopins.NewEvaluator(g, rp.m, nopins.AssignFixed).EvaluateOrder(listsched.Schedule(g, listsched.ByHeight))
	})
	if err != nil {
		return nil, err
	}
	var sched *core.Schedule
	tr.stage("core.Find", "core", unit, parent, func() { sched, err = core.Find(g, rp.m, rp.searchOptions()) })
	if err != nil {
		return nil, err
	}
	sbIn := sim.ScoreboardInput{
		Input:  sim.Input{Graph: g, M: rp.m, Order: sched.Order, Pipes: sched.Pipes},
		Window: rp.sched.Window, Width: rp.sched.Width,
	}
	if rp.scoreboard() {
		tr.stage("sim.VerifyScoreboard", "sim", unit, parent, func() {
			err = sim.VerifyScoreboard(sbIn, sched.IssueTicks, sched.TotalNOPs)
		})
		if err != nil {
			return nil, err
		}
	}
	var scheduled *ir.Block
	var regs *regalloc.Assignment
	tr.stage("regalloc.Allocate", "regalloc", unit, parent, func() {
		if scheduled, err = block.Permute(sched.Order); err == nil {
			regs, err = regalloc.Allocate(scheduled, 0)
		}
	})
	if err != nil {
		return nil, err
	}
	tr.stage("codegen.Emit", "codegen", unit, parent, func() {
		s.assembly, err = codegen.Emit(codegen.Program{Block: scheduled, Eta: sched.Eta, Regs: regs}, codegen.NOPPadding)
	})
	if err != nil {
		return nil, err
	}
	if rp.scoreboard() {
		tr.stage("sim.RunScoreboard", "sim", unit, parent, func() { _, err = sim.RunScoreboard(sbIn) })
	} else {
		tr.stage("sim.Run", "sim", unit, parent, func() {
			_, err = sim.Run(sim.Input{Graph: g, M: rp.m, Order: sched.Order, Eta: sched.Eta, Pipes: sched.Pipes}, sim.NOPPadding)
		})
	}
	if err != nil {
		return nil, err
	}
	s.order, s.eta, s.pipes, s.issueTicks = sched.Order, sched.Eta, sched.Pipes, sched.IssueTicks
	s.nops, s.ticks, s.optimal, s.stats = sched.TotalNOPs, sched.Ticks, sched.Optimal, sched.Stats
	s.registers = regs.NumRegs
	instrs, nops := codegen.CountLines(s.assembly)
	s.lines = instrs + nops
	return s, nil
}

// compiled presents a replica result as the pipesched.Compiled a
// campaign.Compiler returns for block.
func (s *staged) compiled(block *ir.Block, sched pipesched.SchedMode) *pipesched.Compiled {
	return &pipesched.Compiled{
		Original: block, Order: s.order, Eta: s.eta, Pipes: s.pipes, IssueTicks: s.issueTicks,
		TotalNOPs: s.nops, Ticks: s.ticks, Optimal: s.optimal, Sched: sched, Stats: s.stats,
	}
}

// sameAsReplica reports how a CompileCtx result differs from the
// replica's compile of the same input, or nil when they agree.
func sameAsReplica(c *pipesched.Compiled, s *staged) error {
	switch {
	case !slices.Equal(c.Order, s.order):
		return fmt.Errorf("order %v, replica %v", c.Order, s.order)
	case c.TotalNOPs != s.nops:
		return fmt.Errorf("%d NOPs, replica %d", c.TotalNOPs, s.nops)
	case c.Ticks != s.ticks:
		return fmt.Errorf("%d ticks, replica %d", c.Ticks, s.ticks)
	case c.Optimal != s.optimal:
		return fmt.Errorf("optimal=%v, replica %v", c.Optimal, s.optimal)
	}
	return nil
}

// layerCounts sums the work counters of replica compiles.
type layerCounts struct {
	blocks, edges, registers, lines int
	omega, memoHits                 int64
	curtailed, rootCertified        int
	// lowered counts the blocks the front half lowered from source, with
	// their tuples before and after opt.Optimize.
	lowered, tuplesIn, tuplesOut int
}

func (c *layerCounts) add(s *staged) {
	c.blocks++
	if s.lowered {
		c.lower(s.tuplesIn, s.tuplesOut)
	}
	c.edges += s.edges
	c.registers += s.registers
	c.lines += s.lines
	c.omega += s.stats.OmegaCalls
	c.memoHits += s.stats.MemoHits
	if s.stats.Curtailed {
		c.curtailed++
	}
	if s.optimal && s.stats.OmegaCalls == 0 {
		c.rootCertified++
	}
}

func (c *layerCounts) lower(in, out int) {
	c.lowered++
	c.tuplesIn += in
	c.tuplesOut += out
}

// store sets the counter metrics; coreNS is the core layer's self time.
func (c *layerCounts) store(o *outcome, coreNS float64) {
	b := float64(c.blocks)
	o.metrics["tuplegen.tuples_per_block"] = share(float64(c.tuplesIn), float64(c.lowered))
	o.metrics["opt.tuples_out_share"] = share(float64(c.tuplesOut), float64(c.tuplesIn))
	o.metrics["dag.edges_per_block"] = share(float64(c.edges), b)
	o.metrics["core.omega_per_block"] = share(float64(c.omega), b)
	o.metrics["core.ns_per_omega"] = share(coreNS, float64(c.omega))
	o.metrics["core.memo_hit_ratio"] = share(float64(c.memoHits), float64(c.omega))
	o.metrics["core.curtailed_share"] = share(float64(c.curtailed), b)
	o.metrics["core.root_certified_share"] = share(float64(c.rootCertified), b)
	o.metrics["regalloc.registers_per_block"] = share(float64(c.registers), b)
	o.metrics["codegen.lines_per_block"] = share(float64(c.lines), b)
}
