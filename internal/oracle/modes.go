package oracle

import (
	"context"
	"errors"
	"fmt"
	"math/rand"

	"pipesched/internal/core"
	"pipesched/internal/dag"
	"pipesched/internal/exhaustive"
	"pipesched/internal/machine"
	"pipesched/internal/regalloc"
	"pipesched/internal/sim"
)

// This file extends the oracle to the non-paper scheduler modes
// (machine.SchedMode). Each mode gets the same treatment the paper mode
// gets in oracle.go: several independently-configured searches that must
// agree whenever they claim optimality, per-schedule proofs against an
// implementation-independent reference (regalloc's interval sweep for
// MAXLIVE, sim.RunScoreboard for scoreboard timing), exhaustive
// enumeration on blocks small enough, and mode-specific metamorphic
// invariants (modes must degenerate into each other exactly where the
// theory says they do).

// CheckPairMode runs the differential suite for one (block, machine,
// mode) triple. The paper mode delegates to CheckPair; the other modes
// run their own candidate sets and references.
func CheckPairMode(g *dag.Graph, m *machine.Machine, mode machine.SchedMode, cfg Config) []Divergence {
	if err := mode.Validate(); err != nil {
		return []Divergence{{Check: "mode-invalid", Detail: err.Error()}}
	}
	if mode.IsPaper() {
		return CheckPair(g, m, cfg)
	}
	cfg = cfg.withDefaults()
	if mode.Kind == machine.SchedScoreboard {
		return checkScoreboardPair(g, m, mode, cfg)
	}
	return checkPressurePair(g, m, mode, cfg)
}

// modeCandidates is the differential set for a non-paper mode: the same
// ablation grid as DefaultCandidates, each running with Sched set.
func modeCandidates(mode machine.SchedMode, cfg Config) []Candidate {
	opts := func(mut func(*core.Options)) core.Options {
		o := core.Options{Sched: mode, Lambda: cfg.Lambda}
		if mut != nil {
			mut(&o)
		}
		return o
	}
	return []Candidate{
		{Name: "find", Run: func(g *dag.Graph, m *machine.Machine) (*core.Schedule, error) {
			return core.Find(g, m, opts(nil))
		}},
		{Name: "find-parallel", Run: func(g *dag.Graph, m *machine.Machine) (*core.Schedule, error) {
			return core.FindParallel(g, m, opts(nil), cfg.Workers)
		}},
		{Name: "find-nolowerbound", Run: func(g *dag.Graph, m *machine.Machine) (*core.Schedule, error) {
			return core.Find(g, m, opts(func(o *core.Options) { o.DisableLowerBound = true }))
		}},
		{Name: "find-strongequiv", Run: func(g *dag.Graph, m *machine.Machine) (*core.Schedule, error) {
			return core.Find(g, m, opts(func(o *core.Options) { o.StrongEquivalence = true }))
		}},
		{Name: "find-nomemo", Run: func(g *dag.Graph, m *machine.Machine) (*core.Schedule, error) {
			return core.Find(g, m, opts(func(o *core.Options) { o.DisableMemo = true }))
		}},
		{Name: "find-noprune", Run: func(g *dag.Graph, m *machine.Machine) (*core.Schedule, error) {
			return core.Find(g, m, opts(func(o *core.Options) {
				o.DisableLowerBound = true
				o.DisableMemo = true
			}))
		}},
	}
}

// checkPressurePair runs the minreg-lex / minreg-k suite. Every emitted
// schedule's MAXLIVE claim is re-derived through regalloc's interval
// sweep of the permuted block (independent of the search core's
// incremental tracker); candidates claiming optimality must agree on the
// mode's objective; a proven-infeasible verdict must not coexist with a
// verified feasible schedule; and the exhaustive pressure reference
// confirms the objective on enumerable blocks.
func checkPressurePair(g *dag.Graph, m *machine.Machine, mode machine.SchedMode, cfg Config) []Divergence {
	var divs []Divergence
	lex := mode.Kind == machine.SchedMinRegLex

	type outcome struct {
		name string
		s    *core.Schedule
	}
	var outs []outcome
	var infeasibleBy []string
	for _, c := range modeCandidates(mode, cfg) {
		s, err := c.Run(g, m)
		switch {
		case err == nil:
			outs = append(outs, outcome{c.Name, s})
			divs = append(divs, checkPressureSchedule(g, m, mode, c.Name, s)...)
		case errors.Is(err, core.ErrInfeasible):
			infeasibleBy = append(infeasibleBy, c.Name)
		case errors.Is(err, core.ErrBudget):
			// Curtailed before finding any feasible schedule: abstains.
		default:
			divs = append(divs, Divergence{Check: "candidate-error", Candidate: c.Name, Detail: err.Error()})
		}
	}

	// A proof of infeasibility and a (legality-verified) feasible
	// schedule cannot both be right.
	if len(infeasibleBy) > 0 && len(outs) > 0 {
		for _, name := range infeasibleBy {
			divs = append(divs, Divergence{
				Check: "infeasible-agree", Candidate: name,
				Detail: fmt.Sprintf("proved MAXLIVE ≤ %d infeasible, but %s returned a schedule with MAXLIVE %d",
					mode.K, outs[0].name, outs[0].s.MaxLive),
			})
		}
	}

	// Optimality differential on the mode's objective: (NOPs, MAXLIVE)
	// lexicographically for minreg-lex, NOPs alone for minreg-k.
	bestN, bestL, bestName := -1, -1, ""
	for _, o := range outs {
		if !o.s.Optimal {
			continue
		}
		if bestN < 0 {
			bestN, bestL, bestName = o.s.TotalNOPs, o.s.MaxLive, o.name
			continue
		}
		if o.s.TotalNOPs != bestN || (lex && o.s.MaxLive != bestL) {
			divs = append(divs, Divergence{
				Check: "optimal-agree", Candidate: o.name,
				Detail: fmt.Sprintf("claims optimal (nops=%d, maxlive=%d), %s claims (nops=%d, maxlive=%d)",
					o.s.TotalNOPs, o.s.MaxLive, bestName, bestN, bestL),
			})
		}
	}
	if bestN >= 0 {
		for _, o := range outs {
			if !o.s.Optimal && o.s.TotalNOPs < bestN {
				divs = append(divs, Divergence{
					Check: "optimal-beaten", Candidate: o.name,
					Detail: fmt.Sprintf("curtailed schedule costs %d NOPs, below the proven optimum %d of %s",
						o.s.TotalNOPs, bestN, bestName),
				})
			}
		}
	}

	// Exhaustive pressure reference on enumerable blocks: the search and
	// a plain enumeration priced through regalloc must agree — on the
	// objective when feasible, on infeasibility otherwise.
	if !cfg.DisableExhaustive {
		if n := exhaustive.CountLegal(g, cfg.ExhaustiveOrders+1); n <= cfg.ExhaustiveOrders {
			var ref exhaustive.PressureResult
			if lex {
				ref = exhaustive.SearchMinRegLex(context.Background(), g, m, 0)
			} else {
				ref = exhaustive.SearchMinRegK(context.Background(), g, m, mode.K, 0)
			}
			switch {
			case ref.Exhausted:
				// Reference did not complete (cannot happen with budget 0
				// short of cancellation); abstain.
			case !ref.Found:
				for _, o := range outs {
					divs = append(divs, Divergence{
						Check: "exhaustive-infeasible", Candidate: o.name,
						Detail: fmt.Sprintf("returned a schedule with MAXLIVE %d, but enumeration of %d orders finds none with MAXLIVE ≤ %d",
							o.s.MaxLive, n, mode.K),
					})
				}
			default:
				if len(infeasibleBy) > 0 {
					divs = append(divs, Divergence{
						Check: "exhaustive-infeasible", Candidate: infeasibleBy[0],
						Detail: fmt.Sprintf("proved MAXLIVE ≤ %d infeasible, but enumeration finds a schedule with (nops=%d, maxlive=%d)",
							mode.K, ref.Best.TotalNOPs, ref.MaxLive),
					})
				}
				if bestN >= 0 && (ref.Best.TotalNOPs != bestN || (lex && ref.MaxLive != bestL)) {
					divs = append(divs, Divergence{
						Check: "exhaustive-pressure", Candidate: bestName,
						Detail: fmt.Sprintf("search claims optimal (nops=%d, maxlive=%d), enumeration over %d orders finds (nops=%d, maxlive=%d)",
							bestN, bestL, n, ref.Best.TotalNOPs, ref.MaxLive),
					})
				}
			}
		}
	}
	return divs
}

// checkPressureSchedule proves one pressure-mode schedule: the paper
// mode's full legality suite (the NOP timing semantics are unchanged),
// plus the MAXLIVE claim re-derived through regalloc and, for minreg-k,
// the bound itself.
func checkPressureSchedule(g *dag.Graph, m *machine.Machine, mode machine.SchedMode, name string, s *core.Schedule) []Divergence {
	divs := checkSchedule(g, m, name, s)
	if len(s.Order) != g.N || !g.IsLegalOrder(s.Order) {
		return divs // pressure claims are meaningless on a broken shape
	}
	nb, err := g.Block.Permute(s.Order)
	if err != nil {
		return append(divs, Divergence{
			Check: "pressure-verify", Candidate: name,
			Detail: fmt.Sprintf("order does not permute the block: %v", err),
		})
	}
	if live := regalloc.Pressure(nb); live != s.MaxLive {
		divs = append(divs, Divergence{
			Check: "pressure-verify", Candidate: name,
			Detail: fmt.Sprintf("schedule claims MAXLIVE %d but the interval sweep computes %d", s.MaxLive, live),
		})
	}
	if mode.Kind == machine.SchedMinRegK && s.MaxLive > mode.K {
		divs = append(divs, Divergence{
			Check: "pressure-bound", Candidate: name,
			Detail: fmt.Sprintf("schedule's MAXLIVE %d violates the mode bound k=%d", s.MaxLive, mode.K),
		})
	}
	return divs
}

// checkScoreboardPair runs the scoreboard-mode suite: every candidate's
// claimed issue ticks and stall count must survive the tick-by-tick
// forward simulation, optimal candidates must agree on the stall count,
// certificates must be sound, and the enumeration+simulation reference
// confirms the optimum on enumerable blocks.
func checkScoreboardPair(g *dag.Graph, m *machine.Machine, mode machine.SchedMode, cfg Config) []Divergence {
	var divs []Divergence

	type outcome struct {
		name string
		s    *core.Schedule
	}
	var outs []outcome
	for _, c := range modeCandidates(mode, cfg) {
		s, err := c.Run(g, m)
		if err != nil {
			divs = append(divs, Divergence{Check: "candidate-error", Candidate: c.Name, Detail: err.Error()})
			continue
		}
		outs = append(outs, outcome{c.Name, s})
		divs = append(divs, checkScoreboardSchedule(g, m, mode, c.Name, s)...)
	}

	bestOpt, bestName := -1, ""
	for _, o := range outs {
		if !o.s.Optimal {
			continue
		}
		if bestOpt < 0 {
			bestOpt, bestName = o.s.TotalNOPs, o.name
			continue
		}
		if o.s.TotalNOPs != bestOpt {
			divs = append(divs, Divergence{
				Check: "optimal-agree", Candidate: o.name,
				Detail: fmt.Sprintf("claims optimal stall count %d, %s claims %d", o.s.TotalNOPs, bestName, bestOpt),
			})
		}
	}
	if bestOpt >= 0 {
		for _, o := range outs {
			if !o.s.Optimal && o.s.TotalNOPs < bestOpt {
				divs = append(divs, Divergence{
					Check: "optimal-beaten", Candidate: o.name,
					Detail: fmt.Sprintf("curtailed schedule has %d stalls, below the proven optimum %d of %s",
						o.s.TotalNOPs, bestOpt, bestName),
				})
			}
			if o.s.RootLB > bestOpt {
				divs = append(divs, Divergence{
					Check: "bound-admissible", Candidate: o.name,
					Detail: fmt.Sprintf("root lower bound %d exceeds the proven optimal stall count %d of %s",
						o.s.RootLB, bestOpt, bestName),
				})
			}
			if o.s.Gap == 0 && o.s.TotalNOPs != bestOpt {
				divs = append(divs, Divergence{
					Check: "gap-sound", Candidate: o.name,
					Detail: fmt.Sprintf("gap 0 certifies %d stalls as optimal, but %s proves the optimum is %d",
						o.s.TotalNOPs, bestName, bestOpt),
				})
			}
		}
	}

	if bestOpt >= 0 && !cfg.DisableExhaustive {
		if n := exhaustive.CountLegal(g, cfg.ExhaustiveOrders+1); n <= cfg.ExhaustiveOrders {
			ref := exhaustive.SearchScoreboard(context.Background(), g, m, mode.Window, mode.Width, 0)
			if ref.Found && !ref.Exhausted && ref.Stalls != bestOpt {
				divs = append(divs, Divergence{
					Check: "exhaustive-scoreboard", Candidate: bestName,
					Detail: fmt.Sprintf("search claims optimal stall count %d, enumeration+simulation over %d orders finds %d",
						bestOpt, n, ref.Stalls),
				})
			}
		}
	}
	return divs
}

// checkScoreboardSchedule proves one scoreboard-mode schedule: shape,
// topological legality, certificate consistency, the no-NOP-padding
// convention, and the claimed issue ticks and stall count replayed
// through the independent forward simulator.
func checkScoreboardSchedule(g *dag.Graph, m *machine.Machine, mode machine.SchedMode, name string, s *core.Schedule) []Divergence {
	var divs []Divergence
	bad := func(check, format string, args ...any) {
		divs = append(divs, Divergence{Check: check, Candidate: name, Detail: fmt.Sprintf(format, args...)})
	}
	if len(s.Order) != g.N || len(s.Eta) != g.N || len(s.Pipes) != g.N || len(s.IssueTicks) != g.N {
		bad("schedule-legal", "schedule shape %d/%d/%d/%d does not match block size %d",
			len(s.Order), len(s.Eta), len(s.Pipes), len(s.IssueTicks), g.N)
		return divs
	}
	if !g.IsLegalOrder(s.Order) {
		bad("schedule-legal", "order %v violates dependences", s.Order)
		return divs
	}
	if s.Optimal != (s.Stopped == nil) {
		bad("schedule-legal", "Optimal=%t inconsistent with Stopped=%v", s.Optimal, s.Stopped)
	}
	if s.RootLB < 0 || s.Gap < 0 {
		bad("schedule-legal", "negative certificate: RootLB=%d Gap=%d", s.RootLB, s.Gap)
	}
	if s.Optimal && s.Gap != 0 {
		bad("schedule-legal", "proven-optimal result carries nonzero gap %d", s.Gap)
	}
	if s.RootLB > s.TotalNOPs {
		bad("bound-admissible", "root lower bound %d exceeds the returned schedule's %d stalls", s.RootLB, s.TotalNOPs)
	}
	for i, eta := range s.Eta {
		if eta != 0 {
			bad("schedule-legal", "scoreboard schedule carries NOP padding %d at position %d", eta, i)
			break
		}
	}
	in := sim.ScoreboardInput{
		Input:  sim.Input{Graph: g, M: m, Order: s.Order, Pipes: s.Pipes},
		Window: mode.Window,
		Width:  mode.Width,
	}
	if err := sim.VerifyScoreboard(in, s.IssueTicks, s.TotalNOPs); err != nil {
		divs = append(divs, Divergence{Check: "sim-verify", Candidate: name, Detail: err.Error()})
	}
	return divs
}

// CheckModeMetamorphic runs the mode-aware metamorphic invariants. The
// paper mode delegates to CheckMetamorphic; the other modes check:
//
//   - renumber: register renaming (fresh tuple IDs) preserves the
//     dependence DAG, hence the optimal objective — including MAXLIVE,
//     which counts simultaneously-live values, not their names — and,
//     for minreg-k, preserves infeasibility;
//   - minreg-lex: the lexicographic optimum's NOP component equals the
//     paper mode's optimum (the secondary objective only breaks ties);
//   - minreg-k: relaxing k never costs NOPs (k-monotonicity), and a
//     bound no schedule can reach (k = #tuples + 1) reproduces the
//     paper-mode optimum exactly;
//   - scoreboard: a 1-entry window issuing 1 per tick is the paper's
//     in-order machine, so its optimal stall count equals the paper
//     mode's optimal NOP count.
//
// Pairs whose baseline search is curtailed are skipped — without an
// optimality proof a difference is inconclusive.
func CheckModeMetamorphic(g *dag.Graph, m *machine.Machine, mode machine.SchedMode, cfg Config, rng *rand.Rand) []Divergence {
	if mode.IsPaper() {
		return CheckMetamorphic(g, m, cfg, rng)
	}
	if mode.Validate() != nil {
		return nil // CheckPairMode already reported it
	}
	cfg = cfg.withDefaults()
	find := func(g2 *dag.Graph, m2 *machine.Machine, mode2 machine.SchedMode) (*core.Schedule, error) {
		return core.Find(g2, m2, core.Options{Sched: mode2, Lambda: cfg.Lambda})
	}

	var divs []Divergence
	report := func(name, format string, args ...any) {
		divs = append(divs, Divergence{Check: "metamorphic-" + name, Detail: fmt.Sprintf(format, args...)})
	}

	base, baseErr := find(g, m, mode)
	baseInfeasible := baseErr != nil && errors.Is(baseErr, core.ErrInfeasible)
	if baseErr != nil && !baseInfeasible {
		return nil // curtailed or failed baseline: inconclusive
	}
	if base != nil && !base.Optimal {
		return nil
	}

	// Renumber: rerun the mode on a register-renamed block.
	g2, err := dag.Build(RenumberTuples(g.Block, rng))
	if err != nil {
		report("renumber", "renamed block is invalid: %v", err)
	} else {
		s2, err2 := find(g2, m, mode)
		switch {
		case err2 != nil && errors.Is(err2, core.ErrInfeasible):
			if !baseInfeasible {
				report("renumber", "baseline is feasible (nops=%d, maxlive=%d) but the renamed block is proven infeasible",
					base.TotalNOPs, base.MaxLive)
			}
		case err2 != nil:
			// curtailed: inconclusive
		case !s2.Optimal:
			// inconclusive
		case baseInfeasible:
			report("renumber", "baseline is proven infeasible but the renamed block schedules with (nops=%d, maxlive=%d)",
				s2.TotalNOPs, s2.MaxLive)
		case s2.TotalNOPs != base.TotalNOPs,
			mode.Kind == machine.SchedMinRegLex && s2.MaxLive != base.MaxLive:
			report("renumber", "optimal objective moved from (nops=%d, maxlive=%d) to (nops=%d, maxlive=%d) under register renaming",
				base.TotalNOPs, base.MaxLive, s2.TotalNOPs, s2.MaxLive)
		}
	}

	switch mode.Kind {
	case machine.SchedMinRegLex:
		// The NOP component of the lex optimum is the paper optimum.
		if paper, err := find(g, m, machine.SchedMode{}); err == nil && paper.Optimal && base.TotalNOPs != paper.TotalNOPs {
			report("lex-nops", "minreg-lex optimum has %d NOPs but the paper optimum is %d — the tiebreak changed the primary objective",
				base.TotalNOPs, paper.TotalNOPs)
		}

	case machine.SchedMinRegK:
		// Monotonicity: k+1 admits every k-feasible schedule.
		if mode.K+1 <= machine.MaxSchedK {
			up, err := find(g, m, machine.MinRegK(mode.K+1))
			switch {
			case err != nil && errors.Is(err, core.ErrInfeasible):
				if !baseInfeasible {
					report("k-monotone", "k=%d is feasible with %d NOPs but k=%d is proven infeasible",
						mode.K, base.TotalNOPs, mode.K+1)
				}
			case err == nil && up.Optimal && !baseInfeasible && up.TotalNOPs > base.TotalNOPs:
				report("k-monotone", "relaxing k=%d to k=%d raised the optimal NOP count from %d to %d",
					mode.K, mode.K+1, base.TotalNOPs, up.TotalNOPs)
			}
		}
		// A bound above any possible MAXLIVE reproduces the paper optimum.
		loose := len(g.Block.Tuples) + 1
		if loose <= machine.MaxSchedK {
			lres, lerr := find(g, m, machine.MinRegK(loose))
			if lerr != nil && errors.Is(lerr, core.ErrInfeasible) {
				report("k-loose", "k=%d exceeds the block's value count yet is proven infeasible", loose)
			} else if lerr == nil && lres.Optimal {
				if paper, err := find(g, m, machine.SchedMode{}); err == nil && paper.Optimal && lres.TotalNOPs != paper.TotalNOPs {
					report("k-loose", "unconstraining k (k=%d) yields %d NOPs but the paper optimum is %d",
						loose, lres.TotalNOPs, paper.TotalNOPs)
				}
			}
		}

	case machine.SchedScoreboard:
		// A 1x1 scoreboard is the in-order paper machine.
		inorder, ierr := find(g, m, machine.Scoreboard(1, 1))
		if ierr == nil && inorder.Optimal {
			if paper, err := find(g, m, machine.SchedMode{}); err == nil && paper.Optimal && inorder.TotalNOPs != paper.TotalNOPs {
				report("sb-inorder", "1x1 scoreboard optimum is %d stalls but the paper optimum is %d NOPs",
					inorder.TotalNOPs, paper.TotalNOPs)
			}
		}
	}
	return divs
}
