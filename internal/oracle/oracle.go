// Package oracle is the differential-testing and metamorphic-invariant
// subsystem that proves the schedulers agree with their own ground
// truths. The paper's central claim is provable optimality; this package
// is the machinery that keeps the implementation honest about it, so the
// search hot path (pruning rules, traversal order, parallel work
// stealing) can be refactored freely and every change gated on a
// differential soak.
//
// One unit of work is a (block, machine) pair checked under one
// scheduler mode (machine.SchedMode). CheckPair runs the same suite in
// every mode and consults the mode only where modes really differ: the
// per-schedule replay, the independent seed price, MAXLIVE agreement
// under minreg-lex, the exhaustive reference and the mode's own
// degeneracy invariants. The suite:
//
//   - optimality differential: several independently-configured searches
//     (sequential, parallel, ablated pruning, extended pruning) must
//     agree on the mode's optimum whenever they claim optimality, and
//     the mode's exhaustive reference must confirm it on blocks small
//     enough to enumerate;
//   - upper bound: no search may ever return a schedule costlier than
//     the list-scheduling seed it started from, priced independently;
//   - legality/semantics: every emitted schedule must be a topological
//     order of the DAG and replay to exactly the cost it claims — through
//     the hazard simulator (sim.Verify) in the in-order modes, the
//     forward window simulator (sim.VerifyScoreboard) in the scoreboard
//     mode, and regalloc's interval sweep for every MAXLIVE claim;
//   - certificates: every root lower bound must be admissible (never
//     above a proven optimum) and every claimed optimality gap sound (a
//     gap of 0 really is the optimum, a gap of k really brackets it);
//   - metamorphic invariants (metamorphic.go): cost-preserving
//     transformations of the block and the machine description must
//     leave the optimum unchanged, and modes must degenerate into each
//     other exactly where the theory says they do.
//
// Run (run.go) drives the suite at scale over synth-generated blocks and
// machine.Random machines, shrinking failures to minimal counterexamples
// and emitting JSONL repro artifacts.
package oracle

import (
	"context"
	"errors"
	"fmt"

	"pipesched/internal/core"
	"pipesched/internal/dag"
	"pipesched/internal/exhaustive"
	"pipesched/internal/listsched"
	"pipesched/internal/machine"
	"pipesched/internal/nopins"
	"pipesched/internal/regalloc"
	"pipesched/internal/sim"
)

// Divergence is one oracle finding: a named check that failed on a
// (block, machine) pair, with enough detail to understand the mismatch.
// The repro context (block text, machine JSON, seed) is attached by the
// Run driver, which sees the generators.
type Divergence struct {
	Check     string `json:"check"`               // which oracle check failed
	Candidate string `json:"candidate,omitempty"` // offending scheduler, when one is implicated
	Detail    string `json:"detail"`              // human-readable mismatch description
}

func (d Divergence) String() string {
	if d.Candidate != "" {
		return fmt.Sprintf("%s[%s]: %s", d.Check, d.Candidate, d.Detail)
	}
	return fmt.Sprintf("%s: %s", d.Check, d.Detail)
}

// Candidate is one scheduler under test. All candidates must agree on
// the optimal cost whenever they claim optimality; adding a candidate
// (a new traversal order, a new pruning rule) puts it under the same
// contract automatically.
type Candidate struct {
	Name string
	Run  func(g *dag.Graph, m *machine.Machine) (*core.Schedule, error)
}

// Config tunes the per-pair check suite. The zero value selects the
// defaults shown on each field.
type Config struct {
	// Lambda is the per-candidate search budget (Ω invocations). A
	// curtailed candidate keeps its legality checks but abstains from the
	// optimality differential. Default 200 000.
	Lambda int64

	// Workers is the fan-out of the parallel search candidate. Default 4.
	Workers int

	// ExhaustiveOrders caps the legal-schedule enumeration used as the
	// optimality reference: blocks with more topological orders than this
	// skip the exhaustive differential (the search candidates still
	// cross-check each other). Default 20 000.
	ExhaustiveOrders int64

	// ExhaustivePermutations caps the block size for the full n!
	// permutation search (the paper's naive baseline). Default 7 (5 040
	// permutations).
	ExhaustivePermutations int

	// DisableExhaustive skips the exhaustive reference enumerations.
	DisableExhaustive bool

	// Candidates overrides the scheduler set under test in every mode;
	// nil selects the six searches of candidates. Tests inject broken
	// schedulers here to prove the oracle catches them.
	Candidates []Candidate
}

func (c Config) withDefaults() Config {
	if c.Lambda <= 0 {
		c.Lambda = 200_000
	}
	if c.Workers <= 0 {
		c.Workers = 4
	}
	if c.ExhaustiveOrders <= 0 {
		c.ExhaustiveOrders = 20_000
	}
	if c.ExhaustivePermutations <= 0 {
		c.ExhaustivePermutations = 7
	}
	return c
}

// candidates returns Config.Candidates when set, otherwise the standard
// differential set in mode: the plain sequential search, the parallel
// search (shared incumbent, work fanned across goroutines), ablations
// with the lower-bound engine and the dominance memo disabled
// individually and together (the last is the paper-faithful prune set),
// and the search with the extended strong equivalence filter. Each
// explores the space differently; all must land on the same optimum.
func (c Config) candidates(mode machine.SchedMode) []Candidate {
	if c.Candidates != nil {
		return c.Candidates
	}
	search := func(name string, mut func(*core.Options)) Candidate {
		return Candidate{Name: name, Run: func(g *dag.Graph, m *machine.Machine) (*core.Schedule, error) {
			o := core.Options{Sched: mode, Lambda: c.Lambda}
			if mut != nil {
				mut(&o)
			}
			return core.Find(g, m, o)
		}}
	}
	return []Candidate{
		search("find", nil),
		{Name: "find-parallel", Run: func(g *dag.Graph, m *machine.Machine) (*core.Schedule, error) {
			return core.FindParallel(g, m, core.Options{Sched: mode, Lambda: c.Lambda}, c.Workers)
		}},
		search("find-nolowerbound", func(o *core.Options) { o.DisableLowerBound = true }),
		search("find-nomemo", func(o *core.Options) { o.DisableMemo = true }),
		search("find-noprune", func(o *core.Options) { o.DisableLowerBound, o.DisableMemo = true, true }),
		search("find-strongequiv", func(o *core.Options) { o.StrongEquivalence = true }),
	}
}

// outcome is one candidate's returned schedule.
type outcome struct {
	name string
	s    *core.Schedule
}

// CheckPair runs the full differential suite on one (block, machine)
// pair under mode and returns every divergence found (nil/empty means
// the pair is clean). The block is taken through g; it must already be
// validated (dag.Build validates).
func CheckPair(g *dag.Graph, m *machine.Machine, mode machine.SchedMode, cfg Config) []Divergence {
	if err := mode.Validate(); err != nil {
		return []Divergence{{Check: "mode-invalid", Detail: err.Error()}}
	}
	cfg = cfg.withDefaults()
	var divs []Divergence
	report := func(check, name, format string, args ...any) {
		divs = append(divs, Divergence{Check: check, Candidate: name, Detail: fmt.Sprintf(format, args...)})
	}

	// The list-scheduling seed is the upper bound: the search starts from
	// it, so returning anything costlier is a hard bug (the incumbent can
	// only improve).
	seed, bounded, err := seedCost(g, m, mode)
	if err != nil {
		report("seed-illegal", "", "list schedule is not a legal order: %v", err)
		return divs
	}

	var outs []outcome
	var infeasibleBy []string
	for _, c := range cfg.candidates(mode) {
		s, err := c.Run(g, m)
		if err != nil {
			// Only minreg-k may end a search with no incumbent: a
			// completed one proves infeasibility, a curtailed one abstains.
			minregK := mode.Kind == machine.SchedMinRegK
			switch {
			case minregK && errors.Is(err, core.ErrInfeasible):
				infeasibleBy = append(infeasibleBy, c.Name)
			case minregK && errors.Is(err, core.ErrBudget):
			default:
				report("candidate-error", c.Name, "%v", err)
			}
			continue
		}
		outs = append(outs, outcome{c.Name, s})
		divs = append(divs, checkSchedule(g, m, mode, c.Name, s)...)
		if bounded && s.TotalNOPs > seed {
			report("upper-bound", c.Name, "schedule costs %d, list-schedule seed costs %d", s.TotalNOPs, seed)
		}
		if s.RootLB > s.TotalNOPs {
			report("bound-admissible", c.Name, "root lower bound %d exceeds the returned schedule's cost %d",
				s.RootLB, s.TotalNOPs)
		}
	}

	// A proof of infeasibility and a (legality-verified) feasible
	// schedule cannot both be right.
	if len(outs) > 0 {
		for _, name := range infeasibleBy {
			report("infeasible-agree", name, "proved MAXLIVE ≤ %d infeasible, but %s returned a schedule with MAXLIVE %d",
				mode.K, outs[0].name, outs[0].s.MaxLive)
		}
	}

	// Optimality differential on the mode's objective — (NOPs, MAXLIVE)
	// lexicographically for minreg-lex, the cost alone otherwise: every
	// optimality claim must agree with the first.
	var best *outcome
	for i, o := range outs {
		if !o.s.Optimal {
			continue
		}
		if best == nil {
			best = &outs[i]
			continue
		}
		if o.s.TotalNOPs != best.s.TotalNOPs || (mode.Kind == machine.SchedMinRegLex && o.s.MaxLive != best.s.MaxLive) {
			report("optimal-agree", o.name, "claims optimal %s, %s claims optimal %s",
				objective(mode, o.s), best.name, objective(mode, best.s))
		}
	}

	// Against the proven optimum: a curtailed candidate must not beat
	// it, every root lower bound must stay at or below it, and a
	// certified gap must bracket it — a loose certificate is allowed, a
	// lying one is not.
	if best != nil {
		opt := best.s.TotalNOPs
		for _, o := range outs {
			if !o.s.Optimal && o.s.TotalNOPs < opt {
				report("optimal-beaten", o.name, "curtailed schedule costs %d, below the proven optimum %d of %s",
					o.s.TotalNOPs, opt, best.name)
			}
			if o.s.RootLB > opt {
				report("bound-admissible", o.name, "root lower bound %d exceeds the proven optimum %d of %s",
					o.s.RootLB, opt, best.name)
			}
			if o.s.Gap == 0 && o.s.TotalNOPs != opt {
				report("gap-sound", o.name, "gap 0 certifies cost %d as optimal, but %s proves the optimum is %d",
					o.s.TotalNOPs, best.name, opt)
			}
			if o.s.Gap > 0 && o.s.TotalNOPs-o.s.Gap > opt {
				report("gap-sound", o.name, "gap %d certifies the optimum within [%d, %d], but %s proves it is %d",
					o.s.Gap, o.s.TotalNOPs-o.s.Gap, o.s.TotalNOPs, best.name, opt)
			}
		}
	}

	if !cfg.DisableExhaustive {
		divs = append(divs, checkReference(g, m, mode, cfg, outs, best, infeasibleBy)...)
	}
	return divs
}

// objective renders a schedule's cost in mode's objective.
func objective(mode machine.SchedMode, s *core.Schedule) string {
	if mode.NeedsPressure() {
		return fmt.Sprintf("(nops=%d, maxlive=%d)", s.TotalNOPs, s.MaxLive)
	}
	return fmt.Sprintf("cost %d", s.TotalNOPs)
}

// seedCost prices the ByHeight list schedule every search starts from
// in mode's objective, independently of the search core: NOP insertion
// for the in-order modes, the forward simulator for scoreboard. bounded
// is false when the seed is no incumbent — under minreg-k, when its
// MAXLIVE exceeds k — and so bounds nothing.
func seedCost(g *dag.Graph, m *machine.Machine, mode machine.SchedMode) (cost int, bounded bool, err error) {
	r, err := nopins.NewEvaluator(g, m, nopins.AssignFixed).EvaluateOrder(listsched.Schedule(g, listsched.ByHeight))
	if err != nil {
		return 0, false, err
	}
	switch mode.Kind {
	case machine.SchedScoreboard:
		tr, err := sim.RunScoreboard(sim.ScoreboardInput{
			Input:  sim.Input{Graph: g, M: m, Order: r.Order, Pipes: r.Pipes},
			Window: mode.Window,
			Width:  mode.Width,
		})
		if err != nil {
			return 0, false, err
		}
		return tr.Stalls, true, nil
	case machine.SchedMinRegK:
		nb, err := g.Block.Permute(r.Order)
		if err != nil {
			return 0, false, err
		}
		return r.TotalNOPs, regalloc.Pressure(nb) <= mode.K, nil
	}
	return r.TotalNOPs, true, nil
}

// checkReference compares the pair's verdict with mode's exhaustive
// reference on blocks small enough to enumerate: the best legal order
// (and, smaller still, the best of all n! permutations) in the paper
// mode, the enumeration priced through regalloc in the pressure modes —
// on the objective when feasible, on infeasibility otherwise — and the
// enumeration replayed through the forward simulator in the scoreboard
// mode.
func checkReference(g *dag.Graph, m *machine.Machine, mode machine.SchedMode, cfg Config,
	outs []outcome, best *outcome, infeasibleBy []string) []Divergence {
	var divs []Divergence
	report := func(check, name, format string, args ...any) {
		divs = append(divs, Divergence{Check: check, Candidate: name, Detail: fmt.Sprintf(format, args...)})
	}
	if best == nil && !mode.NeedsPressure() {
		return nil
	}
	n := exhaustive.CountLegal(g, cfg.ExhaustiveOrders+1)
	enumerable := n <= cfg.ExhaustiveOrders
	ctx := context.Background()
	switch mode.Kind {
	case machine.SchedPaper:
		opt := best.s.TotalNOPs
		if enumerable {
			ref := exhaustive.SearchLegal(g, m, cfg.ExhaustiveOrders+1)
			if ref.Found && !ref.Exhausted && ref.Best.TotalNOPs != opt {
				report("exhaustive-legal", best.name, "search claims optimal cost %d, exhaustive legal enumeration finds %d over %d orders",
					opt, ref.Best.TotalNOPs, n)
			}
		}
		if g.N <= cfg.ExhaustivePermutations {
			ref := exhaustive.SearchExhaustive(g, m, 0)
			if ref.Found && ref.Best.TotalNOPs != opt {
				report("exhaustive-perm", best.name, "search claims optimal cost %d, full permutation search finds %d",
					opt, ref.Best.TotalNOPs)
			}
		}

	case machine.SchedScoreboard:
		if !enumerable {
			break
		}
		ref := exhaustive.SearchScoreboard(ctx, g, m, mode.Window, mode.Width, 0)
		if ref.Found && !ref.Exhausted && ref.Stalls != best.s.TotalNOPs {
			report("exhaustive-scoreboard", best.name, "search claims optimal stall count %d, enumeration+simulation over %d orders finds %d",
				best.s.TotalNOPs, n, ref.Stalls)
		}

	default:
		if !enumerable {
			break
		}
		var ref exhaustive.PressureResult
		if mode.Kind == machine.SchedMinRegLex {
			ref = exhaustive.SearchMinRegLex(ctx, g, m, 0)
		} else {
			ref = exhaustive.SearchMinRegK(ctx, g, m, mode.K, 0)
		}
		switch {
		case ref.Exhausted:
			// Did not complete (cannot happen with budget 0 short of
			// cancellation); abstain.
		case !ref.Found:
			for _, o := range outs {
				report("exhaustive-infeasible", o.name, "returned a schedule with MAXLIVE %d, but enumeration of %d orders finds none with MAXLIVE ≤ %d",
					o.s.MaxLive, n, mode.K)
			}
		default:
			if len(infeasibleBy) > 0 {
				report("exhaustive-infeasible", infeasibleBy[0], "proved MAXLIVE ≤ %d infeasible, but enumeration finds a schedule with (nops=%d, maxlive=%d)",
					mode.K, ref.Best.TotalNOPs, ref.MaxLive)
			}
			if best != nil && (ref.Best.TotalNOPs != best.s.TotalNOPs ||
				(mode.Kind == machine.SchedMinRegLex && ref.MaxLive != best.s.MaxLive)) {
				report("exhaustive-pressure", best.name, "search claims optimal %s, enumeration over %d orders finds (nops=%d, maxlive=%d)",
					objective(mode, best.s), n, ref.Best.TotalNOPs, ref.MaxLive)
			}
		}
	}
	return divs
}

// checkSchedule proves one emitted schedule legal and consistent under
// mode: shape, topological legality and certificate consistency, then
// the claimed cost replayed — through the hazard simulator under all
// three delay mechanisms in the in-order modes, plus the MAXLIVE claim
// re-derived through regalloc's interval sweep of the permuted block
// (independent of the search core's incremental tracker) and the minreg-k
// bound; through the forward window simulator, with no NOP padding, in
// the scoreboard mode.
func checkSchedule(g *dag.Graph, m *machine.Machine, mode machine.SchedMode, name string, s *core.Schedule) []Divergence {
	var divs []Divergence
	report := func(check, format string, args ...any) {
		divs = append(divs, Divergence{Check: check, Candidate: name, Detail: fmt.Sprintf(format, args...)})
	}
	scoreboard := mode.Kind == machine.SchedScoreboard
	if len(s.Order) != g.N || len(s.Eta) != g.N || len(s.Pipes) != g.N || (scoreboard && len(s.IssueTicks) != g.N) {
		report("schedule-legal", "schedule shape %d/%d/%d/%d does not match block size %d",
			len(s.Order), len(s.Eta), len(s.Pipes), len(s.IssueTicks), g.N)
		return divs
	}
	if !g.IsLegalOrder(s.Order) {
		report("schedule-legal", "order %v violates dependences", s.Order)
		return divs
	}
	if s.Optimal != (s.Stopped == nil) {
		report("schedule-legal", "Optimal=%t inconsistent with Stopped=%v", s.Optimal, s.Stopped)
	}
	if s.RootLB < 0 || s.Gap < 0 {
		report("schedule-legal", "negative certificate: RootLB=%d Gap=%d", s.RootLB, s.Gap)
	}
	if s.Optimal && s.Gap != 0 {
		report("schedule-legal", "proven-optimal result carries nonzero gap %d", s.Gap)
	}

	in := sim.Input{Graph: g, M: m, Order: s.Order, Eta: s.Eta, Pipes: s.Pipes}
	if scoreboard {
		for i, eta := range s.Eta {
			if eta != 0 {
				report("schedule-legal", "scoreboard schedule carries NOP padding %d at position %d", eta, i)
				break
			}
		}
		sin := sim.ScoreboardInput{Input: in, Window: mode.Window, Width: mode.Width}
		if err := sim.VerifyScoreboard(sin, s.IssueTicks, s.TotalNOPs); err != nil {
			report("sim-verify", "%v", err)
		}
		return divs
	}
	if err := sim.Verify(in, s.TotalNOPs, s.Ticks); err != nil {
		report("sim-verify", "%v", err)
	}
	if !mode.NeedsPressure() {
		return divs
	}
	nb, err := g.Block.Permute(s.Order)
	if err != nil {
		report("pressure-verify", "order does not permute the block: %v", err)
		return divs
	}
	if live := regalloc.Pressure(nb); live != s.MaxLive {
		report("pressure-verify", "schedule claims MAXLIVE %d but the interval sweep computes %d", s.MaxLive, live)
	}
	if mode.Kind == machine.SchedMinRegK && s.MaxLive > mode.K {
		report("pressure-bound", "schedule's MAXLIVE %d violates the mode bound k=%d", s.MaxLive, mode.K)
	}
	return divs
}
