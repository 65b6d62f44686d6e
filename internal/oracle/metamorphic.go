package oracle

import (
	"errors"
	"fmt"
	"math/rand"

	"pipesched/internal/core"
	"pipesched/internal/dag"
	"pipesched/internal/ir"
	"pipesched/internal/machine"
)

// The metamorphic invariants: transformations of the block or the
// machine description that provably cannot change the optimum in any
// scheduler mode.
// A scheduler that accidentally depends on tuple reference numbers,
// operand order of commutative operations, pipeline-table row order, or
// the spelling of pipeline identifiers will diverge here even on blocks
// too large for the exhaustive reference.

// RenumberTuples returns a copy of b whose tuple IDs are replaced by
// fresh random unique positive IDs (references remapped to match).
// Positions, operations and dependences are untouched, so the dependence
// DAG — and therefore the optimal cost — is identical.
func RenumberTuples(b *ir.Block, rng *rand.Rand) *ir.Block {
	remap := make(map[int]int, len(b.Tuples))
	used := make(map[int]bool, len(b.Tuples))
	for _, t := range b.Tuples {
		for {
			id := 1 + rng.Intn(1_000_000)
			if !used[id] {
				used[id] = true
				remap[t.ID] = id
				break
			}
		}
	}
	nb := &ir.Block{Label: b.Label, Tuples: make([]ir.Tuple, len(b.Tuples))}
	for i, t := range b.Tuples {
		nt := t
		nt.ID = remap[t.ID]
		if nt.A.Kind == ir.RefOperand {
			nt.A.Ref = remap[nt.A.Ref]
		}
		if nt.B.Kind == ir.RefOperand {
			nt.B.Ref = remap[nt.B.Ref]
		}
		nb.Tuples[i] = nt
	}
	return nb
}

// SwapCommutativeOperands returns a copy of b with the operands of a
// random subset of commutative tuples (Add, Mul) exchanged. The value
// computed and the dependence edges are identical, so the optimal cost
// must not move.
func SwapCommutativeOperands(b *ir.Block, rng *rand.Rand) *ir.Block {
	nb := b.Clone()
	for i, t := range nb.Tuples {
		if t.Op.IsCommutative() && rng.Intn(2) == 0 {
			nb.Tuples[i].A, nb.Tuples[i].B = t.B, t.A
		}
	}
	return nb
}

// PermutePipelines returns a machine whose pipeline-table rows are
// reordered (identifiers, latencies and the op map untouched). Every
// lookup is by pipeline ID, so row order is presentation only.
func PermutePipelines(m *machine.Machine, rng *rand.Rand) (*machine.Machine, error) {
	perm := rng.Perm(len(m.Pipelines))
	pipes := make([]machine.Pipeline, len(m.Pipelines))
	for i, j := range perm {
		pipes[i] = m.Pipelines[j]
	}
	opMap := make(map[ir.Op][]int, len(m.OpMap))
	for op, ids := range m.OpMap {
		opMap[op] = append([]int(nil), ids...)
	}
	return machine.New(m.Name+"-rowperm", pipes, opMap)
}

// RelabelPipelines returns a machine with pipeline identifiers renamed
// by a random bijection, applied consistently to the pipeline table and
// the op map (preserving each op's list order, so fixed-assignment
// choices stay on the same physical pipeline). Identifier spelling
// carries no timing information, so the optimal cost is invariant.
func RelabelPipelines(m *machine.Machine, rng *rand.Rand) (*machine.Machine, error) {
	n := len(m.Pipelines)
	perm := rng.Perm(n)
	relabel := make(map[int]int, n)
	for i, p := range m.Pipelines {
		relabel[p.ID] = perm[i] + 1
	}
	pipes := make([]machine.Pipeline, n)
	for i, p := range m.Pipelines {
		np := p
		np.ID = relabel[p.ID]
		pipes[i] = np
	}
	opMap := make(map[ir.Op][]int, len(m.OpMap))
	for op, ids := range m.OpMap {
		nids := make([]int, len(ids))
		for i, id := range ids {
			if id == machine.NoPipeline {
				nids[i] = id
				continue
			}
			nids[i] = relabel[id]
		}
		opMap[op] = nids
	}
	return machine.New(m.Name+"-relabel", pipes, opMap)
}

// CheckMetamorphic runs the metamorphic invariants on one (block,
// machine) pair under mode. It establishes the baseline optimum (or,
// under minreg-k, proven infeasibility), applies each cost-preserving
// transformation — tuple renumbering, commutative operand swaps,
// pipeline-table row order, pipeline relabeling — re-runs the search,
// and reports any movement of the optimum (MAXLIVE included under
// minreg-lex: it counts simultaneously-live values, not their names) or
// of infeasibility. Then it checks the mode's degeneracy invariants:
//
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
func CheckMetamorphic(g *dag.Graph, m *machine.Machine, mode machine.SchedMode, cfg Config, rng *rand.Rand) []Divergence {
	if mode.Validate() != nil {
		return nil // CheckPair reports it
	}
	cfg = cfg.withDefaults()
	find := func(g2 *dag.Graph, m2 *machine.Machine, mode2 machine.SchedMode) (*core.Schedule, error) {
		return core.Find(g2, m2, core.Options{Sched: mode2, Lambda: cfg.Lambda})
	}
	var divs []Divergence
	report := func(name, format string, args ...any) {
		divs = append(divs, Divergence{Check: "metamorphic-" + name, Detail: fmt.Sprintf(format, args...)})
	}

	base, err := find(g, m, mode)
	infeasible := errors.Is(err, core.ErrInfeasible)
	if (err != nil && !infeasible) || (base != nil && !base.Optimal) {
		return nil // curtailed or failed baseline: inconclusive
	}

	check := func(name string, b2 *ir.Block, m2 *machine.Machine) {
		g2, err := dag.Build(b2)
		if err != nil {
			report(name, "transformed block is invalid: %v", err)
			return
		}
		s2, err := find(g2, m2, mode)
		switch {
		case errors.Is(err, core.ErrInfeasible):
			if !infeasible {
				report(name, "baseline is feasible with %s but the transformed pair is proven infeasible",
					objective(mode, base))
			}
		case errors.Is(err, core.ErrBudget):
			// minreg-k curtailed before any feasible schedule: inconclusive
		case err != nil:
			report(name, "search failed on transformed pair: %v", err)
		case !s2.Optimal:
			// budget asymmetry: inconclusive, not a divergence
		case infeasible:
			report(name, "baseline is proven infeasible but the transformed pair schedules with %s",
				objective(mode, s2))
		case s2.TotalNOPs != base.TotalNOPs || (mode.Kind == machine.SchedMinRegLex && s2.MaxLive != base.MaxLive):
			report(name, "optimal %s moved to %s under a cost-preserving transformation",
				objective(mode, base), objective(mode, s2))
		}
	}
	check("renumber", RenumberTuples(g.Block, rng), m)
	check("commute", SwapCommutativeOperands(g.Block, rng), m)
	if mp, err := PermutePipelines(m, rng); err == nil {
		check("pipe-order", g.Block, mp)
	} else {
		report("pipe-order", "row permutation produced invalid machine: %v", err)
	}
	if mr, err := RelabelPipelines(m, rng); err == nil {
		check("pipe-relabel", g.Block, mr)
	} else {
		report("pipe-relabel", "relabeling produced invalid machine: %v", err)
	}

	// paperOpt is the paper mode's proven optimum, or -1 when curtailed.
	paperOpt := func() int {
		if p, err := find(g, m, machine.SchedMode{}); err == nil && p.Optimal {
			return p.TotalNOPs
		}
		return -1
	}
	switch mode.Kind {
	case machine.SchedMinRegLex:
		// The NOP component of the lex optimum is the paper optimum.
		if p := paperOpt(); p >= 0 && base.TotalNOPs != p {
			report("lex-nops", "minreg-lex optimum has %d NOPs but the paper optimum is %d — the tiebreak changed the primary objective",
				base.TotalNOPs, p)
		}

	case machine.SchedMinRegK:
		// Monotonicity: k+1 admits every k-feasible schedule.
		if mode.K+1 <= machine.MaxSchedK {
			up, err := find(g, m, machine.MinRegK(mode.K+1))
			switch {
			case errors.Is(err, core.ErrInfeasible):
				if !infeasible {
					report("k-monotone", "k=%d is feasible with %d NOPs but k=%d is proven infeasible",
						mode.K, base.TotalNOPs, mode.K+1)
				}
			case err == nil && up.Optimal && !infeasible && up.TotalNOPs > base.TotalNOPs:
				report("k-monotone", "relaxing k=%d to k=%d raised the optimal NOP count from %d to %d",
					mode.K, mode.K+1, base.TotalNOPs, up.TotalNOPs)
			}
		}
		// A bound above any possible MAXLIVE reproduces the paper optimum.
		if loose := len(g.Block.Tuples) + 1; loose <= machine.MaxSchedK {
			lres, err := find(g, m, machine.MinRegK(loose))
			if errors.Is(err, core.ErrInfeasible) {
				report("k-loose", "k=%d exceeds the block's value count yet is proven infeasible", loose)
			} else if err == nil && lres.Optimal {
				if p := paperOpt(); p >= 0 && lres.TotalNOPs != p {
					report("k-loose", "unconstraining k (k=%d) yields %d NOPs but the paper optimum is %d",
						loose, lres.TotalNOPs, p)
				}
			}
		}

	case machine.SchedScoreboard:
		// A 1x1 scoreboard is the in-order paper machine.
		if inorder, err := find(g, m, machine.Scoreboard(1, 1)); err == nil && inorder.Optimal {
			if p := paperOpt(); p >= 0 && inorder.TotalNOPs != p {
				report("sb-inorder", "1x1 scoreboard optimum is %d stalls but the paper optimum is %d NOPs",
					inorder.TotalNOPs, p)
			}
		}
	}
	return divs
}
