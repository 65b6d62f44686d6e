package core

import (
	"slices"

	"pipesched/internal/dag"
)

// The register-pressure modes (machine.SchedMinRegLex, SchedMinRegK)
// couple internal/regalloc's liveness model into the branch-and-bound
// search. This file holds the incremental live-set tracker and the
// packed lexicographic cost the searcher prunes with.
//
// Liveness model (must match regalloc.intervals exactly — the oracle
// cross-checks every emitted schedule's MaxLive against
// regalloc.Pressure): a value-producing tuple occupies a register from
// its own position up to, but excluding, the position of its last use;
// a value that is never used occupies a register at its own position
// only. Within one position releases happen before acquisitions, but
// the sweep's peak is sampled after both, so the live count after
// placing position p is
//
//	L(p) = |{defs d placed ≤ p with an unplaced consumer}| + [p's def is unused]
//
// and MAXLIVE = max_p L(p). Both terms depend only on WHICH nodes are
// placed (plus the just-placed node), so the tracker maintains L — and
// its running maximum — in O(deg) per Push/Pop with exact undo.

// pressureBits is the width of the MAXLIVE component in the packed
// lexicographic cost (machine.MaxSchedK = 2^pressureBits − 1 keeps k
// representable).
const pressureBits = 20

// packLex packs a (NOPs, MAXLIVE) pair into one int64 ordered
// lexicographically: comparing packed values compares NOPs first and
// peak pressure second. Both components are non-decreasing along a
// search branch, so packed prefix cost is a monotone admissible bound
// on packed completion cost — α–β pruning on it is exact for the
// lexicographic objective.
func packLex(nops, peak int) int64 {
	return int64(nops)<<pressureBits | int64(peak)
}

// liveTracker maintains the running register pressure of the search's
// partial schedule. It mirrors the evaluator's Push/Pop discipline.
type liveTracker struct {
	produces []bool    // node -> produces a value
	totalUse []int32   // node -> distinct consumer instructions (producing defs)
	operands [][]int32 // node -> distinct value-producing operand def nodes
	remUses  []int32   // node -> consumers not yet scheduled
	liveNow  int32     // |{placed defs with an unplaced consumer}|
	peak     int32     // running MAXLIVE of the prefix
	depth    int
	saved    []int32 // per-depth peak snapshot for Pop
}

// newLiveTracker builds the tracker for one graph. Operand def lists
// are deduplicated (a tuple referencing the same value twice is one
// consumer) and restricted to value-producing defs, matching the
// interval map regalloc builds.
func newLiveTracker(g *dag.Graph) *liveTracker {
	n := g.N
	lt := &liveTracker{
		produces: make([]bool, n),
		totalUse: make([]int32, n),
		operands: make([][]int32, n),
		remUses:  make([]int32, n),
		saved:    make([]int32, n),
	}
	for u := 0; u < n; u++ {
		lt.produces[u] = g.Block.Tuples[u].Op.ProducesValue()
	}
	for u := 0; u < n; u++ {
		refs, nr := g.Block.Tuples[u].Refs()
		for _, id := range refs[:nr] {
			d := g.Block.Pos(id)
			if d < 0 || !lt.produces[d] || slices.Contains(lt.operands[u], int32(d)) {
				continue
			}
			lt.operands[u] = append(lt.operands[u], int32(d))
			lt.totalUse[d]++
		}
	}
	copy(lt.remUses, lt.totalUse)
	return lt
}

// push appends node u to the tracked prefix and updates liveNow/peak.
func (lt *liveTracker) push(u int) {
	lt.saved[lt.depth] = lt.peak
	lt.depth++
	for _, d := range lt.operands[u] {
		lt.remUses[d]--
		if lt.remUses[d] == 0 {
			lt.liveNow--
		}
	}
	l := lt.liveNow
	if lt.produces[u] {
		if lt.totalUse[u] > 0 {
			lt.liveNow++
			l = lt.liveNow
		} else {
			l++ // unused def: occupies a register at its own position only
		}
	}
	if l > lt.peak {
		lt.peak = l
	}
}

// pop undoes the most recent push of node u.
func (lt *liveTracker) pop(u int) {
	if lt.produces[u] && lt.totalUse[u] > 0 {
		lt.liveNow--
	}
	for _, d := range lt.operands[u] {
		if lt.remUses[d] == 0 {
			lt.liveNow++
		}
		lt.remUses[d]++
	}
	lt.depth--
	lt.peak = lt.saved[lt.depth]
}

// peakOf prices one complete (or prefix) order's MAXLIVE with a fresh
// tracker — used to price seed schedules before the search proper.
func peakOf(g *dag.Graph, order []int) int {
	lt := newLiveTracker(g)
	for _, u := range order {
		lt.push(u)
	}
	return int(lt.peak)
}

// packCost is the mode's packed cost order: minreg-lex packs (NOPs,
// MAXLIVE), the other modes order by the cost alone.
func (p *problem) packCost(nops, peak int) int64 {
	if p.lex {
		return packLex(nops, peak)
	}
	return int64(nops)
}

// livePeak returns the running MAXLIVE of the current prefix (0 when
// the mode does not track pressure).
func (s *searcher) livePeak() int {
	if s.lt == nil {
		return 0
	}
	return int(s.lt.peak)
}
