package bound

import "pipesched/internal/dag"

// PressureFloor returns an admissible lower bound on the MAXLIVE (peak
// register pressure, per internal/regalloc's interval model) of EVERY
// legal schedule of g.
//
// The argument: fix any legal order and look at the position p where
// instruction x issues. A value-producing def d is certainly live at p
// when (a) d is a strict ancestor of x — so d is placed before p in
// every legal order — and (b) some consumer y of d depends on x — so
// y is placed after p in every legal order, keeping d's interval open
// across p. On top of those, x's own def (when x produces a value)
// occupies a register at p — even an unused def holds its register
// across its own position. So
//
//	floor(x) = |{producing d ∈ anc(x) : ∃ consumer y of d, y ∈ desc(x)}| + [x produces]
//
// is a lower bound on the live count at x's position in every legal
// order, and max_x floor(x) bounds the peak. The search core uses it
// for the lexicographic mode's root certificate and to prove MAXLIVE ≤ k
// infeasible at the root; the differential oracle cross-checks it
// against exhaustive enumeration.
func PressureFloor(g *dag.Graph) int {
	n := g.N
	produces := make([]bool, n)
	for u := 0; u < n; u++ {
		produces[u] = g.Block.Tuples[u].Op.ProducesValue()
	}
	// consumers[d]: distinct nodes referencing d's value.
	consumers := make([][]int, n)
	for y := 0; y < n; y++ {
		refs, nr := g.Block.Tuples[y].Refs()
		for _, id := range refs[:nr] {
			d := g.Block.Pos(id)
			if d < 0 || !produces[d] {
				continue
			}
			dup := false
			for _, seen := range consumers[d] {
				if seen == y {
					dup = true
					break
				}
			}
			if !dup {
				consumers[d] = append(consumers[d], y)
			}
		}
	}
	floor := 0
	for x := 0; x < n; x++ {
		live := 0
		if produces[x] {
			live++
		}
		for d := 0; d < n; d++ {
			if !produces[d] || d == x || !g.DependsOn(x, d) {
				continue
			}
			for _, y := range consumers[d] {
				if y != x && g.DependsOn(y, x) {
					live++
					break
				}
			}
		}
		if live > floor {
			floor = live
		}
	}
	return floor
}
