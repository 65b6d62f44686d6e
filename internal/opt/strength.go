package opt

import "pipesched/internal/ir"

// StrengthReduce rewrites multiplications by the constant 2 into
// self-additions (x*2 → x+x). Unlike a classical scalar optimization,
// the motivation here is scheduling: on every built-in machine the
// adder pipeline is shorter than the multiplier (e.g. latency 2 vs 4 on
// the paper's simulation machine), so moving an operation between
// functional units changes the delay structure the scheduler must hide.
// Like Reassociate, the pass is opt-in — it changes the workload's
// operation mix relative to the paper's model.
//
// Only x*2 is rewritten (a one-for-one tuple replacement); higher powers
// would need extra tuples and register pressure, a poor trade on the
// machines modeled here.
func StrengthReduce(b *ir.Block) bool {
	changed := false
	for i := range b.Tuples {
		t := &b.Tuples[i]
		if t.Op != ir.Mul {
			continue
		}
		cA, okA := constOf(b, t.A)
		cB, okB := constOf(b, t.B)
		switch {
		case okB && cB == 2 && !okA:
			*t = ir.Tuple{ID: t.ID, Op: ir.Add, A: t.A, B: t.A}
			changed = true
		case okA && cA == 2 && !okB:
			*t = ir.Tuple{ID: t.ID, Op: ir.Add, A: t.B, B: t.B}
			changed = true
		}
	}
	return changed
}
