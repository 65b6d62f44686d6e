// Package opt implements the traditional optimizations the paper's
// prototype front end applies before scheduling (section 3.1): constant
// folding with value propagation, common subexpression elimination, dead
// code elimination (including dead stores), and algebraic peephole
// simplifications.
//
// All passes operate on the tuple form in place of an SSA: tuple
// references are value names, so value identity is reference identity.
// Every pass preserves the block's observable semantics — the final
// variable environment computed by ir.Exec — which the test suite checks
// against randomly generated programs.
package opt

import (
	"fmt"
	"sort"

	"pipesched/internal/ir"
)

// Pass is one rewriting pass; it reports whether it changed the block.
type Pass struct {
	Name string
	Run  func(*ir.Block) bool
}

// Passes returns the standard pass list in application order.
func Passes() []Pass {
	return []Pass{
		{Name: "constfold", Run: ConstFold},
		{Name: "algebraic", Run: Algebraic},
		{Name: "cse", Run: CSE},
		{Name: "deadstore", Run: DeadStoreElim},
		{Name: "dce", Run: DCE},
	}
}

// Optimize clones b and runs all passes to a fixed point, returning the
// optimized block. The input block is not modified.
func Optimize(b *ir.Block) *ir.Block {
	out := b.Clone()
	passes := Passes()
	// Each iteration strictly shrinks the block or strictly reduces the
	// number of non-Const tuples, so n*len+1 rounds is a safe bound; in
	// practice two or three rounds reach the fixed point.
	for round := 0; round <= len(out.Tuples)*len(passes)+1; round++ {
		changed := false
		for _, p := range passes {
			if p.Run(out) {
				changed = true
			}
		}
		if !changed {
			break
		}
	}
	out.InvalidateIndex()
	return out
}

// constOf resolves an operand to a compile-time constant: an immediate,
// or a reference to a Const tuple.
func constOf(b *ir.Block, o ir.Operand) (int64, bool) {
	switch o.Kind {
	case ir.ImmOperand:
		return o.Imm, true
	case ir.RefOperand:
		if i := b.Pos(o.Ref); i >= 0 && b.Tuples[i].Op == ir.Const {
			return b.Tuples[i].A.Imm, true
		}
	}
	return 0, false
}

// rewriteRefs redirects every reference to tuple from so that it
// references tuple to instead.
func rewriteRefs(b *ir.Block, from, to int) {
	for i := range b.Tuples {
		t := &b.Tuples[i]
		if t.A.Kind == ir.RefOperand && t.A.Ref == from {
			t.A.Ref = to
		}
		if t.B.Kind == ir.RefOperand && t.B.Ref == from {
			t.B.Ref = to
		}
	}
}

// removeAt deletes the tuples at the given positions.
func removeAt(b *ir.Block, dead map[int]bool) {
	if len(dead) == 0 {
		return
	}
	kept := b.Tuples[:0]
	for i, t := range b.Tuples {
		if !dead[i] {
			kept = append(kept, t)
		}
	}
	b.Tuples = kept
	b.InvalidateIndex()
}

// ConstFold folds arithmetic over constant operands into Const tuples
// (constant propagation happens implicitly: a folded tuple becomes a
// Const that feeds later folds on the next iteration).
func ConstFold(b *ir.Block) bool {
	changed := false
	for i := range b.Tuples {
		t := &b.Tuples[i]
		switch t.Op {
		case ir.Neg:
			if v, ok := constOf(b, t.A); ok {
				*t = ir.Tuple{ID: t.ID, Op: ir.Const, A: ir.Imm(-v)}
				changed = true
			}
		case ir.Add, ir.Sub, ir.Mul, ir.Div, ir.Mod:
			x, okX := constOf(b, t.A)
			y, okY := constOf(b, t.B)
			if !okX || !okY {
				continue
			}
			var v int64
			switch t.Op {
			case ir.Add:
				v = x + y
			case ir.Sub:
				v = x - y
			case ir.Mul:
				v = x * y
			case ir.Div:
				if y == 0 {
					continue // preserve the runtime fault
				}
				v = x / y
			case ir.Mod:
				if y == 0 {
					continue
				}
				v = x % y
			}
			*t = ir.Tuple{ID: t.ID, Op: ir.Const, A: ir.Imm(v)}
			changed = true
		}
	}
	return changed
}

// Algebraic applies identity peepholes: x+0, 0+x, x-0, x-x, x*1, 1*x,
// x*0, 0*x, x/1, x%1 and --x. Identities that alias an existing value
// rewrite all uses; identities with a known result become Const tuples.
func Algebraic(b *ir.Block) bool {
	changed := false
	for i := range b.Tuples {
		t := &b.Tuples[i]
		cA, okA := constOf(b, t.A)
		cB, okB := constOf(b, t.B)
		toConst := func(v int64) {
			*t = ir.Tuple{ID: t.ID, Op: ir.Const, A: ir.Imm(v)}
			changed = true
		}
		// alias makes every use of t read operand o's value instead.
		alias := func(o ir.Operand) {
			switch o.Kind {
			case ir.RefOperand:
				rewriteRefs(b, t.ID, o.Ref)
				changed = true
			case ir.ImmOperand:
				toConst(o.Imm)
			}
		}
		switch t.Op {
		case ir.Add:
			if okA && cA == 0 {
				alias(t.B)
			} else if okB && cB == 0 {
				alias(t.A)
			}
		case ir.Sub:
			if okB && cB == 0 {
				alias(t.A)
			} else if t.A.Kind == ir.RefOperand && t.B.Kind == ir.RefOperand && t.A.Ref == t.B.Ref {
				toConst(0)
			}
		case ir.Mul:
			switch {
			case okA && cA == 0, okB && cB == 0:
				toConst(0)
			case okA && cA == 1:
				alias(t.B)
			case okB && cB == 1:
				alias(t.A)
			}
		case ir.Div:
			if okB && cB == 1 {
				alias(t.A)
			}
		case ir.Mod:
			if okB && cB == 1 {
				toConst(0)
			}
		case ir.Neg:
			if t.A.Kind == ir.RefOperand {
				if j := b.Pos(t.A.Ref); j >= 0 && b.Tuples[j].Op == ir.Neg {
					alias(b.Tuples[j].A)
				}
			}
		}
	}
	return changed
}

// CSE eliminates common subexpressions: identical Const tuples, repeated
// Loads of a variable with no intervening Store to it, and arithmetic
// tuples with identical (commutatively normalized) operands. Later uses
// are redirected to the first occurrence.
func CSE(b *ir.Block) bool {
	changed := false
	avail := map[string]int{} // expression key -> tuple ID
	for i := range b.Tuples {
		t := &b.Tuples[i]
		var key string
		switch t.Op {
		case ir.Const:
			key = fmt.Sprintf("C%d", t.A.Imm)
		case ir.Load:
			key = "L" + t.A.Var
		case ir.Store:
			// A store kills the availability of loads of that variable
			// but makes the stored value available as a "load".
			delete(avail, "L"+t.A.Var)
			if t.B.Kind == ir.RefOperand {
				avail["L"+t.A.Var] = t.B.Ref
			}
			continue
		case ir.Neg:
			key = "N" + opKey(t.A)
		case ir.Add, ir.Sub, ir.Mul, ir.Div, ir.Mod:
			a, bo := opKey(t.A), opKey(t.B)
			if t.Op.IsCommutative() && bo < a {
				a, bo = bo, a
			}
			key = fmt.Sprintf("%d:%s,%s", t.Op, a, bo)
		default:
			continue
		}
		if prev, ok := avail[key]; ok && prev != t.ID {
			rewriteRefs(b, t.ID, prev)
			changed = true
			continue
		}
		avail[key] = t.ID
	}
	return changed
}

func opKey(o ir.Operand) string {
	switch o.Kind {
	case ir.RefOperand:
		return fmt.Sprintf("@%d", o.Ref)
	case ir.ImmOperand:
		return fmt.Sprintf("#%d", o.Imm)
	}
	return "_"
}

// DeadStoreElim removes a Store whose variable is overwritten by a later
// Store in the same block with no intervening Load of that variable.
// (Memory is live at block end, so the last store to each variable
// always survives.)
func DeadStoreElim(b *ir.Block) bool {
	overwritten := map[string]bool{} // true: next access below is a Store
	dead := map[int]bool{}
	for i := len(b.Tuples) - 1; i >= 0; i-- {
		t := b.Tuples[i]
		switch t.Op {
		case ir.Store:
			v := t.A.Var
			if overwritten[v] {
				dead[i] = true
			} else {
				overwritten[v] = true
			}
		case ir.Load:
			overwritten[t.A.Var] = false
		}
	}
	removeAt(b, dead)
	return len(dead) > 0
}

// DCE removes value-producing tuples (and Nops) whose results are never
// referenced. Stores are the block's only side effects and are always
// retained here (DeadStoreElim handles dead stores).
func DCE(b *ir.Block) bool {
	used := map[int]bool{}
	for _, t := range b.Tuples {
		refs, n := t.Refs()
		for _, r := range refs[:n] {
			used[r] = true
		}
	}
	dead := map[int]bool{}
	for i, t := range b.Tuples {
		if t.Op == ir.Nop || (t.Op.ProducesValue() && !used[t.ID]) {
			dead[i] = true
		}
	}
	// A removal can orphan further tuples; rerunning via Optimize's
	// fixpoint loop handles cascades, so a single sweep suffices here.
	removeAt(b, dead)
	return len(dead) > 0
}

// Stat describes the effect of optimization on a block.
type Stat struct {
	Before, After int           // tuple counts
	ByOp          map[ir.Op]int // remaining tuples per op
}

// Describe summarizes an optimization run.
func Describe(before, after *ir.Block) Stat {
	s := Stat{Before: before.Len(), After: after.Len(), ByOp: map[ir.Op]int{}}
	for _, t := range after.Tuples {
		s.ByOp[t.Op]++
	}
	return s
}

// OpsSummary renders ByOp deterministically for logs and tests.
func (s Stat) OpsSummary() string {
	ops := make([]ir.Op, 0, len(s.ByOp))
	for op := range s.ByOp {
		ops = append(ops, op)
	}
	sort.Slice(ops, func(i, j int) bool { return ops[i] < ops[j] })
	out := ""
	for _, op := range ops {
		out += fmt.Sprintf("%s:%d ", op, s.ByOp[op])
	}
	return out
}
