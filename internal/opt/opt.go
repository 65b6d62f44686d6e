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
	"sync"

	"pipesched/internal/ir"
)

// Pass is one rewriting pass; it reports whether it changed the block.
type Pass struct {
	Name string
	Run  func(*ir.Block) bool
}

// Passes returns the standard pass list in application order. The passes
// of one list share scratch tables, so a list must not run on two blocks
// at once.
func Passes() []Pass {
	s := new(scratch)
	list := make([]Pass, len(standard))
	for i, p := range standard {
		list[i] = Pass{Name: p.name, Run: func(b *ir.Block) bool { return p.run(s, b) }}
	}
	return list
}

// standard is the standard pass list, each pass a function of the
// scratch it may use.
var standard = [...]struct {
	name string
	run  func(*scratch, *ir.Block) bool
}{
	{"constfold", func(_ *scratch, b *ir.Block) bool { return ConstFold(b) }},
	{"algebraic", func(_ *scratch, b *ir.Block) bool { return Algebraic(b) }},
	{"cse", (*scratch).cse},
	{"deadstore", (*scratch).deadStoreElim},
	{"dce", (*scratch).dce},
}

// scratch holds the tables of the passes that need them. A fixed-point
// run reuses one scratch across its rounds, so it allocates them once,
// and Optimize takes its scratch from scratchPool, so consecutive runs
// share them too.
type scratch struct {
	vars  map[string]int64 // variable name -> small dense number
	avail map[exprKey]int  // CSE: available expression -> tuple ID
	flags []bool           // per-variable or per-position marks
	dead  []bool           // positions to delete
	block ir.Block         // Optimize's working block, whose position index is reused
}

// scratchPool holds the scratch of Optimize runs that have finished.
var scratchPool = sync.Pool{New: func() any { return new(scratch) }}

// varID interns a variable name as a small number.
func (s *scratch) varID(name string) int64 {
	id, ok := s.vars[name]
	if !ok {
		if s.vars == nil {
			s.vars = make(map[string]int64)
		}
		id = int64(len(s.vars))
		s.vars[name] = id
	}
	return id
}

// cleared returns *buf resized to n false entries, reusing its storage.
func cleared(buf *[]bool, n int) []bool {
	if cap(*buf) < n {
		*buf = make([]bool, n)
	} else {
		*buf = (*buf)[:n]
		clear(*buf)
	}
	return *buf
}

// Optimize clones b and runs all passes to a fixed point, returning the
// optimized block. The input block is not modified.
func Optimize(b *ir.Block) *ir.Block {
	s := scratchPool.Get().(*scratch)
	clear(s.vars) // variable numbers are per run: deadStoreElim sizes by them
	out := &s.block
	out.Label = b.Label
	out.Tuples = make([]ir.Tuple, len(b.Tuples))
	copy(out.Tuples, b.Tuples)
	out.InvalidateIndex()
	// Each iteration strictly shrinks the block or strictly reduces the
	// number of non-Const tuples, so n*len+1 rounds is a safe bound; in
	// practice two or three rounds reach the fixed point.
	for round := 0; round <= len(out.Tuples)*len(standard)+1; round++ {
		changed := false
		for _, p := range standard {
			if p.run(s, out) {
				changed = true
			}
		}
		if !changed {
			break
		}
	}
	// The result gets a header of its own; the working block keeps only
	// its position index for the next run.
	res := &ir.Block{Label: out.Label, Tuples: out.Tuples}
	out.Tuples = nil
	scratchPool.Put(s)
	return res
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

// removeAt deletes the tuples at the positions marked dead.
func removeAt(b *ir.Block, dead []bool) {
	kept := b.Tuples[:0]
	for i := range b.Tuples {
		if !dead[i] {
			kept = append(kept, b.Tuples[i])
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
func CSE(b *ir.Block) bool { return new(scratch).cse(b) }

// exprKey names an available expression: an op and its two operands,
// each a kind and a value (immediate, tuple reference or interned
// variable). The op and kinds share one word, so the key has no padding
// and hashes as plain memory. A Load's key doubles as the value a Store
// leaves in memory.
type exprKey struct {
	shape uint64 // op | kind(a)<<8 | kind(b)<<16
	a, b  int64
}

func newExprKey(op ir.Op, ka ir.OperandKind, a int64, kb ir.OperandKind, b int64) exprKey {
	return exprKey{shape: uint64(op) | uint64(ka)<<8 | uint64(kb)<<16, a: a, b: b}
}

func (s *scratch) operandKey(o ir.Operand) (ir.OperandKind, int64) {
	switch o.Kind {
	case ir.RefOperand:
		return o.Kind, int64(o.Ref)
	case ir.ImmOperand:
		return o.Kind, o.Imm
	case ir.VarOperand:
		return o.Kind, s.varID(o.Var)
	}
	return ir.NoOperand, 0
}

func (s *scratch) cse(b *ir.Block) bool {
	if s.avail == nil {
		s.avail = make(map[exprKey]int, len(b.Tuples))
	} else {
		clear(s.avail)
	}
	changed := false
	for i := range b.Tuples {
		t := &b.Tuples[i]
		switch t.Op {
		case ir.Nop:
			continue
		case ir.Store:
			// A store kills the availability of loads of that variable
			// but makes the stored value available as a "load".
			key := newExprKey(ir.Load, ir.VarOperand, s.varID(t.A.Var), ir.NoOperand, 0)
			delete(s.avail, key)
			if t.B.Kind == ir.RefOperand {
				s.avail[key] = t.B.Ref
			}
			continue
		}
		ka, a := s.operandKey(t.A)
		kb, bv := s.operandKey(t.B)
		if t.Op.IsCommutative() && (kb < ka || kb == ka && bv < a) {
			ka, a, kb, bv = kb, bv, ka, a
		}
		key := newExprKey(t.Op, ka, a, kb, bv)
		if prev, ok := s.avail[key]; ok && prev != t.ID {
			rewriteRefs(b, t.ID, prev)
			changed = true
			continue
		}
		s.avail[key] = t.ID
	}
	return changed
}

// deadStoreElim removes a Store whose variable is overwritten by a later
// Store in the same block with no intervening Load of that variable.
// (Memory is live at block end, so the last store to each variable
// always survives.)
func (s *scratch) deadStoreElim(b *ir.Block) bool {
	// Every variable this sweep interns gets a number below this bound.
	overwritten := cleared(&s.flags, len(s.vars)+len(b.Tuples)) // true: next access below is a Store
	dead := cleared(&s.dead, len(b.Tuples))
	removed := false
	for i := len(b.Tuples) - 1; i >= 0; i-- {
		t := &b.Tuples[i]
		switch t.Op {
		case ir.Store:
			v := s.varID(t.A.Var)
			if overwritten[v] {
				dead[i], removed = true, true
			} else {
				overwritten[v] = true
			}
		case ir.Load:
			overwritten[s.varID(t.A.Var)] = false
		}
	}
	if removed {
		removeAt(b, dead)
	}
	return removed
}

// dce removes value-producing tuples (and Nops) whose results are never
// referenced. Stores are the block's only side effects and are always
// retained here (deadStoreElim handles dead stores).
func (s *scratch) dce(b *ir.Block) bool {
	used := cleared(&s.flags, len(b.Tuples)) // by position
	for i := range b.Tuples {
		refs, n := b.Tuples[i].Refs()
		for _, r := range refs[:n] {
			if j := b.Pos(r); j >= 0 {
				used[j] = true
			}
		}
	}
	dead := cleared(&s.dead, len(b.Tuples))
	removed := false
	for i := range b.Tuples {
		if op := b.Tuples[i].Op; op == ir.Nop || (op.ProducesValue() && !used[i]) {
			dead[i], removed = true, true
		}
	}
	// A removal can orphan further tuples; rerunning via Optimize's
	// fixpoint loop handles cascades, so a single sweep suffices here.
	if removed {
		removeAt(b, dead)
	}
	return removed
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
