// Package tuplegen lowers a parsed source program (internal/frontend)
// into the tuple intermediate form (internal/ir), following the paper's
// code-generation convention (section 5.2): the first reference to a
// variable generates a Load for it, and every assignment generates a
// Store. Values already computed in the block are reused through tuple
// references — after "a = ..." a later read of "a" uses the stored
// value's producing tuple, not a reload, exactly as an unallocated
// register IR allows.
package tuplegen

import (
	"fmt"
	"sync"

	"pipesched/internal/frontend"
	"pipesched/internal/ir"
)

// Generate lowers prog into a single basic block with the given label.
func Generate(prog *frontend.Program, label string) (*ir.Block, error) {
	g := genPool.Get().(*gen)
	defer g.release()
	g.block = ir.NewBlock(label)
	n := 0
	for _, s := range prog.Stmts {
		n += nodes(s.Expr) + 1
	}
	g.block.Tuples = make([]ir.Tuple, 0, n)
	for _, s := range prog.Stmts {
		id, err := g.expr(s.Expr)
		if err != nil {
			return nil, fmt.Errorf("tuplegen: line %d: %w", s.Line, err)
		}
		g.append(ir.Store, ir.Var(s.Name), ir.Ref(id))
		g.binding[s.Name] = id
	}
	if err := g.block.Validate(); err != nil {
		return nil, fmt.Errorf("tuplegen: generated invalid block: %w", err)
	}
	return g.block, nil
}

type gen struct {
	block   *ir.Block
	binding map[string]int // variable -> tuple currently holding its value
}

// genPool holds the generators of finished runs, so each run reuses an
// earlier one's binding map.
var genPool = sync.Pool{New: func() any { return &gen{binding: map[string]int{}} }}

// release empties g and returns it to genPool.
func (g *gen) release() {
	g.block = nil
	clear(g.binding)
	genPool.Put(g)
}

// append adds a tuple numbered after the last one. IDs run 1, 2, ... in
// program order, as ir.Block.Append would number them.
func (g *gen) append(op ir.Op, a, b ir.Operand) int {
	id := len(g.block.Tuples) + 1
	g.block.Tuples = append(g.block.Tuples, ir.Tuple{ID: id, Op: op, A: a, B: b})
	return id
}

// nodes counts the nodes of e: at least as many tuples as lowering e
// emits, since a variable's Load is emitted at most once.
func nodes(e frontend.Expr) int {
	switch x := e.(type) {
	case frontend.Unary:
		return 1 + nodes(x.X)
	case frontend.Binary:
		return 1 + nodes(x.X) + nodes(x.Y)
	}
	return 1
}

// value returns the tuple ID holding the current value of name, emitting
// a Load on first reference.
func (g *gen) value(name string) int {
	if id, ok := g.binding[name]; ok {
		return id
	}
	id := g.append(ir.Load, ir.Var(name), ir.None())
	g.binding[name] = id
	return id
}

// expr emits tuples computing e and returns the producing tuple's ID.
func (g *gen) expr(e frontend.Expr) (int, error) {
	switch x := e.(type) {
	case frontend.Num:
		return g.append(ir.Const, ir.Imm(x.Value), ir.None()), nil
	case frontend.VarRef:
		return g.value(x.Name), nil
	case frontend.Unary:
		id, err := g.expr(x.X)
		if err != nil {
			return 0, err
		}
		return g.append(ir.Neg, ir.Ref(id), ir.None()), nil
	case frontend.Binary:
		a, err := g.expr(x.X)
		if err != nil {
			return 0, err
		}
		b, err := g.expr(x.Y)
		if err != nil {
			return 0, err
		}
		var op ir.Op
		switch x.Op {
		case frontend.OpAdd:
			op = ir.Add
		case frontend.OpSub:
			op = ir.Sub
		case frontend.OpMul:
			op = ir.Mul
		case frontend.OpDiv:
			op = ir.Div
		case frontend.OpMod:
			op = ir.Mod
		default:
			return 0, fmt.Errorf("unknown binary operator %v", x.Op)
		}
		return g.append(op, ir.Ref(a), ir.Ref(b)), nil
	}
	return 0, fmt.Errorf("unknown expression node %T", e)
}

// Compile is the convenience front half of the pipeline: parse source and
// lower it to tuples in one call.
func Compile(src, label string) (*ir.Block, error) {
	prog, err := frontend.Parse(src)
	if err != nil {
		return nil, err
	}
	return Generate(prog, label)
}
