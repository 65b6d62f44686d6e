package opt

import (
	"pipesched/internal/dag"
	"pipesched/internal/ir"
)

// Reassociate rebalances chains of the associative operations Add and
// Mul from left-leaning combs into depth-aware merge trees:
//
//	((a+b)+c)+d   →   (a+b) + (c+d)        (equal-depth leaves)
//
// Leaves are merged shallowest-first (Huffman-style on dependence
// depth), which minimizes the rebuilt chain's height; when the original
// comb is already optimal — e.g. when one leaf is much deeper than the
// rest — the chain is left untouched, so the pass can never lengthen the
// critical path.
//
// The value is identical (two's-complement addition and multiplication
// are fully associative, including on overflow), but the dependence
// height of the chain drops from linear to logarithmic, giving the
// pipeline scheduler independent subtrees to overlap. This is an
// extension pass beyond the paper's optimizer: it is not part of
// Optimize's default pipeline (it can raise register pressure), but
// OptimizeReassoc composes it with the standard passes.
//
// Only chains whose intermediate results have no other uses are
// rebalanced — rewriting a value with extra consumers would duplicate
// work. The rebuilt tree is placed at the chain root's position: every
// leaf was an operand somewhere in the chain, so every leaf precedes the
// root and all references still point backward.
func Reassociate(b *ir.Block) bool {
	uses := map[int]int{}
	for _, t := range b.Tuples {
		refs, n := t.Refs()
		for _, r := range refs[:n] {
			uses[r]++
		}
	}
	// Find chain roots: same-op tuples that are NOT themselves a
	// single-use operand of a same-op parent (those belong to a larger
	// chain handled at its root).
	isInteriorOf := map[int]bool{}
	for _, t := range b.Tuples {
		if t.Op != ir.Add && t.Op != ir.Mul {
			continue
		}
		refs, n := t.Refs()
		for _, r := range refs[:n] {
			if j := b.Pos(r); j >= 0 {
				child := b.Tuples[j]
				if child.Op == t.Op && uses[child.ID] == 1 {
					isInteriorOf[child.ID] = true
				}
			}
		}
	}
	// Collect root IDs first; the block mutates as chains are rebuilt,
	// but IDs are stable and rebuilding one chain does not create or
	// absorb the interiors of another.
	var roots []int
	for _, t := range b.Tuples {
		if (t.Op == ir.Add || t.Op == ir.Mul) && !isInteriorOf[t.ID] {
			roots = append(roots, t.ID)
		}
	}
	changed := false
	for _, rootID := range roots {
		i := b.Pos(rootID)
		if i < 0 {
			continue
		}
		op := b.Tuples[i].Op
		leaves, interiorPos := collectChain(b, uses, rootID, op)
		if len(leaves) < 3 {
			continue // nothing a different shape could improve
		}
		// Depth-aware rebuild needs the CURRENT dependence depths
		// (including memory-order edges), so they are recomputed per
		// chain; blocks are small and Reassociate runs rarely.
		g, err := dag.Build(b)
		if err != nil {
			return changed // defensive: leave the block as-is
		}
		depths := make([]int, len(leaves))
		for k, leaf := range leaves {
			if leaf.Kind == ir.RefOperand {
				depths[k] = g.Depth(b.Pos(leaf.Ref)) + 1
			}
		}
		if rebuildHuffman(b, rootID, op, leaves, depths, interiorPos) {
			changed = true
		}
	}
	if changed {
		b.InvalidateIndex()
	}
	return changed
}

// collectChain gathers the leaf operands (in left-to-right order) and
// the interior tuple positions of the op-chain rooted at tuple id,
// descending only through same-op tuples used exactly once.
func collectChain(b *ir.Block, uses map[int]int, id int, op ir.Op) ([]ir.Operand, []int) {
	var leaves []ir.Operand
	var interior []int
	var walkTuple func(pos int)
	var walkOperand func(o ir.Operand)
	walkOperand = func(o ir.Operand) {
		if o.Kind == ir.RefOperand {
			if j := b.Pos(o.Ref); j >= 0 {
				child := b.Tuples[j]
				if child.Op == op && uses[child.ID] == 1 {
					walkTuple(j)
					return
				}
			}
		}
		leaves = append(leaves, o)
	}
	walkTuple = func(pos int) {
		interior = append(interior, pos)
		walkOperand(b.Tuples[pos].A)
		walkOperand(b.Tuples[pos].B)
	}
	walkTuple(b.Pos(id))
	return leaves, interior
}

// rebuildHuffman removes the chain's interior tuples and inserts a
// depth-aware merge tree over leaves at the root's position: it
// repeatedly combines the two SHALLOWEST operands (the classic greedy
// merge that minimizes the resulting maximum depth), so the rebuilt
// chain's height is optimal and in particular never exceeds the original
// comb's. Interior IDs are reused; the final combine keeps the root's
// original ID so outside consumers are untouched. It reports whether the
// block changed (an already-optimal comb is left alone).
func rebuildHuffman(b *ir.Block, rootID int, op ir.Op, leaves []ir.Operand,
	depths []int, interiorPos []int) bool {
	rootPos := b.Pos(rootID)
	var freeIDs []int
	drop := make(map[int]bool, len(interiorPos))
	for _, p := range interiorPos {
		drop[p] = true
		if id := b.Tuples[p].ID; id != rootID {
			freeIDs = append(freeIDs, id)
		}
	}

	type item struct {
		operand ir.Operand
		depth   int
	}
	items := make([]item, len(leaves))
	for k := range leaves {
		items[k] = item{operand: leaves[k], depth: depths[k]}
	}
	// Height of the original comb over the same leaves, for the
	// no-regression check below: combining left to right.
	combHeight := items[0].depth
	for _, it := range items[1:] {
		combHeight = max2(combHeight, it.depth) + 1
	}

	var tree []ir.Tuple
	for len(items) > 1 {
		// Pick the two shallowest (stable: first occurrences win ties).
		i1 := 0
		for k := 1; k < len(items); k++ {
			if items[k].depth < items[i1].depth {
				i1 = k
			}
		}
		i2 := -1
		for k := 0; k < len(items); k++ {
			if k == i1 {
				continue
			}
			if i2 < 0 || items[k].depth < items[i2].depth {
				i2 = k
			}
		}
		if i2 < i1 {
			i1, i2 = i2, i1
		}
		var tid int
		if len(freeIDs) > 0 {
			tid = freeIDs[0]
			freeIDs = freeIDs[1:]
		} else {
			tid = rootID
		}
		merged := item{
			operand: ir.Ref(tid),
			depth:   max2(items[i1].depth, items[i2].depth) + 1,
		}
		tree = append(tree, ir.Tuple{ID: tid, Op: op, A: items[i1].operand, B: items[i2].operand})
		// Remove i2 first (the larger index), then i1.
		items = append(items[:i2], items[i2+1:]...)
		items[i1] = merged
	}
	if tree[len(tree)-1].ID != rootID {
		panic("opt: reassociation lost the chain root's ID")
	}
	if items[0].depth >= combHeight {
		return false // the comb was already optimal; keep it
	}

	out := make([]ir.Tuple, 0, len(b.Tuples))
	for p, t := range b.Tuples {
		if p == rootPos {
			out = append(out, tree...)
			continue
		}
		if drop[p] {
			continue
		}
		out = append(out, t)
	}
	b.Tuples = out
	b.InvalidateIndex()
	return true
}

func max2(a, b int) int {
	if a > b {
		return a
	}
	return b
}

// OptimizeReassoc runs the standard optimization pipeline with the
// reassociation extension folded in, to a combined fixed point.
func OptimizeReassoc(b *ir.Block) *ir.Block {
	out := Optimize(b)
	for round := 0; round < 6; round++ {
		changed := Reassociate(out)
		for _, p := range Passes() {
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
