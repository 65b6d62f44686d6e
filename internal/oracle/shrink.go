package oracle

import "pipesched/internal/ir"

// Shrink reduces a failing block to a 1-minimal counterexample: it
// repeatedly deletes single tuples (only deletions that keep the block
// structurally valid — a tuple still referenced by a later tuple cannot
// go) while the keep predicate continues to hold, until no single
// deletion preserves the failure. The predicate receives candidate
// blocks that always pass ir.Block.Validate.
//
// Minimal counterexamples are what make a soak failure debuggable: a
// 40-tuple divergence usually shrinks to a handful of tuples that name
// the interacting pruning rule and hazard directly.
func Shrink(b *ir.Block, keep func(*ir.Block) bool) *ir.Block {
	cur := b.Clone()
	for {
		shrunk := false
		for i := 0; i < len(cur.Tuples); i++ {
			cand := deleteTuple(cur, i)
			if cand == nil || cand.Validate() != nil {
				continue
			}
			if keep(cand) {
				cur = cand
				shrunk = true
				// Position i now holds the next tuple; re-examine it.
				i--
			}
		}
		if !shrunk {
			return cur
		}
	}
}

// deleteTuple returns b without position i, or nil when a later tuple
// references the deleted result (deletion would dangle).
func deleteTuple(b *ir.Block, i int) *ir.Block {
	id := b.Tuples[i].ID
	for j, t := range b.Tuples {
		if j == i {
			continue
		}
		refs, n := t.Refs()
		for _, r := range refs[:n] {
			if r == id {
				return nil
			}
		}
	}
	nb := &ir.Block{Label: b.Label}
	nb.Tuples = append(nb.Tuples, b.Tuples[:i]...)
	nb.Tuples = append(nb.Tuples, b.Tuples[i+1:]...)
	return nb
}
