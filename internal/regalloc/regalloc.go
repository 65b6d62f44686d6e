// Package regalloc assigns registers to tuple values *after* scheduling,
// per the paper's key design decision (sections 3.1 and 3.4): because the
// scheduler works on unallocated tuples, register names can never
// constrain the schedule, and allocation afterwards simply maps each
// value's live interval onto a register.
//
// The allocator is a linear scan over the scheduled order: a value is
// live from the position of its defining tuple to the position of its
// last use. Registers are recycled as soon as the last use issues
// (in-order issue makes this safe: the consumer reads its operands at
// issue, before any same-position redefinition is written back).
//
// The paper's prototype assumes the front end has already guaranteed that
// enough registers exist ("there will be no need to introduce new spill
// instructions, since these could invalidate the optimality of the
// schedule"); Allocate mirrors that contract by failing when the block's
// register pressure exceeds the machine's register count rather than
// spilling behind the scheduler's back.
package regalloc

import (
	"fmt"
	"sort"

	"pipesched/internal/ir"
)

// Assignment maps value tuples to registers.
type Assignment struct {
	RegOf   map[int]int // tuple ID -> register index (0-based)
	NumRegs int         // distinct registers used
	MaxLive int         // peak number of simultaneously live values
}

// Pressure returns the block's register pressure: the maximum number of
// values simultaneously live under the block's current order.
func Pressure(b *ir.Block) int {
	_, maxLive := intervals(b)
	return maxLive
}

// intervals computes, per position, the last use of the value its tuple
// defines (-1 for tuples that define none), plus the peak liveness
// (MAXLIVE). A value is live over [def, lastUse]. A value dying at the
// very position where another is defined does not overlap it — the def
// may reuse the dying operand's register, since operands are read at
// issue before the result is ever written back. A value that is never
// used still occupies a register across its own position (its writeback
// must not clobber live state), releasing it immediately after.
func intervals(b *ir.Block) (lastUse []int, maxLive int) {
	n := len(b.Tuples)
	buf := make([]int, 2*n+1)
	lastUse, release := buf[:n], buf[n:] // release[p]: registers freed before position p
	var pos ir.IDTable                   // tuple ID -> position
	pos.Index(b.Tuples)
	for i := range b.Tuples {
		t := &b.Tuples[i]
		lastUse[i] = -1
		if t.Op.ProducesValue() {
			lastUse[i] = i
		}
		refs, nr := t.Refs()
		for _, r := range refs[:nr] {
			if j := pos.Get(r); j >= 0 && j < i && lastUse[j] >= 0 {
				lastUse[j] = i
			}
		}
	}
	// Peak live-out sweep: value v occupies a register for positions
	// def(v) <= p < lastUse(v) (or p == def for unused values). Within
	// one position, releases happen before the acquisition.
	for i, end := range lastUse {
		if end == i {
			end++ // unused value: live-out of its own position only
		}
		if end >= 0 {
			release[end]++
		}
	}
	live := 0
	for i, end := range lastUse {
		live -= release[i]
		if end >= 0 {
			live++
		}
		maxLive = max(maxLive, live)
	}
	return lastUse, maxLive
}

// Allocate assigns registers to every value tuple of b (which must be in
// final scheduled order). limit is the number of architectural registers;
// limit <= 0 means unlimited. It returns an error if the block needs more
// than limit registers — by the paper's contract the front end prevents
// this, so hitting it indicates a pressure bug upstream, never a reason
// to spill here.
func Allocate(b *ir.Block, limit int) (*Assignment, error) {
	lastUse, maxLive := intervals(b)
	if limit > 0 && maxLive > limit {
		return nil, fmt.Errorf("regalloc: block %q needs %d registers, machine has %d",
			b.Label, maxLive, limit)
	}

	// dying[p] heads the list, threaded through next, of the values
	// whose interval ends at p, in definition order — the free-list push
	// order (and thus the whole assignment) depends on that order
	// whenever two values die at the same position.
	n := len(b.Tuples)
	scratch := make([]int, 4*n)
	dying, next, reg := scratch[:n], scratch[n:2*n], scratch[2*n:3*n]
	free := scratch[3*n : 3*n] // free register indices, reused LIFO; never more than n
	for i := range dying {
		dying[i] = -1
	}
	values := 0
	for j := n - 1; j >= 0; j-- {
		if end := lastUse[j]; end >= 0 {
			next[j], dying[end] = dying[end], j
			values++
		}
	}

	asg := &Assignment{RegOf: make(map[int]int, values)}
	nextReg := 0 // next never-used register
	for i := range b.Tuples {
		// Operands whose last use is this position die at issue, before
		// the result is written, so their registers are free for the def.
		for j := dying[i]; j >= 0; j = next[j] {
			if j != i { // a value cannot die before it is defined
				free = append(free, reg[j])
			}
		}
		if lastUse[i] < 0 {
			continue
		}
		if k := len(free); k > 0 {
			reg[i] = free[k-1]
			free = free[:k-1]
		} else {
			reg[i] = nextReg
			nextReg++
		}
		asg.RegOf[b.Tuples[i].ID] = reg[i]
		// An unused value's register is reclaimable right away.
		if lastUse[i] == i {
			free = append(free, reg[i])
		}
	}
	asg.NumRegs = nextReg
	asg.MaxLive = maxLive
	return asg, nil
}

// Verify checks an assignment for interval overlaps: no two values whose
// live ranges intersect may share a register. It returns the first
// conflict found, in tuple ID order, or nil.
func Verify(b *ir.Block, asg *Assignment) error {
	lastUse, _ := intervals(b)
	var vals []int // positions of value tuples
	for i, end := range lastUse {
		if end >= 0 {
			vals = append(vals, i)
		}
	}
	sort.Slice(vals, func(x, y int) bool { return b.Tuples[vals[x]].ID < b.Tuples[vals[y]].ID })
	for x := 0; x < len(vals); x++ {
		for y := x + 1; y < len(vals); y++ {
			i, j := vals[x], vals[y]
			a, b2 := b.Tuples[i].ID, b.Tuples[j].ID
			if asg.RegOf[a] != asg.RegOf[b2] {
				continue
			}
			// Sharing is legal if one's interval ends exactly where the
			// other's begins (read-then-write at the same position) or if
			// they are disjoint.
			if lastUse[i] > j && lastUse[j] > i {
				return fmt.Errorf("regalloc: values @%d and @%d overlap in R%d", a, b2, asg.RegOf[a])
			}
		}
	}
	return nil
}
