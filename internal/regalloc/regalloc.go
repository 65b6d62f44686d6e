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

// intervals computes, per value tuple ID, the [def, lastUse] position
// interval, plus the peak liveness (MAXLIVE). A value dying at the very
// position where another is defined does not overlap it — the def may
// reuse the dying operand's register, since operands are read at issue
// before the result is ever written back. A value that is never used
// still occupies a register across its own position (its writeback must
// not clobber live state), releasing it immediately after.
func intervals(b *ir.Block) (map[int][2]int, int) {
	iv := map[int][2]int{}
	for i, t := range b.Tuples {
		if t.Op.ProducesValue() {
			iv[t.ID] = [2]int{i, i}
		}
		refs, n := t.Refs()
		for _, r := range refs[:n] {
			if span, ok := iv[r]; ok {
				span[1] = i
				iv[r] = span
			}
		}
	}
	// Peak live-out sweep: value v occupies a register for positions
	// def(v) <= p < lastUse(v) (or p == def for unused values). Within
	// one position, releases happen before acquisitions.
	release := make(map[int]int) // position -> registers freed before it
	acquire := make(map[int]int) // position -> registers taken at it
	for _, span := range iv {
		acquire[span[0]]++
		end := span[1]
		if end == span[0] {
			end++ // unused value: live-out of its own position only
		}
		release[end]++
	}
	points := map[int]bool{}
	for p := range release {
		points[p] = true
	}
	for p := range acquire {
		points[p] = true
	}
	sorted := make([]int, 0, len(points))
	for p := range points {
		sorted = append(sorted, p)
	}
	sort.Ints(sorted)
	live, maxLive := 0, 0
	for _, p := range sorted {
		live -= release[p]
		live += acquire[p]
		if live > maxLive {
			maxLive = live
		}
	}
	return iv, maxLive
}

// Allocate assigns registers to every value tuple of b (which must be in
// final scheduled order). limit is the number of architectural registers;
// limit <= 0 means unlimited. It returns an error if the block needs more
// than limit registers — by the paper's contract the front end prevents
// this, so hitting it indicates a pressure bug upstream, never a reason
// to spill here.
func Allocate(b *ir.Block, limit int) (*Assignment, error) {
	iv, maxLive := intervals(b)
	if limit > 0 && maxLive > limit {
		return nil, fmt.Errorf("regalloc: block %q needs %d registers, machine has %d",
			b.Label, maxLive, limit)
	}

	// lastUse[pos] lists value IDs whose interval ends at pos, in
	// definition order — iterating the interval map here would make the
	// free-list push order (and thus the whole assignment) depend on map
	// iteration whenever two values die at the same position.
	lastUse := map[int][]int{}
	for _, t := range b.Tuples {
		if span, ok := iv[t.ID]; ok {
			lastUse[span[1]] = append(lastUse[span[1]], t.ID)
		}
	}

	asg := &Assignment{RegOf: make(map[int]int, len(iv))}
	var free []int // free register indices, reused LIFO
	next := 0      // next never-used register
	for i, t := range b.Tuples {
		// Operands whose last use is this position die at issue, before
		// the result is written, so their registers are free for the def.
		for _, id := range lastUse[i] {
			if id != t.ID { // a value cannot die before it is defined
				free = append(free, asg.RegOf[id])
			}
		}
		if t.Op.ProducesValue() {
			var reg int
			if n := len(free); n > 0 {
				reg = free[n-1]
				free = free[:n-1]
			} else {
				reg = next
				next++
			}
			asg.RegOf[t.ID] = reg
			// An unused value's register is reclaimable right away.
			if span := iv[t.ID]; span[1] == span[0] {
				free = append(free, reg)
			}
		}
	}
	asg.NumRegs = next
	asg.MaxLive = maxLive
	return asg, nil
}

// Verify checks an assignment for interval overlaps: no two values whose
// live ranges intersect may share a register. It returns the first
// conflict found, or nil.
func Verify(b *ir.Block, asg *Assignment) error {
	iv, _ := intervals(b)
	ids := make([]int, 0, len(iv))
	for id := range iv {
		ids = append(ids, id)
	}
	sort.Ints(ids)
	for x := 0; x < len(ids); x++ {
		for y := x + 1; y < len(ids); y++ {
			a, b2 := ids[x], ids[y]
			if asg.RegOf[a] != asg.RegOf[b2] {
				continue
			}
			sa, sb := iv[a], iv[b2]
			// Sharing is legal if one's interval ends exactly where the
			// other's begins (read-then-write at the same position) or if
			// they are disjoint.
			if sa[1] > sb[0] && sb[1] > sa[0] {
				return fmt.Errorf("regalloc: values @%d and @%d overlap in R%d", a, b2, asg.RegOf[a])
			}
		}
	}
	return nil
}
