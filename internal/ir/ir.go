package ir

import (
	"errors"
	"fmt"
	"sort"
	"strings"
)

// ErrInvalidBlock is wrapped by every error reporting a structurally
// invalid tuple block, so callers can classify with errors.Is.
var ErrInvalidBlock = errors.New("ir: invalid block")

// OperandKind discriminates the four operand forms of a tuple.
type OperandKind uint8

const (
	// NoOperand marks an absent operand (∅ in the paper's notation).
	NoOperand OperandKind = iota
	// VarOperand names a program variable ("#x" in the textual form).
	VarOperand
	// RefOperand names the result of another tuple by reference number
	// ("@n" in the textual form).
	RefOperand
	// ImmOperand is an immediate integer constant.
	ImmOperand
)

// String returns a short name for the operand kind.
func (k OperandKind) String() string {
	switch k {
	case NoOperand:
		return "none"
	case VarOperand:
		return "var"
	case RefOperand:
		return "ref"
	case ImmOperand:
		return "imm"
	}
	return fmt.Sprintf("OperandKind(%d)", uint8(k))
}

// Operand is one operand slot of a tuple.
type Operand struct {
	Kind OperandKind
	Var  string // variable name, when Kind == VarOperand
	Ref  int    // tuple reference number, when Kind == RefOperand
	Imm  int64  // immediate value, when Kind == ImmOperand
}

// None returns the absent operand.
func None() Operand { return Operand{} }

// Var returns a variable operand naming v.
func Var(v string) Operand { return Operand{Kind: VarOperand, Var: v} }

// Ref returns an operand referencing the result of tuple id.
func Ref(id int) Operand { return Operand{Kind: RefOperand, Ref: id} }

// Imm returns an immediate-constant operand.
func Imm(v int64) Operand { return Operand{Kind: ImmOperand, Imm: v} }

// IsNone reports whether the operand slot is empty.
func (o Operand) IsNone() bool { return o.Kind == NoOperand }

// String renders the operand in the textual tuple syntax.
func (o Operand) String() string {
	switch o.Kind {
	case NoOperand:
		return "_"
	case VarOperand:
		return "#" + o.Var
	case RefOperand:
		return fmt.Sprintf("@%d", o.Ref)
	case ImmOperand:
		return fmt.Sprintf("%d", o.Imm)
	}
	return "?"
}

// Equal reports structural equality of two operands.
func (o Operand) Equal(p Operand) bool { return o == p }

// Tuple is one instruction of the intermediate form: ⟨ID, Op, A, B⟩.
type Tuple struct {
	ID int // reference number; unique and stable within a Block
	Op Op
	A  Operand
	B  Operand
}

// String renders the tuple in the textual form, e.g. "4: Mul @1, @3".
func (t Tuple) String() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "%d: %s", t.ID, t.Op)
	n := t.Op.NumOperands()
	if n >= 1 {
		sb.WriteString(" ")
		sb.WriteString(t.A.String())
	}
	if n >= 2 {
		sb.WriteString(", ")
		sb.WriteString(t.B.String())
	}
	return sb.String()
}

// Operands returns the tuple's used operand slots, ops[:n] with n = 0, 1
// or 2. It does not allocate.
func (t Tuple) Operands() (ops [2]Operand, n int) {
	return [2]Operand{t.A, t.B}, t.Op.NumOperands()
}

// Refs returns the tuple reference numbers this tuple's operands read,
// refs[:n] in operand order. It does not allocate.
func (t Tuple) Refs() (refs [2]int, n int) {
	k := t.Op.NumOperands()
	if k >= 1 && t.A.Kind == RefOperand {
		refs[n] = t.A.Ref
		n++
	}
	if k >= 2 && t.B.Kind == RefOperand {
		refs[n] = t.B.Ref
		n++
	}
	return refs, n
}

// ReadsVar reports whether the tuple reads the value of variable v from
// memory (only Load does).
func (t Tuple) ReadsVar(v string) bool {
	return t.Op == Load && t.A.Kind == VarOperand && t.A.Var == v
}

// WritesVar reports whether the tuple writes variable v (only Store does).
func (t Tuple) WritesVar(v string) bool {
	return t.Op == Store && t.A.Kind == VarOperand && t.A.Var == v
}

// MemVar returns the variable a Load or Store touches, or "" for other ops.
func (t Tuple) MemVar() string {
	if t.Op.TouchesMemory() && t.A.Kind == VarOperand {
		return t.A.Var
	}
	return ""
}

// Block is a basic block: a label plus an ordered sequence of tuples.
// Tuple order in the slice is program order; tuple IDs are stable names
// that survive reordering by the scheduler.
type Block struct {
	Label  string
	Tuples []Tuple

	index   IDTable // tuple ID -> slice position (lazily built)
	indexed int     // len(Tuples)+1 when index was built for Tuples, else 0
}

// NewBlock returns an empty block with the given label.
func NewBlock(label string) *Block { return &Block{Label: label} }

// Len returns the number of tuples in the block.
func (b *Block) Len() int { return len(b.Tuples) }

// Append adds a tuple with the next free reference number and the given
// operation and operands, returning its ID.
func (b *Block) Append(op Op, a, bo Operand) int {
	id := b.NextID()
	b.Tuples = append(b.Tuples, Tuple{ID: id, Op: op, A: a, B: bo})
	b.indexed = 0
	return id
}

// NextID returns the smallest reference number strictly greater than any
// tuple ID already in the block (IDs start at 1).
func (b *Block) NextID() int {
	max := 0
	for _, t := range b.Tuples {
		if t.ID > max {
			max = t.ID
		}
	}
	return max + 1
}

// buildIndex (re)builds the ID→position table, reusing its storage.
func (b *Block) buildIndex() {
	b.index.Index(b.Tuples)
	b.indexed = len(b.Tuples) + 1
}

// Pos returns the current position of tuple id within the block, or -1 if
// no tuple has that ID. Positions are 0-based.
func (b *Block) Pos(id int) int {
	if b.indexed != len(b.Tuples)+1 {
		b.buildIndex()
	}
	if i := b.index.Get(id); i >= 0 && i < len(b.Tuples) && b.Tuples[i].ID == id {
		return i
	}
	// Index may be stale after external reordering; rebuild once.
	b.buildIndex()
	return b.index.Get(id)
}

// ByID returns the tuple with the given reference number.
// It panics if the ID is absent; use Pos to test for presence.
func (b *Block) ByID(id int) Tuple {
	i := b.Pos(id)
	if i < 0 {
		panic(fmt.Sprintf("ir: block %q has no tuple %d", b.Label, id))
	}
	return b.Tuples[i]
}

// InvalidateIndex must be called after external code permutes b.Tuples in
// place, so that Pos/ByID rebuild their lookup table. The rebuild reuses
// the table's storage.
func (b *Block) InvalidateIndex() { b.indexed = 0 }

// Clone returns a deep copy of the block.
func (b *Block) Clone() *Block {
	nb := &Block{Label: b.Label, Tuples: make([]Tuple, len(b.Tuples))}
	copy(nb.Tuples, b.Tuples)
	return nb
}

// Vars returns the sorted set of variable names referenced by the block.
func (b *Block) Vars() []string {
	set := map[string]bool{}
	for _, t := range b.Tuples {
		ops, n := t.Operands()
		for _, op := range ops[:n] {
			if op.Kind == VarOperand {
				set[op.Var] = true
			}
		}
	}
	vars := make([]string, 0, len(set))
	for v := range set {
		vars = append(vars, v)
	}
	sort.Strings(vars)
	return vars
}

// String renders the block in the textual tuple form, one tuple per line.
func (b *Block) String() string {
	var sb strings.Builder
	if b.Label != "" {
		fmt.Fprintf(&sb, "%s:\n", b.Label)
	}
	for _, t := range b.Tuples {
		sb.WriteString("  ")
		sb.WriteString(t.String())
		sb.WriteString("\n")
	}
	return sb.String()
}

// Validate checks structural well-formedness:
//   - every operation is defined and has operands of a legal shape,
//   - tuple IDs are positive and unique,
//   - every reference operand names a tuple that (a) exists, (b) appears
//     earlier in program order, and (c) produces a value.
//
// It returns the first violation found, or nil.
func (b *Block) Validate() error {
	var buf [smallSpan]int
	seen := IDTable{slots: buf[:0]}
	return b.validate(&seen)
}

// ValidIndex validates the block as Validate does and, when it is valid,
// also returns the table from tuple ID to position that validation
// builds. The table is the caller's: unlike Pos, ValidIndex does not
// touch the block, so it is safe on a block shared between goroutines.
func (b *Block) ValidIndex() (IDTable, error) {
	var seen IDTable
	if err := b.validate(&seen); err != nil {
		return IDTable{}, err
	}
	return seen, nil
}

// validate checks b, filling seen with tuple ID -> position.
func (b *Block) validate(seen *IDTable) error {
	seen.Reset(idRange(b.Tuples))
	for i := range b.Tuples {
		t := &b.Tuples[i]
		if !t.Op.Valid() {
			return fmt.Errorf("%w: tuple at position %d has invalid op", ErrInvalidBlock, i)
		}
		if t.ID <= 0 {
			return fmt.Errorf("%w: tuple at position %d has non-positive ID %d", ErrInvalidBlock, i, t.ID)
		}
		if prev := seen.Get(t.ID); prev >= 0 {
			return fmt.Errorf("%w: duplicate tuple ID %d at positions %d and %d", ErrInvalidBlock, t.ID, prev, i)
		}
		seen.Set(t.ID, i)
		if err := validateShape(t); err != nil {
			return err
		}
		refs, nr := t.Refs()
		for _, ref := range refs[:nr] {
			j := seen.Get(ref)
			if j < 0 {
				return fmt.Errorf("%w: tuple %d references %d which does not precede it", ErrInvalidBlock, t.ID, ref)
			}
			if !b.Tuples[j].Op.ProducesValue() {
				return fmt.Errorf("%w: tuple %d references %d (%s) which produces no value", ErrInvalidBlock, t.ID, ref, b.Tuples[j].Op)
			}
		}
	}
	return nil
}

func validateShape(t *Tuple) error {
	switch t.Op {
	case Nop:
		if !t.A.IsNone() || !t.B.IsNone() {
			return fmt.Errorf("%w: tuple %d: Nop takes no operands", ErrInvalidBlock, t.ID)
		}
	case Const:
		if t.A.Kind != ImmOperand || !t.B.IsNone() {
			return fmt.Errorf("%w: tuple %d: Const takes one immediate operand", ErrInvalidBlock, t.ID)
		}
	case Load:
		if t.A.Kind != VarOperand || !t.B.IsNone() {
			return fmt.Errorf("%w: tuple %d: Load takes one variable operand", ErrInvalidBlock, t.ID)
		}
	case Store:
		if t.A.Kind != VarOperand {
			return fmt.Errorf("%w: tuple %d: Store's first operand must be a variable", ErrInvalidBlock, t.ID)
		}
		if t.B.Kind != RefOperand && t.B.Kind != ImmOperand {
			return fmt.Errorf("%w: tuple %d: Store's second operand must be a ref or immediate", ErrInvalidBlock, t.ID)
		}
	case Neg:
		if t.A.Kind != RefOperand || !t.B.IsNone() {
			return fmt.Errorf("%w: tuple %d: Neg takes one ref operand", ErrInvalidBlock, t.ID)
		}
	case Add, Sub, Mul, Div, Mod:
		for _, op := range []Operand{t.A, t.B} {
			if op.Kind != RefOperand && op.Kind != ImmOperand {
				return fmt.Errorf("%w: tuple %d: %s operands must be refs or immediates", ErrInvalidBlock, t.ID, t.Op)
			}
		}
	default:
		return fmt.Errorf("%w: tuple %d: unknown op %v", ErrInvalidBlock, t.ID, t.Op)
	}
	return nil
}

// Permute returns a copy of the block with tuples rearranged according to
// order, a permutation of current positions: result position k holds
// b.Tuples[order[k]]. It returns an error if order is not a permutation
// of 0..len-1.
func (b *Block) Permute(order []int) (*Block, error) {
	if len(order) != len(b.Tuples) {
		return nil, fmt.Errorf("ir: permutation length %d != block length %d", len(order), len(b.Tuples))
	}
	used := make([]bool, len(order))
	nb := &Block{Label: b.Label, Tuples: make([]Tuple, len(order))}
	for k, src := range order {
		if src < 0 || src >= len(order) || used[src] {
			return nil, fmt.Errorf("ir: order is not a permutation (entry %d = %d)", k, src)
		}
		used[src] = true
		nb.Tuples[k] = b.Tuples[src]
	}
	return nb, nil
}

// Concat joins blocks into one straight-line block, renumbering tuple
// IDs (and the references to them) so they stay unique. It models the
// "no branches between them" composition used when scheduling a
// sequence of adjacent blocks.
//
// The output numbers its tuples 1..n in order. Within each member, a
// reference maps to the new number of the latest tuple so far with that
// ID, or to 0 when there is none (a forward or foreign reference), which
// Validate then rejects. The work is linear in the tuples.
func Concat(label string, blocks ...*Block) (*Block, error) {
	n := 0
	for _, b := range blocks {
		n += len(b.Tuples)
	}
	out := NewBlock(label)
	if n > 0 {
		out.Tuples = make([]Tuple, 0, n)
	}
	var buf [smallSpan]int
	ids := IDTable{slots: buf[:0]} // member tuple ID -> new number
	for _, b := range blocks {
		ids.Reset(idRange(b.Tuples))
		for _, t := range b.Tuples {
			nt := t
			nt.ID = len(out.Tuples) + 1
			ids.Set(t.ID, nt.ID)
			if nt.A.Kind == RefOperand {
				nt.A.Ref = max(ids.Get(nt.A.Ref), 0)
			}
			if nt.B.Kind == RefOperand {
				nt.B.Ref = max(ids.Get(nt.B.Ref), 0)
			}
			out.Tuples = append(out.Tuples, nt)
		}
	}
	if err := out.Validate(); err != nil {
		return nil, fmt.Errorf("ir: Concat produced invalid block: %w", err)
	}
	return out, nil
}

// smallSpan is the ID span of the tables Validate and Concat keep on the
// stack.
const smallSpan = 64

// IDTable maps tuple IDs to non-negative ints, such as positions in a
// block; an ID with no entry reads -1. It indexes a slice by ID − lo,
// reusing the slice across resets, unless the IDs span far more numbers
// than there are IDs (4·n+64 or more); then it falls back to a map. Any
// int is an ID, so it never sizes the slice by the largest one. The zero
// IDTable is empty.
type IDTable struct {
	lo     int
	slots  []int // 1 + the entry of ID lo+i, or 0 for none
	sparse map[int]int
}

// Reset empties the table and sizes it for n IDs between lo and hi
// (none when hi < lo). Setting an ID outside [lo, hi] stays correct but
// moves the table to a map.
func (t *IDTable) Reset(lo, hi, n int) {
	t.sparse = nil
	t.lo, t.slots = lo, t.slots[:0]
	if hi < lo {
		return
	}
	span := uint(hi) - uint(lo) // no overflow for any lo <= hi
	if span >= 4*uint(n)+64 {
		t.sparse = make(map[int]int, n)
		return
	}
	if uint(cap(t.slots)) <= span {
		t.slots = make([]int, span+1)
		return
	}
	t.slots = t.slots[:span+1]
	clear(t.slots)
}

// Index resets the table to map the ID of each tuple of ts to its
// position (the last one, for a repeated ID).
func (t *IDTable) Index(ts []Tuple) {
	t.Reset(idRange(ts))
	for i := range ts {
		t.Set(ts[i].ID, i)
	}
}

// Set records v (>= 0) for id, replacing any earlier entry.
func (t *IDTable) Set(id, v int) {
	if t.sparse == nil {
		if i := uint(id) - uint(t.lo); i < uint(len(t.slots)) {
			t.slots[i] = v + 1
			return
		}
		t.sparse = make(map[int]int, len(t.slots)+1)
		for i, s := range t.slots {
			if s != 0 {
				t.sparse[t.lo+i] = s - 1
			}
		}
		t.slots = t.slots[:0]
	}
	t.sparse[id] = v
}

// Get returns the entry for id, or -1 when it has none.
func (t *IDTable) Get(id int) int {
	if t.sparse != nil {
		if v, ok := t.sparse[id]; ok {
			return v
		}
		return -1
	}
	if i := uint(id) - uint(t.lo); i < uint(len(t.slots)) {
		return t.slots[i] - 1
	}
	return -1
}

// idRange returns the smallest and largest ID of ts and their count,
// the arguments of IDTable.Reset.
func idRange(ts []Tuple) (lo, hi, n int) {
	if len(ts) == 0 {
		return 0, -1, 0
	}
	lo, hi = ts[0].ID, ts[0].ID
	for _, t := range ts[1:] {
		lo, hi = min(lo, t.ID), max(hi, t.ID)
	}
	return lo, hi, len(ts)
}
