package ir

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"slices"
	"strings"
	"testing"
	"testing/quick"
)

func figure3Block(t *testing.T) *Block {
	t.Helper()
	b := NewBlock("fig3")
	c := b.Append(Const, Imm(15), None())
	b.Append(Store, Var("b"), Ref(c))
	l := b.Append(Load, Var("a"), None())
	m := b.Append(Mul, Ref(c), Ref(l))
	b.Append(Store, Var("a"), Ref(m))
	if err := b.Validate(); err != nil {
		t.Fatalf("figure 3 block invalid: %v", err)
	}
	return b
}

func TestOpString(t *testing.T) {
	cases := map[Op]string{
		Nop: "Nop", Const: "Const", Load: "Load", Store: "Store",
		Add: "Add", Sub: "Sub", Mul: "Mul", Div: "Div", Mod: "Mod", Neg: "Neg",
	}
	for op, want := range cases {
		if got := op.String(); got != want {
			t.Errorf("%v.String() = %q, want %q", uint8(op), got, want)
		}
	}
	if got := Op(200).String(); !strings.Contains(got, "200") {
		t.Errorf("unknown op String() = %q", got)
	}
}

func TestParseOpRoundTrip(t *testing.T) {
	for _, op := range allOps() {
		got, err := ParseOp(op.String())
		if err != nil {
			t.Fatalf("ParseOp(%q): %v", op.String(), err)
		}
		if got != op {
			t.Errorf("ParseOp(%q) = %v, want %v", op.String(), got, op)
		}
	}
	if _, err := ParseOp("Bogus"); err == nil {
		t.Error("ParseOp(Bogus) succeeded, want error")
	}
	if _, err := ParseOp("Invalid"); err == nil {
		t.Error("ParseOp(Invalid) succeeded, want error")
	}
}

func TestOpPredicates(t *testing.T) {
	if Store.ProducesValue() || Nop.ProducesValue() {
		t.Error("Store/Nop must not produce values")
	}
	for _, op := range []Op{Const, Load, Add, Sub, Mul, Div, Mod, Neg} {
		if !op.ProducesValue() {
			t.Errorf("%v should produce a value", op)
		}
	}
	if !Add.IsCommutative() || !Mul.IsCommutative() {
		t.Error("Add and Mul are commutative")
	}
	if Sub.IsCommutative() || Div.IsCommutative() {
		t.Error("Sub and Div are not commutative")
	}
	if !Load.TouchesMemory() || !Store.TouchesMemory() || Add.TouchesMemory() {
		t.Error("memory predicate wrong")
	}
	wantOperands := map[Op]int{Nop: 0, Const: 1, Load: 1, Neg: 1, Store: 2, Add: 2, Mod: 2}
	for op, n := range wantOperands {
		if got := op.NumOperands(); got != n {
			t.Errorf("%v.NumOperands() = %d, want %d", op, got, n)
		}
	}
}

func TestOperandString(t *testing.T) {
	cases := []struct {
		op   Operand
		want string
	}{
		{None(), "_"},
		{Var("x"), "#x"},
		{Ref(7), "@7"},
		{Imm(-3), "-3"},
	}
	for _, c := range cases {
		if got := c.op.String(); got != c.want {
			t.Errorf("%#v.String() = %q, want %q", c.op, got, c.want)
		}
	}
}

func TestBlockAppendAndLookup(t *testing.T) {
	b := figure3Block(t)
	if b.Len() != 5 {
		t.Fatalf("Len = %d, want 5", b.Len())
	}
	if b.NextID() != 6 {
		t.Errorf("NextID = %d, want 6", b.NextID())
	}
	for i, tp := range b.Tuples {
		if pos := b.Pos(tp.ID); pos != i {
			t.Errorf("Pos(%d) = %d, want %d", tp.ID, pos, i)
		}
		if got := b.ByID(tp.ID); got != tp {
			t.Errorf("ByID(%d) = %v, want %v", tp.ID, got, tp)
		}
	}
	if b.Pos(99) != -1 {
		t.Error("Pos of missing ID should be -1")
	}
}

func TestByIDPanicsOnMissing(t *testing.T) {
	b := figure3Block(t)
	defer func() {
		if recover() == nil {
			t.Error("ByID(missing) did not panic")
		}
	}()
	b.ByID(42)
}

func TestPosAfterInPlacePermutation(t *testing.T) {
	b := figure3Block(t)
	_ = b.Pos(1) // force index build
	b.Tuples[0], b.Tuples[2] = b.Tuples[2], b.Tuples[0]
	b.InvalidateIndex()
	if got := b.Pos(3); got != 0 {
		t.Errorf("after swap, Pos(3) = %d, want 0", got)
	}
	if got := b.Pos(1); got != 2 {
		t.Errorf("after swap, Pos(1) = %d, want 2", got)
	}
}

func TestBlockVars(t *testing.T) {
	b := figure3Block(t)
	vars := b.Vars()
	if len(vars) != 2 || vars[0] != "a" || vars[1] != "b" {
		t.Errorf("Vars = %v, want [a b]", vars)
	}
}

func TestValidateCatchesErrors(t *testing.T) {
	cases := []struct {
		name string
		mod  func(*Block)
	}{
		{"forward ref", func(b *Block) {
			b.Tuples = append(b.Tuples, Tuple{ID: 9, Op: Neg, A: Ref(10)})
		}},
		{"duplicate id", func(b *Block) {
			b.Tuples = append(b.Tuples, Tuple{ID: 1, Op: Load, A: Var("z")})
		}},
		{"ref to non-value", func(b *Block) {
			// tuple 2 is a Store: referencing it is illegal
			b.Tuples = append(b.Tuples, Tuple{ID: 9, Op: Neg, A: Ref(2)})
		}},
		{"bad shape const", func(b *Block) {
			b.Tuples = append(b.Tuples, Tuple{ID: 9, Op: Const, A: Var("x")})
		}},
		{"bad shape store", func(b *Block) {
			b.Tuples = append(b.Tuples, Tuple{ID: 9, Op: Store, A: Var("x"), B: Var("y")})
		}},
		{"bad shape nop", func(b *Block) {
			b.Tuples = append(b.Tuples, Tuple{ID: 9, Op: Nop, A: Imm(1)})
		}},
		{"zero id", func(b *Block) {
			b.Tuples = append(b.Tuples, Tuple{ID: 0, Op: Load, A: Var("z")})
		}},
		{"invalid op", func(b *Block) {
			b.Tuples = append(b.Tuples, Tuple{ID: 9, Op: Invalid})
		}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			b := figure3Block(t)
			c.mod(b)
			b.InvalidateIndex()
			if err := b.Validate(); err == nil {
				t.Errorf("Validate accepted malformed block (%s)", c.name)
			}
		})
	}
}

func TestCloneIsDeep(t *testing.T) {
	b := figure3Block(t)
	c := b.Clone()
	c.Tuples[0].Op = Load
	c.Tuples[0].A = Var("q")
	if b.Tuples[0].Op != Const {
		t.Error("Clone shares tuple storage with original")
	}
}

func TestPermute(t *testing.T) {
	b := figure3Block(t)
	// Reverse order is NOT a valid program (refs go forward), but Permute
	// only rearranges; semantic checking is the DAG's job.
	order := []int{4, 3, 2, 1, 0}
	nb, err := b.Permute(order)
	if err != nil {
		t.Fatalf("Permute: %v", err)
	}
	for k := range order {
		if nb.Tuples[k].ID != b.Tuples[order[k]].ID {
			t.Errorf("position %d: got ID %d, want %d", k, nb.Tuples[k].ID, b.Tuples[order[k]].ID)
		}
	}
	if _, err := b.Permute([]int{0, 1}); err == nil {
		t.Error("short permutation accepted")
	}
	if _, err := b.Permute([]int{0, 0, 1, 2, 3}); err == nil {
		t.Error("non-permutation accepted")
	}
	if _, err := b.Permute([]int{0, 1, 2, 3, 7}); err == nil {
		t.Error("out-of-range permutation accepted")
	}
}

func TestTupleStringForms(t *testing.T) {
	cases := []struct {
		tp   Tuple
		want string
	}{
		{Tuple{ID: 1, Op: Nop}, "1: Nop"},
		{Tuple{ID: 2, Op: Const, A: Imm(15)}, "2: Const 15"},
		{Tuple{ID: 3, Op: Load, A: Var("a")}, "3: Load #a"},
		{Tuple{ID: 4, Op: Mul, A: Ref(2), B: Ref(3)}, "4: Mul @2, @3"},
		{Tuple{ID: 5, Op: Store, A: Var("a"), B: Ref(4)}, "5: Store #a, @4"},
	}
	for _, c := range cases {
		if got := c.tp.String(); got != c.want {
			t.Errorf("String() = %q, want %q", got, c.want)
		}
	}
}

func TestParseTupleRoundTrip(t *testing.T) {
	b := figure3Block(t)
	for _, tp := range b.Tuples {
		got, err := ParseTuple(tp.String())
		if err != nil {
			t.Fatalf("ParseTuple(%q): %v", tp.String(), err)
		}
		if got != tp {
			t.Errorf("round trip %q: got %v", tp.String(), got)
		}
	}
}

func TestParseTupleErrors(t *testing.T) {
	bad := []string{
		"no colon here",
		"x: Load #a",
		"1:",
		"1: Bogus #a",
		"1: Load",
		"1: Load #a, #b",
		"1: Load #",
		"1: Mul @x, @2",
		"1: Add foo, @2",
	}
	for _, s := range bad {
		if _, err := ParseTuple(s); err == nil {
			t.Errorf("ParseTuple(%q) succeeded, want error", s)
		}
	}
}

func TestParseBlockRoundTrip(t *testing.T) {
	b := figure3Block(t)
	parsed, err := ParseBlock(b.String())
	if err != nil {
		t.Fatalf("ParseBlock: %v", err)
	}
	if parsed.Label != "fig3" {
		t.Errorf("label = %q, want fig3", parsed.Label)
	}
	if parsed.String() != b.String() {
		t.Errorf("round trip mismatch:\n%s\nvs\n%s", parsed.String(), b.String())
	}
}

func TestParseBlocksMultiple(t *testing.T) {
	src := `
; a comment
one:
  1: Load #a
  2: Store #b, @1

// another comment
two:
  1: Const 4
  2: Const 5
  3: Add @1, @2
  4: Store #c, @3
`
	blocks, err := ParseBlocks(strings.NewReader(src))
	if err != nil {
		t.Fatalf("ParseBlocks: %v", err)
	}
	if len(blocks) != 2 {
		t.Fatalf("got %d blocks, want 2", len(blocks))
	}
	if blocks[0].Label != "one" || blocks[1].Label != "two" {
		t.Errorf("labels = %q, %q", blocks[0].Label, blocks[1].Label)
	}
	if blocks[1].Len() != 4 {
		t.Errorf("block two has %d tuples, want 4", blocks[1].Len())
	}
}

func TestParseBlocksRejectsInvalid(t *testing.T) {
	src := "bad:\n  1: Mul @2, @3\n"
	if _, err := ParseBlocks(strings.NewReader(src)); err == nil {
		t.Error("forward reference accepted by ParseBlocks")
	}
}

func TestParseUnlabeledBlock(t *testing.T) {
	b, err := ParseBlock("1: Load #a\n2: Store #b, @1\n")
	if err != nil {
		t.Fatalf("ParseBlock: %v", err)
	}
	if b.Label != "" || b.Len() != 2 {
		t.Errorf("got label %q len %d", b.Label, b.Len())
	}
}

func TestFormatBlocksSeparatesWithBlankLine(t *testing.T) {
	a := figure3Block(t)
	b := figure3Block(t)
	b.Label = "second"
	out := formatBlocks([]*Block{a, b})
	parsed, err := ParseBlocks(strings.NewReader(out))
	if err != nil {
		t.Fatalf("reparse: %v", err)
	}
	if len(parsed) != 2 {
		t.Fatalf("reparsed %d blocks, want 2", len(parsed))
	}
}

func TestOperandParseRoundTripProperty(t *testing.T) {
	f := func(ref uint16, imm int64, pick uint8) bool {
		var op Operand
		switch pick % 4 {
		case 0:
			op = None()
		case 1:
			op = Var("v" + string(rune('a'+ref%26)))
		case 2:
			op = Ref(int(ref) + 1)
		case 3:
			op = Imm(imm)
		}
		back, err := ParseOperand(op.String())
		return err == nil && back == op
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestRefsAndMemVar(t *testing.T) {
	b := figure3Block(t)
	if refs, n := b.ByID(4).Refs(); n != 2 || refs[0] != 1 || refs[1] != 3 {
		t.Errorf("tuple 4 Refs = %v, want [1 3]", refs[:n])
	}
	if _, n := b.ByID(1).Refs(); n != 0 {
		t.Errorf("tuple 1 has %d refs, want none", n)
	}
	// Refs and Operands sit on the DAG-build, allocation and codegen
	// paths, once per tuple: they must not allocate.
	sum := 0
	allocs := testing.AllocsPerRun(100, func() {
		for _, tu := range b.Tuples {
			refs, n := tu.Refs()
			for _, r := range refs[:n] {
				sum += r
			}
		}
	})
	if allocs != 0 || sum == 0 {
		t.Errorf("Refs allocated %.0f times per block, want 0", allocs)
	}
	if mv := b.ByID(3).MemVar(); mv != "a" {
		t.Errorf("tuple 3 MemVar = %q, want a", mv)
	}
	if mv := b.ByID(4).MemVar(); mv != "" {
		t.Errorf("tuple 4 MemVar = %q, want empty", mv)
	}
	if !b.ByID(3).ReadsVar("a") || b.ByID(3).ReadsVar("b") {
		t.Error("ReadsVar wrong")
	}
	if !b.ByID(2).WritesVar("b") || b.ByID(2).WritesVar("a") {
		t.Error("WritesVar wrong")
	}
}

func TestConcat(t *testing.T) {
	a, err := ParseBlock("a:\n  1: Load #x\n  2: Store #y, @1")
	if err != nil {
		t.Fatal(err)
	}
	b, err := ParseBlock("b:\n  1: Load #y\n  2: Neg @1\n  3: Store #z, @2")
	if err != nil {
		t.Fatal(err)
	}
	joined, err := Concat("seq", a, b)
	if err != nil {
		t.Fatal(err)
	}
	if joined.Len() != 5 {
		t.Fatalf("joined has %d tuples", joined.Len())
	}
	if err := joined.Validate(); err != nil {
		t.Fatal(err)
	}
	// IDs renumbered sequentially; refs remapped.
	if joined.Tuples[3].A.Ref != joined.Tuples[2].ID {
		t.Errorf("ref not remapped: %v", joined.Tuples[3])
	}
	// Semantics: same as executing the blocks in order.
	env1 := Env{"x": 7}
	if _, err := Exec(a, env1); err != nil {
		t.Fatal(err)
	}
	if _, err := Exec(b, env1); err != nil {
		t.Fatal(err)
	}
	env2 := Env{"x": 7}
	if _, err := Exec(joined, env2); err != nil {
		t.Fatal(err)
	}
	for k, v := range env1 {
		if env2[k] != v {
			t.Errorf("concat semantics: %s = %d, want %d", k, env2[k], v)
		}
	}
}

func TestConcatEmptyAndSingle(t *testing.T) {
	empty, err := Concat("e")
	if err != nil || empty.Len() != 0 {
		t.Errorf("empty concat: %v, %v", empty, err)
	}
	a := figure3Block(t)
	one, err := Concat("one", a)
	if err != nil || one.Len() != a.Len() {
		t.Errorf("single concat: %v", err)
	}
}

// concatByMap is Concat as it was before its linear rewrite: NextID per
// tuple and one map per member. TestConcatMatchesMapVersion holds the
// rewrite to its output.
func concatByMap(label string, blocks ...*Block) (*Block, error) {
	out := NewBlock(label)
	for _, b := range blocks {
		remap := make(map[int]int, len(b.Tuples))
		for _, t := range b.Tuples {
			nt := t
			nt.ID = out.NextID()
			remap[t.ID] = nt.ID
			if nt.A.Kind == RefOperand {
				nt.A.Ref = remap[nt.A.Ref]
			}
			if nt.B.Kind == RefOperand {
				nt.B.Ref = remap[nt.B.Ref]
			}
			out.Tuples = append(out.Tuples, nt)
		}
	}
	if err := out.Validate(); err != nil {
		return nil, fmt.Errorf("ir: Concat produced invalid block: %w", err)
	}
	return out, nil
}

// sparseBlock is a random valid block whose IDs start at first and
// climb by gaps of up to gap, as an optimised block's do after dead
// tuples are dropped. Every reference reads an earlier value.
func sparseBlock(rng *rand.Rand, n, first, gap int) *Block {
	b := NewBlock("")
	var values []int
	id := first
	for i := 0; i < n; i++ {
		t := Tuple{ID: id}
		switch k := rng.Intn(6); {
		case len(values) == 0 || k == 0:
			t.Op, t.A = Load, Var(string(rune('a'+rng.Intn(4))))
		case k == 1:
			t.Op, t.A = Const, Imm(int64(rng.Intn(9))-4)
		case k == 2:
			t.Op, t.A, t.B = Store, Var(string(rune('a'+rng.Intn(4)))), Ref(values[rng.Intn(len(values))])
		case k == 3:
			t.Op, t.A = Neg, Ref(values[rng.Intn(len(values))])
		default:
			t.Op, t.A, t.B = Mul, Ref(values[rng.Intn(len(values))]), Imm(3)
			if k == 5 {
				t.Op, t.B = Add, Ref(values[rng.Intn(len(values))])
			}
		}
		if t.Op != Store {
			values = append(values, id)
		}
		b.Tuples = append(b.Tuples, t)
		id += 1 + rng.Intn(gap)
	}
	return b
}

func TestConcatMatchesMapVersion(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	same := func(name string, blocks ...*Block) {
		t.Helper()
		got, gotErr := Concat("merged", blocks...)
		want, wantErr := concatByMap("merged", blocks...)
		if fmt.Sprint(gotErr) != fmt.Sprint(wantErr) || !reflect.DeepEqual(got, want) {
			t.Fatalf("%s: Concat = (%v, %v), the map version (%v, %v)", name, got, gotErr, want, wantErr)
		}
	}
	for i := 0; i < 400; i++ {
		blocks := make([]*Block, 1+rng.Intn(8))
		for j := range blocks {
			first, gap := 1+rng.Intn(5), 1+rng.Intn(4)
			switch rng.Intn(8) {
			case 0: // IDs far apart: the sparse fallback
				gap = 1 << 20
			case 1: // IDs near the top of int
				first = math.MaxInt - 64
				gap = 2
			}
			blocks[j] = sparseBlock(rng, rng.Intn(12), first, gap)
		}
		same(fmt.Sprintf("case %d", i), blocks...)
	}

	// Members ordered, duplicated or referenced in ways no valid block
	// is: the outputs still agree, and a reference outside its member's
	// IDs maps to 0 and is rejected.
	valid := sparseBlock(rng, 6, 3, 3)
	shuffled := valid.Clone()
	rng.Shuffle(len(shuffled.Tuples), func(i, j int) { shuffled.Tuples[i], shuffled.Tuples[j] = shuffled.Tuples[j], shuffled.Tuples[i] })
	negative := &Block{Tuples: []Tuple{{ID: -4, Op: Load, A: Var("x")}, {ID: 0, Op: Neg, A: Ref(-4)}, {ID: 2, Op: Mul, A: Ref(0), B: Ref(-4)}}}
	dup := &Block{Tuples: []Tuple{{ID: 1, Op: Load, A: Var("x")}, {ID: 1, Op: Load, A: Var("y")}, {ID: 2, Op: Neg, A: Ref(1)}}}
	forward := &Block{Tuples: []Tuple{{ID: 1, Op: Neg, A: Ref(2)}, {ID: 2, Op: Load, A: Var("x")}}}
	foreign := valid.Clone()
	foreign.Tuples = append(foreign.Tuples, Tuple{ID: 40, Op: Mul, A: Ref(1), B: Ref(1000)}) // below and above its IDs
	huge := &Block{Tuples: []Tuple{{ID: math.MinInt, Op: Load, A: Var("x")}, {ID: math.MaxInt, Op: Neg, A: Ref(math.MinInt)}}}
	for name, blocks := range map[string][]*Block{
		"shuffled": {valid, shuffled}, "negative IDs": {negative, valid}, "duplicate IDs": {dup, dup},
		"forward reference": {valid, forward}, "foreign reference": {valid, foreign, valid},
		"extreme IDs": {huge, valid}, "self": {valid, valid, valid, valid, valid, valid, valid, valid},
	} {
		same(name, blocks...)
	}
	if _, err := Concat("merged", valid, foreign); !errors.Is(err, ErrInvalidBlock) {
		t.Errorf("a reference outside its member: err = %v, want ErrInvalidBlock", err)
	}
}

func TestIDTableMatchesMap(t *testing.T) {
	rng := rand.New(rand.NewSource(30))
	var tab IDTable // one table across every case: resets reuse its storage
	probes := []int{0, -1, 1, math.MinInt, math.MaxInt, math.MinInt + 1, math.MaxInt - 1}
	for i := 0; i < 600; i++ {
		n := rng.Intn(40)
		base := rng.Intn(1<<16) - 1<<15
		spread := 1 + rng.Intn(4)
		switch rng.Intn(6) {
		case 0: // far past the sparse switch
			spread = 1 << 24
		case 1: // near the bottom of int
			base = math.MinInt + rng.Intn(8)
		case 2: // near the top of int
			base = math.MaxInt - 4*n - rng.Intn(8)
		}
		ids := make([]int, n)
		for k := range ids {
			switch rng.Intn(10) {
			case 0:
				ids[k] = probes[rng.Intn(len(probes))]
			case 1:
				if k > 0 { // a duplicate
					ids[k] = ids[rng.Intn(k)]
					continue
				}
				fallthrough
			default:
				ids[k] = base + spread*rng.Intn(2*n+1)
			}
		}
		lo, hi := 0, -1
		if n > 0 {
			lo, hi = slices.Min(ids), slices.Max(ids)
		}
		if rng.Intn(5) == 0 && hi > lo {
			hi = lo + int(uint(hi-lo)/2) // some Sets fall outside the range
		}
		tab.Reset(lo, hi, n)
		want := map[int]int{}
		for _, id := range ids {
			v := rng.Intn(1 << 20)
			tab.Set(id, v)
			want[id] = v
		}
		check := func(id int) {
			w, ok := want[id]
			if !ok {
				w = -1
			}
			if got := tab.Get(id); got != w {
				t.Fatalf("case %d: Get(%d) = %d, want %d (ids %v)", i, id, got, w, ids)
			}
		}
		for _, id := range ids {
			check(id)
			check(id + 1)
			check(id - 1)
		}
		for _, id := range probes {
			check(id)
		}
	}
	var zero IDTable
	if got := zero.Get(0); got != -1 {
		t.Errorf("zero IDTable: Get(0) = %d, want -1", got)
	}

	// Pos agrees with a scan through every kind of change to a block.
	scan := func(b *Block, id int) int {
		for i := len(b.Tuples) - 1; i >= 0; i-- {
			if b.Tuples[i].ID == id {
				return i
			}
		}
		return -1
	}
	checkPos := func(what string, b *Block) {
		t.Helper()
		for _, tp := range b.Tuples {
			for _, id := range []int{tp.ID, tp.ID + 1, tp.ID - 1} {
				if got, want := b.Pos(id), scan(b, id); got != want {
					t.Fatalf("%s: Pos(%d) = %d, want %d", what, id, got, want)
				}
			}
		}
		for _, id := range probes {
			if got, want := b.Pos(id), scan(b, id); got != want {
				t.Fatalf("%s: Pos(%d) = %d, want %d", what, id, got, want)
			}
		}
	}
	for i := 0; i < 50; i++ {
		gap := 1 + rng.Intn(4)
		if i%3 == 0 {
			gap = 1 << 20 // a sparse index
		}
		b := sparseBlock(rng, 1+rng.Intn(15), 1+rng.Intn(5), gap)
		checkPos("fresh", b)
		for k := 0; k < 3; k++ {
			b.Append(Load, Var("z"), None())
			checkPos("after Append", b)
		}
		order := rng.Perm(b.Len())
		pb, err := b.Permute(order)
		if err != nil {
			t.Fatal(err)
		}
		checkPos("after Permute", pb)
		rng.Shuffle(len(b.Tuples), func(x, y int) { b.Tuples[x], b.Tuples[y] = b.Tuples[y], b.Tuples[x] })
		checkPos("after an in-place shuffle", b)
		rng.Shuffle(len(b.Tuples), func(x, y int) { b.Tuples[x], b.Tuples[y] = b.Tuples[y], b.Tuples[x] })
		b.InvalidateIndex()
		checkPos("after InvalidateIndex", b)
		b.Tuples[rng.Intn(b.Len())].ID = math.MaxInt // renamed in place
		checkPos("after an in-place rename", b)
		b.Tuples = b.Tuples[:b.Len()-1] // shortened in place
		checkPos("after an in-place truncation", b)
	}

	// Validate reports malformed blocks in the words it always has.
	for _, c := range []struct {
		name, src, want string
	}{
		{"duplicate ID", "1: Load #x\n2: Load #y\n1: Neg @2",
			"ir: invalid block: duplicate tuple ID 1 at positions 0 and 2"},
		{"forward reference", "1: Load #x\n2: Neg @3\n3: Load #y",
			"ir: invalid block: tuple 2 references 3 which does not precede it"},
		{"reference to a Store", "1: Load #x\n2: Store #y, @1\n3: Neg @2",
			"ir: invalid block: tuple 3 references 2 (Store) which produces no value"},
		{"non-positive ID", "1: Load #x\n0: Neg @1",
			"ir: invalid block: tuple at position 1 has non-positive ID 0"},
		{"negative ID", "-5: Load #x",
			"ir: invalid block: tuple at position 0 has non-positive ID -5"},
	} {
		b := &Block{}
		for _, line := range strings.Split(c.src, "\n") {
			tp, err := ParseTuple(line)
			if err != nil {
				t.Fatalf("%s: %v", c.name, err)
			}
			b.Tuples = append(b.Tuples, tp)
		}
		err := b.Validate()
		if err == nil || err.Error() != c.want {
			t.Errorf("%s: Validate = %v, want %q", c.name, err, c.want)
		}
		if _, err2 := b.ValidIndex(); fmt.Sprint(err2) != fmt.Sprint(err) {
			t.Errorf("%s: ValidIndex = %v, Validate = %v", c.name, err2, err)
		}
	}
}

func TestConcatAllocs(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	blocks := make([]*Block, 6)
	for i := range blocks {
		blocks[i] = sparseBlock(rng, 10, 1, 3)
	}
	allocs := testing.AllocsPerRun(100, func() {
		if _, err := Concat("merged", blocks...); err != nil {
			t.Fatal(err)
		}
	})
	// The map version made 29: a map per member and a growing output.
	if allocs > 7 {
		t.Errorf("a 6-block Concat allocates %.0f times, want <= 7", allocs)
	}
}

func TestExecErrors(t *testing.T) {
	// Division by zero.
	b, err := ParseBlock("d:\n  1: Const 0\n  2: Div 1, @1\n  3: Store #x, @2")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Exec(b, Env{}); err == nil {
		t.Error("div by zero unreported")
	}
	// Remainder by zero.
	b2, err := ParseBlock("m:\n  1: Const 0\n  2: Mod 1, @1\n  3: Store #x, @2")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Exec(b2, Env{}); err == nil {
		t.Error("mod by zero unreported")
	}
	// Reference to a tuple that was never executed (hand-built bad block).
	bad := NewBlock("bad")
	bad.Tuples = append(bad.Tuples,
		Tuple{ID: 2, Op: Neg, A: Ref(1)},
		Tuple{ID: 3, Op: Store, A: Var("x"), B: Ref(2)})
	if _, err := Exec(bad, Env{}); err == nil {
		t.Error("dangling ref unreported")
	}
}

func TestExecValuesReturned(t *testing.T) {
	b := figure3Block(t)
	env := Env{"a": 3}
	vals, err := Exec(b, env)
	if err != nil {
		t.Fatal(err)
	}
	if vals[1] != 15 || vals[4] != 45 {
		t.Errorf("vals = %v", vals)
	}
	if env["a"] != 45 || env["b"] != 15 {
		t.Errorf("env = %v", env)
	}
}

func TestEnvClone(t *testing.T) {
	e := Env{"x": 1}
	c := e.Clone()
	c["x"] = 2
	if e["x"] != 1 {
		t.Error("Clone not independent")
	}
}

func TestExecNopAndUnknownOp(t *testing.T) {
	b := NewBlock("n")
	b.Tuples = append(b.Tuples, Tuple{ID: 1, Op: Nop})
	if _, err := Exec(b, Env{}); err != nil {
		t.Errorf("Nop execution failed: %v", err)
	}
	bad := NewBlock("u")
	bad.Tuples = append(bad.Tuples, Tuple{ID: 1, Op: Op(200)})
	if _, err := Exec(bad, Env{}); err == nil {
		t.Error("unknown op unreported")
	}
}

// allOps returns every defined operation type, in declaration order.
func allOps() []Op {
	ops := make([]Op, 0, int(NumOps)-1)
	for o := Nop; o < NumOps; o++ {
		ops = append(ops, o)
	}
	return ops
}

// formatBlocks renders a sequence of blocks separated by blank lines,
// the form ParseBlocks reads.
func formatBlocks(blocks []*Block) string {
	var sb strings.Builder
	for i, b := range blocks {
		if i > 0 {
			sb.WriteString("\n")
		}
		sb.WriteString(b.String())
	}
	return sb.String()
}
