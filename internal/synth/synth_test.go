package synth

import (
	"math/rand"
	"testing"
	"testing/quick"

	"pipesched/internal/dag"
	"pipesched/internal/ir"
	"pipesched/internal/stats"
)

func TestGenerateBasics(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	b, err := Generate(rng, Params{Statements: 8, Variables: 5, Constants: 4})
	if err != nil {
		t.Fatal(err)
	}
	if b.Source == "" {
		t.Error("empty source")
	}
	if err := b.IR.Validate(); err != nil {
		t.Fatalf("generated block invalid: %v\n%s", err, b.IR)
	}
	if b.IR.Len() < 8 {
		t.Errorf("8 statements lowered to only %d tuples", b.IR.Len())
	}
	// Every generated block must produce a buildable DAG.
	if _, err := dag.Build(b.IR); err != nil {
		t.Fatal(err)
	}
}

func TestGenerateParamValidation(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	bad := []Params{
		{Statements: 0, Variables: 1, Constants: 1},
		{Statements: 1, Variables: 0, Constants: 1},
		{Statements: 1, Variables: 1, Constants: 0},
		{Statements: 1, Variables: 1, Constants: 1, Mix: Mix{ConstAssign: -1, Add: 1}},
		{Statements: 1, Variables: 1, Constants: 1,
			Mix: Mix{ConstAssign: 1, Add: 0, Sub: 0, Mul: 0, Div: 0}},
	}
	for i, p := range bad {
		if _, err := Generate(rng, p); err == nil {
			t.Errorf("params %d accepted: %+v", i, p)
		}
	}
}

func TestDefaultMixValid(t *testing.T) {
	if err := DefaultMix.Validate(); err != nil {
		t.Fatal(err)
	}
	// DESIGN.md documents exactly these reconstruction weights.
	if DefaultMix.ConstAssign != 20 || DefaultMix.CopyAssign != 15 ||
		DefaultMix.BinOpVars != 45 || DefaultMix.BinOpConst != 20 {
		t.Error("statement mix drifted from documented values")
	}
	if DefaultMix.Add != 40 || DefaultMix.Sub != 25 || DefaultMix.Mul != 25 || DefaultMix.Div != 10 {
		t.Error("operator mix drifted from documented values")
	}
}

func TestDeterminism(t *testing.T) {
	a, err := Generate(rand.New(rand.NewSource(42)), Params{Statements: 10, Variables: 4, Constants: 3})
	if err != nil {
		t.Fatal(err)
	}
	b, err := Generate(rand.New(rand.NewSource(42)), Params{Statements: 10, Variables: 4, Constants: 3})
	if err != nil {
		t.Fatal(err)
	}
	if a.Source != b.Source || a.IR.String() != b.IR.String() {
		t.Error("same seed produced different blocks")
	}
}

func TestStatementMixRoughlyHonored(t *testing.T) {
	// With a mix of only constant assignments, every statement must be
	// "v = const" and the block contains no arithmetic.
	rng := rand.New(rand.NewSource(7))
	b, err := Generate(rng, Params{
		Statements: 30, Variables: 4, Constants: 4,
		Mix: Mix{ConstAssign: 1, Add: 1},
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, tp := range b.IR.Tuples {
		if isArith(tp.Op) || tp.Op == ir.Load {
			t.Fatalf("const-only mix produced %v:\n%s", tp.Op, b.IR)
		}
	}
}

func TestOperatorMixRoughlyHonored(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	b, err := Generate(rng, Params{
		Statements: 200, Variables: 6, Constants: 4,
		Mix: Mix{BinOpVars: 1, Mul: 1}, // only v = a * b
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, tp := range b.IR.Tuples {
		if isArith(tp.Op) && tp.Op != ir.Mul {
			t.Fatalf("mul-only mix produced %v", tp.Op)
		}
	}
}

func TestDivisorsAreNonzeroConstants(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	b, err := Generate(rng, Params{
		Statements: 100, Variables: 3, Constants: 5,
		Mix: Mix{BinOpConst: 1, Div: 1},
	})
	if err != nil {
		t.Fatal(err)
	}
	// v = a / const with const >= 1: executing with any env never faults.
	env := ir.Env{"v0": -17, "v1": 0, "v2": 3}
	if _, err := ir.Exec(b.IR, env); err != nil {
		t.Errorf("const-divisor program faulted: %v", err)
	}
}

func TestGenerateWithTuplesHitsTarget(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for _, want := range []int{8, 13, 20} {
		b, err := GenerateWithTuples(rng, want, Params{Variables: 8, Constants: 6}, 0)
		if err != nil {
			t.Fatalf("size %d: %v", want, err)
		}
		if b.IR.Len() != want {
			t.Errorf("asked for %d tuples, got %d", want, b.IR.Len())
		}
	}
}

func TestSizeDistributionShape(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	sizes := SizeDistribution(rng, 4000)
	if len(sizes) != 4000 {
		t.Fatalf("got %d sizes", len(sizes))
	}
	fs := make([]float64, len(sizes))
	for i, s := range sizes {
		if s < 2 {
			t.Fatalf("size %d below minimum", s)
		}
		fs[i] = float64(s)
	}
	mean := stats.Mean(fs)
	if mean < 5 || mean > 10 {
		t.Errorf("statement-count mean %.2f outside [5,10]", mean)
	}
	_, max := stats.MinMax(fs)
	if max < 12 {
		t.Errorf("distribution lacks a tail: max %v", max)
	}
}

// TestGeneratedAlwaysValidProperty: any parameters produce valid IR.
func TestGeneratedAlwaysValidProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		b, err := Generate(rng, Params{
			Statements: 1 + rng.Intn(20),
			Variables:  1 + rng.Intn(8),
			Constants:  1 + rng.Intn(6),
			Optimize:   rng.Intn(2) == 0,
		})
		if err != nil {
			return false
		}
		if err := b.IR.Validate(); err != nil {
			return false
		}
		_, err = dag.Build(b.IR)
		return err == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Error(err)
	}
}

// TestOptimizeShrinksOnAverage: optimized synthetic blocks must not be
// larger than unoptimized ones generated from the same seed.
func TestOptimizeShrinksOnAverage(t *testing.T) {
	var plain, optimized int
	for seed := int64(0); seed < 30; seed++ {
		p, err := Generate(rand.New(rand.NewSource(seed)), Params{Statements: 10, Variables: 4, Constants: 3})
		if err != nil {
			t.Fatal(err)
		}
		o, err := Generate(rand.New(rand.NewSource(seed)), Params{Statements: 10, Variables: 4, Constants: 3, Optimize: true})
		if err != nil {
			t.Fatal(err)
		}
		plain += p.IR.Len()
		optimized += o.IR.Len()
	}
	if optimized > plain {
		t.Errorf("optimization grew blocks: %d -> %d tuples", plain, optimized)
	}
}

// isArith reports whether o is a pure arithmetic operation.
func isArith(o ir.Op) bool {
	switch o {
	case ir.Add, ir.Sub, ir.Mul, ir.Div, ir.Mod, ir.Neg:
		return true
	}
	return false
}
