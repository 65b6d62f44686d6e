package opt

import (
	"math/rand"
	"testing"
	"testing/quick"

	"pipesched/internal/core"
	"pipesched/internal/dag"
	"pipesched/internal/ir"
	"pipesched/internal/machine"
	"pipesched/internal/tuplegen"
)

func TestStrengthReduceRewritesDoubling(t *testing.T) {
	b := compile(t, "y = x * 2\nz = 2 * y\n")
	out := optimizeStrength(b)
	if err := out.Validate(); err != nil {
		t.Fatalf("invalid: %v\n%s", err, out)
	}
	if countOp(out, ir.Mul) != 0 {
		t.Errorf("multiplications by 2 survived:\n%s", out)
	}
	if countOp(out, ir.Add) != 2 {
		t.Errorf("expected 2 Adds:\n%s", out)
	}
	env := ir.Env{"x": 7}
	if _, err := ir.Exec(out, env); err != nil {
		t.Fatal(err)
	}
	if env["y"] != 14 || env["z"] != 28 {
		t.Errorf("env = %v", env)
	}
}

func TestStrengthReduceLeavesOtherConstantsAlone(t *testing.T) {
	b := Optimize(compile(t, "y = x * 3\nz = x * 4\n"))
	if StrengthReduce(b) {
		t.Errorf("non-2 constants rewritten:\n%s", b)
	}
	// Constant*constant folds away before this pass ever sees it.
	b2 := compile(t, "y = 2 * 2\n")
	out := optimizeStrength(b2)
	if countOp(out, ir.Add) != 0 || countOp(out, ir.Mul) != 0 {
		t.Errorf("constant multiply mishandled:\n%s", out)
	}
}

func TestStrengthReduceImprovesSchedule(t *testing.T) {
	// A chain of doublings: on the simulation machine the multiplier
	// costs latency 4 per link, the adder 2 — strength reduction must
	// strictly shorten the optimal schedule.
	src := "y = x * 2\ny = y * 2\ny = y * 2\ny = y * 2\n"
	m := machine.SimulationMachine()
	ticks := func(b *ir.Block) int {
		g, err := dag.Build(b)
		if err != nil {
			t.Fatal(err)
		}
		s, err := core.Find(g, m, core.Options{Lambda: 100000})
		if err != nil {
			t.Fatal(err)
		}
		return s.Ticks
	}
	plain := ticks(Optimize(compile(t, src)))
	reduced := ticks(optimizeStrength(compile(t, src)))
	if reduced >= plain {
		t.Errorf("strength reduction did not help: %d vs %d ticks", reduced, plain)
	}
}

func TestOptimizeStrengthPreservesSemanticsProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		b, err := tuplegen.Compile(randomProgram(rng, 1+rng.Intn(8)), "p")
		if err != nil {
			return false
		}
		out := optimizeStrength(b)
		if err := out.Validate(); err != nil {
			return false
		}
		env1 := ir.Env{"a": 5, "b": -3, "c": 2, "d": 9}
		env2 := env1.Clone()
		if _, err := ir.Exec(b, env1); err != nil {
			return true
		}
		if _, err := ir.Exec(out, env2); err != nil {
			return false
		}
		for k, v := range env1 {
			if env2[k] != v {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 120}); err != nil {
		t.Error(err)
	}
}

// optimizeStrength runs the standard pipeline with strength reduction
// folded in, to a combined fixed point.
func optimizeStrength(b *ir.Block) *ir.Block {
	out := Optimize(b)
	for round := 0; round < 4; round++ {
		changed := StrengthReduce(out)
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
