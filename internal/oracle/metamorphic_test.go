package oracle

import (
	"math/rand"
	"reflect"
	"testing"

	"pipesched/internal/dag"
	"pipesched/internal/ir"
	"pipesched/internal/machine"
)

const metaBlock = `meta:
  1: Load #a
  2: Const 3
  3: Add @1, @2
  4: Mul @3, @1
  5: Store #b, @4
  6: Add 2, 5
  7: Store #c, @6`

func TestRenumberTuplesPreservesDAG(t *testing.T) {
	b, err := ir.ParseBlock(metaBlock)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1))
	nb := RenumberTuples(b, rng)
	if err := nb.Validate(); err != nil {
		t.Fatalf("renumbered block invalid: %v", err)
	}
	g, err := dag.Build(b)
	if err != nil {
		t.Fatal(err)
	}
	ng, err := dag.Build(nb)
	if err != nil {
		t.Fatalf("renumbered block does not build: %v", err)
	}
	// Node positions are untouched, so the position-indexed dependence
	// structure must be identical.
	if g.String() != ng.String() {
		t.Errorf("dependence structure changed:\noriginal:\n%s\nrenumbered:\n%s", g, ng)
	}
	// And the IDs must actually have moved (with overwhelming probability
	// over a 10^6 ID space).
	same := true
	for i := range b.Tuples {
		if b.Tuples[i].ID != nb.Tuples[i].ID {
			same = false
		}
	}
	if same {
		t.Error("renumbering left every ID unchanged")
	}
}

func TestSwapCommutativeOperandsPreservesSemantics(t *testing.T) {
	b, err := ir.ParseBlock(metaBlock)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(7))
	var nb *ir.Block
	for {
		nb = SwapCommutativeOperands(b, rng)
		if nb.String() != b.String() {
			break // at least one swap actually happened
		}
	}
	if err := nb.Validate(); err != nil {
		t.Fatalf("swapped block invalid: %v", err)
	}
	env1 := ir.Env{"a": 11, "b": 0, "c": 0}
	env2 := env1.Clone()
	v1, err1 := ir.Exec(b, env1)
	v2, err2 := ir.Exec(nb, env2)
	if err1 != nil || err2 != nil {
		t.Fatalf("exec failed: %v / %v", err1, err2)
	}
	if !reflect.DeepEqual(v1, v2) {
		t.Errorf("tuple values diverged: %v vs %v", v1, v2)
	}
	if !reflect.DeepEqual(env1, env2) {
		t.Errorf("final environments diverged: %v vs %v", env1, env2)
	}
}

func TestSwapCommutativeOperandsNeverTouchesNonCommutative(t *testing.T) {
	b, err := ir.ParseBlock(`nc:
  1: Load #a
  2: Sub @1, 3
  3: Div @2, 2
  4: Store #b, @3`)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(2))
	for i := 0; i < 32; i++ {
		if got := SwapCommutativeOperands(b, rng).String(); got != b.String() {
			t.Fatalf("non-commutative block mutated:\n%s", got)
		}
	}
}

// opTimings collects the multiset of (latency, enqueue) pairs an op's
// pipeline set offers — the only timing-relevant view of the op map.
func opTimings(m *machine.Machine) map[ir.Op][][2]int {
	out := map[ir.Op][][2]int{}
	for op, ids := range m.OpMap {
		for _, id := range ids {
			out[op] = append(out[op], [2]int{m.Latency(id), m.EnqueueTime(id)})
		}
	}
	return out
}

func TestPipelineTransformsPreserveTiming(t *testing.T) {
	for _, m := range []*machine.Machine{
		machine.SimulationMachine(),
		machine.ExampleMachine(),
		machine.Random(rand.New(rand.NewSource(3)), machine.Params{}),
	} {
		rng := rand.New(rand.NewSource(4))
		base := opTimings(m)

		mp, err := PermutePipelines(m, rng)
		if err != nil {
			t.Fatalf("%s: permute: %v", m.Name, err)
		}
		if err := mp.Validate(); err != nil {
			t.Fatalf("%s: permuted machine invalid: %v", m.Name, err)
		}
		if !reflect.DeepEqual(opTimings(mp), base) {
			t.Errorf("%s: row permutation changed op timings", m.Name)
		}

		mr, err := RelabelPipelines(m, rng)
		if err != nil {
			t.Fatalf("%s: relabel: %v", m.Name, err)
		}
		if err := mr.Validate(); err != nil {
			t.Fatalf("%s: relabeled machine invalid: %v", m.Name, err)
		}
		if !reflect.DeepEqual(opTimings(mr), base) {
			t.Errorf("%s: relabeling changed op timings", m.Name)
		}
	}
}

func TestCheckMetamorphicCleanOnPresets(t *testing.T) {
	b, err := ir.ParseBlock(metaBlock)
	if err != nil {
		t.Fatal(err)
	}
	g, err := dag.Build(b)
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range []*machine.Machine{
		machine.SimulationMachine(),
		machine.ExampleMachine(),
		machine.DeepMachine(),
	} {
		rng := rand.New(rand.NewSource(9))
		if divs := CheckMetamorphic(g, m, machine.SchedMode{}, Config{}, rng); len(divs) != 0 {
			t.Errorf("%s: unexpected metamorphic divergences: %v", m.Name, divs)
		}
	}
}
