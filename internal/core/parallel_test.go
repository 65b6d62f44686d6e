package core

import (
	"math/rand"
	"testing"
	"testing/quick"

	"pipesched/internal/dag"
	"pipesched/internal/listsched"
	"pipesched/internal/machine"
	"pipesched/internal/nopins"
)

// TestFindParallelSetupMatchesFind: Find and FindParallel share one setup
// path, so besides the optimal cost they must report the same seed cost
// (InitialNOPs, which the greedy seed may have improved) and the same
// root bound on every block, in every mode.
func TestFindParallelSetupMatchesFind(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	var graphs []*dag.Graph
	for len(graphs) < 60 {
		if g := randomGraph(t, rng, 6, 0); g != nil {
			graphs = append(graphs, g)
		}
	}
	modes := []machine.SchedMode{{}, machine.MinRegLex(), machine.Scoreboard(4, 2)}
	for _, m := range []*machine.Machine{machine.ExampleMachine(), machine.SimulationMachine()} {
		for _, mode := range modes {
			for i, g := range graphs {
				opts := Options{Sched: mode, SeedPriority: listsched.ByHeight, Lambda: 200000}
				seq, err := Find(g, m, opts)
				if err != nil {
					t.Fatalf("block %d mode %s: Find: %v", i, mode, err)
				}
				par, err := FindParallel(g, m, opts, 2)
				if err != nil {
					t.Fatalf("block %d mode %s: FindParallel: %v", i, mode, err)
				}
				if par.InitialNOPs != seq.InitialNOPs || par.RootLB != seq.RootLB ||
					(seq.Optimal && par.TotalNOPs != seq.TotalNOPs) {
					t.Fatalf("block %d mode %s: Find (initial=%d rootLB=%d nops=%d), FindParallel (initial=%d rootLB=%d nops=%d)",
						i, mode, seq.InitialNOPs, seq.RootLB, seq.TotalNOPs, par.InitialNOPs, par.RootLB, par.TotalNOPs)
				}
			}
		}
	}
}

func TestFindParallelMatchesFindProperty(t *testing.T) {
	m := machine.SimulationMachine()
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		g, err := dag.Build(randomBlock(rng, 3+rng.Intn(9)))
		if err != nil {
			return false
		}
		seq, err := Find(g, m, Options{Lambda: 500000})
		if err != nil || !seq.Optimal {
			return false
		}
		par, err := FindParallel(g, m, Options{Lambda: 500000}, 4)
		if err != nil || !par.Optimal {
			return false
		}
		return par.TotalNOPs == seq.TotalNOPs && g.IsLegalOrder(par.Order)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestFindParallelDeterministicCost(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	g, err := dag.Build(randomBlock(rng, 12))
	if err != nil {
		t.Fatal(err)
	}
	m := machine.SimulationMachine()
	first, err := FindParallel(g, m, Options{}, 8)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		again, err := FindParallel(g, m, Options{}, 8)
		if err != nil {
			t.Fatal(err)
		}
		if again.TotalNOPs != first.TotalNOPs || again.Optimal != first.Optimal {
			t.Fatalf("run %d: cost %d/%v vs %d/%v", i,
				again.TotalNOPs, again.Optimal, first.TotalNOPs, first.Optimal)
		}
	}
}

func TestFindParallelEmptyAndTrivial(t *testing.T) {
	m := machine.SimulationMachine()
	g := mustGraph(t, "one:\n  1: Load #a")
	sched, err := FindParallel(g, m, Options{}, 2)
	if err != nil || !sched.Optimal || sched.TotalNOPs != 0 {
		t.Errorf("trivial: %+v, %v", sched, err)
	}
	empty := mustGraph(t, "one:\n  1: Load #a")
	empty.Block.Tuples = nil
	g2, err := dag.Build(empty.Block)
	if err != nil {
		t.Fatal(err)
	}
	sched2, err := FindParallel(g2, m, Options{}, 2)
	if err != nil || len(sched2.Order) != 0 {
		t.Errorf("empty: %+v, %v", sched2, err)
	}
}

func TestFindParallelZeroNOPSeed(t *testing.T) {
	g := mustGraph(t, `z:
  1: Load #a
  2: Load #b
  3: Load #c`)
	sched, err := FindParallel(g, machine.SimulationMachine(), Options{}, 4)
	if err != nil {
		t.Fatal(err)
	}
	if sched.TotalNOPs != 0 || !sched.Optimal || sched.Stats.OmegaCalls != 0 {
		t.Errorf("zero-NOP seed: %+v", sched)
	}
}

func TestFindParallelRejectsIllegalSeed(t *testing.T) {
	g := mustGraph(t, "two:\n  1: Load #a\n  2: Neg @1")
	if _, err := FindParallel(g, machine.SimulationMachine(),
		Options{InitialOrder: []int{1, 0}}, 2); err == nil {
		t.Error("illegal seed accepted")
	}
}

func TestFindParallelCurtails(t *testing.T) {
	g := mustGraph(t, searchBlock)
	sched, err := FindParallel(g, machine.ExampleMachine(), Options{Lambda: 10}, 4)
	if err != nil {
		t.Fatal(err)
	}
	if sched.Optimal {
		t.Error("λ=10 parallel search claimed optimality")
	}
	if !g.IsLegalOrder(sched.Order) {
		t.Error("curtailed parallel result illegal")
	}
	// Curtailed or not, it never loses to the greedy-seeded incumbent.
	seq, err := Find(g, machine.ExampleMachine(), Options{Lambda: 10})
	if err != nil {
		t.Fatal(err)
	}
	if sched.TotalNOPs > seq.InitialNOPs && sched.TotalNOPs > seq.TotalNOPs+5 {
		t.Errorf("parallel curtailed result suspicious: %d NOPs", sched.TotalNOPs)
	}
}

func TestFindParallelWithAssignSearch(t *testing.T) {
	m := machine.ExampleMachine()
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		g, err := dag.Build(randomBlock(rng, 3+rng.Intn(6)))
		if err != nil {
			return false
		}
		seq, err := Find(g, m, Options{Assign: nopins.AssignGreedy, AssignSearch: true, Lambda: 200000})
		if err != nil || !seq.Optimal {
			return false
		}
		par, err := FindParallel(g, m, Options{Assign: nopins.AssignGreedy, AssignSearch: true, Lambda: 200000}, 4)
		if err != nil || !par.Optimal {
			return false
		}
		return par.TotalNOPs == seq.TotalNOPs
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}

// provenBlock seeds at 4 stalls under scoreboard=8x2 on the simulation
// machine; its root bound is 2, and a search meets it within a few dozen
// Ω-calls.
const provenBlock = `block:
  1: Load #b
  2: Const 2
  3: Div @1, @1
  4: Mul @3, @3
  5: Load #c
  6: Div @3, @3
  7: Load #b
  8: Div @2, @7
  9: Const 26
  10: Const 7
  11: Const 9
  12: Load #c
  13: Add @12, @11
  14: Div @5, @10
  15: Load #c
  16: Const 25
  17: Const 14
  18: Store #a, @11
`

// TestFindParallelStopsOnceProven: once one worker's incumbent meets the
// root bound, every worker unwinds. A sibling that searched its subtree
// out instead could spend the whole λ budget and report a block it had
// already proven as curtailed (a few runs in a hundred did).
func TestFindParallelStopsOnceProven(t *testing.T) {
	g := mustGraph(t, provenBlock)
	m := machine.SimulationMachine()
	opts := Options{Sched: machine.Scoreboard(8, 2), Lambda: 200_000, SeedPriority: listsched.ByHeight}
	for run := 0; run < 100; run++ {
		s, err := FindParallel(g, m, opts, 2)
		if err != nil {
			t.Fatal(err)
		}
		if !s.Optimal || s.TotalNOPs != s.RootLB || s.Stats.OmegaCalls > 1000 {
			t.Fatalf("run %d: optimal=%v stalls %d root bound %d after %d Ω-calls",
				run, s.Optimal, s.TotalNOPs, s.RootLB, s.Stats.OmegaCalls)
		}
	}
}
