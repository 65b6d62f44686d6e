package core

import (
	"context"
	"math/rand"
	"testing"

	"pipesched/internal/dag"
	"pipesched/internal/listsched"
	"pipesched/internal/machine"
)

// refuteBlock is block 93 of the scoreboard bench corpus, after opt. On
// the simulation machine under scoreboard=8x2 its release-sweep root bound
// is 1 stall and its seed 4; the refutation raises the bound to the
// optimum, 2, before the search starts, and the search stops once it
// finds a 2-stall order.
const refuteBlock = `block:
  1: Load #v5
  2: Const 45
  3: Add @1, @2
  4: Store #v0, @3
  5: Load #v4
  6: Mul @5, @3
  7: Store #v3, @6
  9: Store #v5, @5
  13: Load #v1
  15: Load #v7
  16: Const 57
  17: Div @15, @16
  21: Div @17, @13
  22: Store #v7, @21
  25: Sub @13, @3
  26: Store #v1, @25
  28: Store #v4, @16
  29: Add @6, @6
  30: Store #v6, @29
  31: Add @6, @25
  32: Store #v2, @31
`

// withRefuteRoot turns the root refutation on or off for one test.
func withRefuteRoot(t *testing.T, on bool) {
	orig := refuteRoot
	refuteRoot = on
	t.Cleanup(func() { refuteRoot = orig })
}

// TestFindAllocsFlatScoreboardRefute is TestFindAllocsFlatScoreboard with
// the lower bound on, on a block where the root refutation fires and
// raises the root bound: the refutation allocates nothing past the
// evaluator's set-up, so Find stays within the same budget.
func TestFindAllocsFlatScoreboardRefute(t *testing.T) {
	g := mustGraph(t, refuteBlock)
	m := machine.SimulationMachine()
	opts := Options{Sched: machine.Scoreboard(8, 2), Lambda: 1_000_000, SeedPriority: listsched.ByHeight}
	ev, err := newScoreboardEval(newProblem(g, m, opts))
	if err != nil {
		t.Fatal(err)
	}
	var s *Schedule
	allocs := testing.AllocsPerRun(1, func() {
		if s, err = Find(g, m, opts); err != nil {
			t.Fatal(err)
		}
	})
	if !s.Optimal || s.InitialNOPs <= s.RootLB || s.RootLB <= ev.rootLB || s.RootLB != s.TotalNOPs {
		t.Fatalf("the refutation no longer closes this block's proof: optimal=%v Ω=%d root bound %d → %d, stalls %d",
			s.Optimal, s.Stats.OmegaCalls, ev.rootLB, s.RootLB, s.TotalNOPs)
	}
	if allocs > maxFindAllocs {
		t.Fatalf("Find allocated %.0f times over %d Ω-calls, want ≤ %d", allocs, s.Stats.OmegaCalls, maxFindAllocs)
	}
	t.Logf("%.0f allocations, %d Ω-calls, root bound %d → %d", allocs, s.Stats.OmegaCalls, ev.rootLB, s.RootLB)
}

// TestScoreboardRefuteMatchesNoRefute compares a search that refutes its
// root bound with one that never refutes, on random 10–18-tuple
// blocks under scoreboard=8x2, 4x2 and 1x1, sequential and with two
// workers: the refutation may only end proofs sooner, never change a
// stall count or an optimality verdict. It must raise the root bound
// somewhere, or the comparison shows nothing.
func TestScoreboardRefuteMatchesNoRefute(t *testing.T) {
	rng := rand.New(rand.NewSource(22))
	m := machine.SimulationMachine()
	modes := []machine.SchedMode{machine.Scoreboard(8, 2), machine.Scoreboard(4, 2), machine.Scoreboard(1, 1)}
	run := func(refute bool, g *dag.Graph, opts Options, workers int) *Schedule {
		withRefuteRoot(t, refute)
		var s *Schedule
		var err error
		if workers == 0 {
			s, err = Find(g, m, opts)
		} else {
			s, err = FindParallel(g, m, opts, workers)
		}
		if err != nil {
			t.Fatal(err)
		}
		if !g.IsLegalOrder(s.Order) {
			t.Fatalf("illegal order %v", s.Order)
		}
		return s
	}
	blocks, raised := 0, 0
	for blocks < 100 {
		g, err := dag.Build(randomBlock(rng, 10+rng.Intn(9)))
		if err != nil {
			t.Fatal(err)
		}
		blocks++
		for _, mode := range modes {
			opts := Options{Sched: mode, Lambda: 2_000_000, SeedPriority: listsched.ByHeight}
			for _, workers := range []int{0, 2} {
				on, off := run(true, g, opts, workers), run(false, g, opts, workers)
				if on.TotalNOPs != off.TotalNOPs || on.Optimal != off.Optimal || on.RootLB < off.RootLB || on.RootLB > on.TotalNOPs {
					t.Fatalf("block %d %s workers=%d: refuting %d stalls (optimal %v, root %d), never %d (optimal %v, root %d)\n%s",
						blocks, mode, workers, on.TotalNOPs, on.Optimal, on.RootLB, off.TotalNOPs, off.Optimal, off.RootLB, g.Block)
				}
				if on.RootLB > off.RootLB {
					raised++
				}
			}
		}
	}
	if raised == 0 {
		t.Fatalf("the refutation raised no root bound over %d blocks", blocks)
	}
	t.Logf("%d blocks: the refutation raised the root bound in %d runs", blocks, raised)
}

// TestScoreboardRefuteWorkCap: on a 64-tuple block the refutation raises
// the root bound within its overload-test cap, and Find still returns a
// legal schedule; a 128-tuple block spends the whole cap and keeps the
// stall count it refuted before that; an expired context stops the
// refutation at its first test, with the bound unchanged.
func TestScoreboardRefuteWorkCap(t *testing.T) {
	g, err := dag.Build(randomBlock(rand.New(rand.NewSource(18)), 64))
	if err != nil {
		t.Fatal(err)
	}
	m := machine.ExampleMachine()
	opts := Options{Sched: machine.Scoreboard(8, 2), Lambda: 20_000, SeedPriority: listsched.ByHeight}
	s, err := Find(g, m, opts)
	if err != nil {
		t.Fatal(err)
	}
	if len(s.Order) != g.N || !g.IsLegalOrder(s.Order) || s.RootLB > s.TotalNOPs {
		t.Fatalf("Find returned order %v with %d stalls over root bound %d", s.Order, s.TotalNOPs, s.RootLB)
	}
	ev, err := newScoreboardEval(newProblem(g, m, opts))
	if err != nil {
		t.Fatal(err)
	}
	lb := ev.refute(ev.rootLB, s.TotalNOPs+g.N)
	if ev.tests > refuteTests || lb <= ev.rootLB || lb > s.TotalNOPs {
		t.Fatalf("refute ran %d overload tests (cap %d) to bound %d, stalls %d", ev.tests, refuteTests, lb, s.TotalNOPs)
	}
	t.Logf("%d tuples: %d overload tests, root bound %d → %d, %d stalls", g.N, ev.tests, ev.rootLB, lb, s.TotalNOPs)

	big, err := dag.Build(randomBlock(rand.New(rand.NewSource(18)), 128))
	if err != nil {
		t.Fatal(err)
	}
	ev, err = newScoreboardEval(newProblem(big, m, opts))
	if err != nil {
		t.Fatal(err)
	}
	if lb := ev.refute(ev.rootLB, ev.rootLB+big.N); ev.tests != refuteTests || lb <= ev.rootLB {
		t.Fatalf("%d tuples: refute ran %d overload tests (cap %d) to bound %d, root %d", big.N, ev.tests, refuteTests, lb, ev.rootLB)
	}

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	opts.Ctx = ctx
	ev, err = newScoreboardEval(newProblem(g, m, opts))
	if err != nil {
		t.Fatal(err)
	}
	if lb := ev.refute(ev.rootLB, s.TotalNOPs+g.N); lb != ev.rootLB || ev.tests != 0 {
		t.Fatalf("with an expired context refute ran %d overload tests to bound %d, root %d", ev.tests, lb, ev.rootLB)
	}
}
