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
// optimum, 2, before the search starts, and its window order has 2
// stalls, which proves the block without an Ω-call.
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
// raises the root bound: the refutation, its window order included,
// allocates nothing past the evaluator's set-up, so Find stays within the
// same budget.
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
	var order []int
	if a := testing.AllocsPerRun(10, func() { _, order = ev.refute(ev.rootLB, s.InitialNOPs) }); a != 0 || order == nil {
		t.Fatalf("the refutation allocated %.0f times, window order %v", a, order)
	}
	t.Logf("%.0f allocations, %d Ω-calls, root bound %d → %d", allocs, s.Stats.OmegaCalls, ev.rootLB, s.RootLB)
}

// refuteModes are the scoreboard modes the refutation tests run.
var refuteModes = []machine.SchedMode{machine.Scoreboard(8, 2), machine.Scoreboard(4, 2), machine.Scoreboard(1, 1)}

// findScoreboard runs Find (workers == 0) or FindParallel with the root
// refutation on or off, and checks that the order is legal.
func findScoreboard(t *testing.T, refute bool, g *dag.Graph, m *machine.Machine, opts Options, workers int) *Schedule {
	t.Helper()
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

// TestScoreboardRefuteMatchesNoRefute compares a search that refutes its
// root bound with one that never refutes, on random 10–18-tuple
// blocks under scoreboard=8x2, 4x2 and 1x1, sequential and with two
// workers: the refutation may only end proofs sooner, never change a
// stall count or an optimality verdict. It must raise the root bound
// somewhere, or the comparison shows nothing.
func TestScoreboardRefuteMatchesNoRefute(t *testing.T) {
	rng := rand.New(rand.NewSource(22))
	m := machine.SimulationMachine()
	blocks, raised := 0, 0
	for blocks < 100 {
		g, err := dag.Build(randomBlock(rng, 10+rng.Intn(9)))
		if err != nil {
			t.Fatal(err)
		}
		blocks++
		for _, mode := range refuteModes {
			opts := Options{Sched: mode, Lambda: 2_000_000, SeedPriority: listsched.ByHeight}
			for _, workers := range []int{0, 2} {
				on, off := findScoreboard(t, true, g, m, opts, workers), findScoreboard(t, false, g, m, opts, workers)
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

// TestScoreboardRefuteWorkCap: refute stops at its block's share of
// refuteWork, keeps the stall counts it refuted before that, and offers
// no window order once stopped. A 64-tuple block's share is 512 overload
// tests: one (randomBlock seed 28) raises its root bound 0 → 3 and spends
// them all, which fails if refute drops its refuted counts once the
// budget runs out; another (seed 18), which raised 6 → 8 in 1,504 tests
// under a 2,048-test cap, spends its share with the bound unchanged, and
// Find still returns a legal schedule. A 128-tuple block's share is 128
// tests, one per node, which sharpening its releases uses up. An expired
// context stops the refutation at its first test.
func TestScoreboardRefuteWorkCap(t *testing.T) {
	m := machine.ExampleMachine()
	opts := Options{Sched: machine.Scoreboard(8, 2), Lambda: 20_000, SeedPriority: listsched.ByHeight}
	refute := func(seed int64, tuples int, opts Options) (*dag.Graph, *scoreboardEval, int) {
		t.Helper()
		g, err := dag.Build(randomBlock(rand.New(rand.NewSource(seed)), tuples))
		if err != nil {
			t.Fatal(err)
		}
		ev, err := newScoreboardEval(newProblem(g, m, opts))
		if err != nil {
			t.Fatal(err)
		}
		lb, order := ev.refute(ev.rootLB, ev.rootLB+g.N)
		if order != nil {
			t.Fatalf("seed %d, %d tuples: a refutation stopped after %d of %d tests offered a window order", seed, tuples, ev.tests, ev.maxTests)
		}
		t.Logf("seed %d, %d tuples: %d of %d overload tests, root bound %d → %d", seed, tuples, ev.tests, ev.maxTests, ev.rootLB, lb)
		return g, ev, lb
	}

	if _, ev, lb := refute(28, 64, opts); ev.maxTests != 512 || ev.tests != ev.maxTests || lb != 3 || ev.rootLB != 0 {
		t.Fatalf("refute ran %d overload tests (cap %d) from root bound %d to %d, want all 512 and 0 → 3", ev.tests, ev.maxTests, ev.rootLB, lb)
	}

	g, ev, lb := refute(18, 64, opts)
	if ev.tests != ev.maxTests || lb != ev.rootLB {
		t.Fatalf("refute ran %d overload tests (cap %d) to bound %d, root %d", ev.tests, ev.maxTests, lb, ev.rootLB)
	}
	s, err := Find(g, m, opts)
	if err != nil {
		t.Fatal(err)
	}
	if len(s.Order) != g.N || !g.IsLegalOrder(s.Order) || s.RootLB > s.TotalNOPs {
		t.Fatalf("Find returned order %v with %d stalls over root bound %d", s.Order, s.TotalNOPs, s.RootLB)
	}

	if _, ev, lb := refute(18, 128, opts); ev.maxTests != 128 || ev.tests != ev.maxTests || lb != ev.rootLB {
		t.Fatalf("refute ran %d overload tests (cap %d) to bound %d, root %d", ev.tests, ev.maxTests, lb, ev.rootLB)
	}

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	opts.Ctx = ctx
	if _, ev, lb := refute(28, 64, opts); lb != ev.rootLB || ev.tests != 0 {
		t.Fatalf("with an expired context refute ran %d overload tests to bound %d, root %d", ev.tests, lb, ev.rootLB)
	}
}

// TestScoreboardWindowSeed checks the order the root refutation builds
// from its windows, on random 10–18-tuple blocks under scoreboard=8x2, 4x2
// and 1x1, through Find and FindParallel: it is legal, it prices at or
// above the raised root bound, and the search never returns more stalls.
// Wherever the search that never refutes proves optimal, the refuting one
// proves the same stall count. Some blocks must be proven by the window
// order alone (no Ω-call, fewer stalls than the seed), or the test shows
// nothing.
func TestScoreboardWindowSeed(t *testing.T) {
	rng := rand.New(rand.NewSource(24))
	m := machine.SimulationMachine()
	offered, proven := 0, 0
	for blocks := 0; blocks < 100; blocks++ {
		g, err := dag.Build(randomBlock(rng, 10+rng.Intn(9)))
		if err != nil {
			t.Fatal(err)
		}
		for _, mode := range refuteModes {
			opts := Options{Sched: mode, Lambda: 2_000_000, SeedPriority: listsched.ByHeight}
			ev, err := newScoreboardEval(newProblem(g, m, opts))
			if err != nil {
				t.Fatal(err)
			}
			for _, workers := range []int{0, 2} {
				on, off := findScoreboard(t, true, g, m, opts, workers), findScoreboard(t, false, g, m, opts, workers)
				if off.Optimal && (!on.Optimal || on.TotalNOPs != off.TotalNOPs) {
					t.Fatalf("block %d %s workers=%d: refuting %d stalls (optimal %v), never %d (optimal)\n%s",
						blocks, mode, workers, on.TotalNOPs, on.Optimal, off.TotalNOPs, g.Block)
				}
				if on.InitialNOPs <= ev.rootLB {
					continue // the root bound certifies the seed: no refutation
				}
				lb, order := ev.refute(ev.rootLB, on.InitialNOPs)
				if order == nil {
					continue // the refutation proves the seed
				}
				offered++
				if !g.IsLegalOrder(order) {
					t.Fatalf("block %d %s: illegal window order %v\n%s", blocks, mode, order, g.Block)
				}
				w, err := ev.price(order)
				if err != nil {
					t.Fatal(err)
				}
				if lb != on.RootLB || w.TotalNOPs < lb || on.TotalNOPs > w.TotalNOPs {
					t.Fatalf("block %d %s workers=%d: window order %d stalls, refuted to %d, search %d stalls over root %d\n%s",
						blocks, mode, workers, w.TotalNOPs, lb, on.TotalNOPs, on.RootLB, g.Block)
				}
				if w.TotalNOPs == lb && on.Stats.OmegaCalls == 0 && on.TotalNOPs < on.InitialNOPs {
					proven++
				}
			}
		}
	}
	if proven == 0 {
		t.Fatalf("the window order proved no block over %d offers", offered)
	}
	t.Logf("%d window orders offered, %d proved their block", offered, proven)
}
