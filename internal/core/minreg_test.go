package core

import (
	"context"
	"errors"
	"math/rand"
	"testing"

	"pipesched/internal/bound"
	"pipesched/internal/dag"
	"pipesched/internal/exhaustive"
	"pipesched/internal/machine"
	"pipesched/internal/regalloc"
	"pipesched/internal/sim"
	"pipesched/internal/synth"
)

// randomGraph draws one synthetic block and builds its DAG; blocks whose
// legal-order count exceeds maxOrders are skipped (returns nil) so the
// exhaustive references stay fast. maxOrders <= 0 skips the (itself
// enumerative) count — for tests that only price orders, not enumerate
// them.
func randomGraph(t *testing.T, rng *rand.Rand, maxStatements int, maxOrders int64) *dag.Graph {
	t.Helper()
	b, err := synth.Generate(rng, synth.RandomParams(rng, maxStatements))
	if err != nil {
		t.Fatalf("synth: %v", err)
	}
	g, err := dag.Build(b.IR)
	if err != nil {
		t.Fatalf("dag: %v", err)
	}
	if g.N == 0 {
		return nil
	}
	if maxOrders > 0 && exhaustive.CountLegal(g, maxOrders+1) > maxOrders {
		return nil
	}
	return g
}

// randomLegalOrder draws a uniform-ish random topological order.
func randomLegalOrder(g *dag.Graph, rng *rand.Rand) []int {
	rem := make([]int, g.N)
	for u := 0; u < g.N; u++ {
		rem[u] = len(g.Preds[u])
	}
	var ready []int
	for u := 0; u < g.N; u++ {
		if rem[u] == 0 {
			ready = append(ready, u)
		}
	}
	order := make([]int, 0, g.N)
	for len(ready) > 0 {
		i := rng.Intn(len(ready))
		u := ready[i]
		ready[i] = ready[len(ready)-1]
		ready = ready[:len(ready)-1]
		order = append(order, u)
		for _, d := range g.Succs[u] {
			rem[d.Node]--
			if rem[d.Node] == 0 {
				ready = append(ready, d.Node)
			}
		}
	}
	return order
}

// TestLiveTrackerMatchesRegalloc: the search's incremental live tracker
// must price every complete order exactly as regalloc's interval sweep
// of the permuted block — the contract that makes Schedule.MaxLive
// meaningful.
func TestLiveTrackerMatchesRegalloc(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	checked := 0
	for i := 0; checked < 200 && i < 1000; i++ {
		g := randomGraph(t, rng, 8, 0) // no order cap: only pricing here
		if g == nil {
			continue
		}
		for j := 0; j < 5; j++ {
			order := randomLegalOrder(g, rng)
			nb, err := g.Block.Permute(order)
			if err != nil {
				t.Fatalf("permute: %v", err)
			}
			want := regalloc.Pressure(nb)
			if got := peakOf(g, order); got != want {
				t.Fatalf("block %d order %v: tracker MAXLIVE %d, regalloc %d\n%s",
					i, order, got, want, g.Block)
			}
			checked++
		}
	}
	if checked < 100 {
		t.Fatalf("only %d orders checked — generator too restrictive", checked)
	}
}

// TestLiveTrackerPushPopExact: popping must restore liveNow and peak
// exactly at every depth, not just at the root.
func TestLiveTrackerPushPopExact(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	for i := 0; i < 50; i++ {
		g := randomGraph(t, rng, 7, 20000)
		if g == nil {
			continue
		}
		order := randomLegalOrder(g, rng)
		lt := newLiveTracker(g)
		type snap struct{ live, peak int32 }
		snaps := []snap{{lt.liveNow, lt.peak}}
		for _, u := range order {
			lt.push(u)
			snaps = append(snaps, snap{lt.liveNow, lt.peak})
		}
		for p := len(order) - 1; p >= 0; p-- {
			lt.pop(order[p])
			if lt.liveNow != snaps[p].live || lt.peak != snaps[p].peak {
				t.Fatalf("block %d: pop to depth %d restored (live=%d peak=%d), want (%d %d)",
					i, p, lt.liveNow, lt.peak, snaps[p].live, snaps[p].peak)
			}
		}
	}
}

// TestMinRegLexMatchesExhaustive: the minreg-lex search must return
// exactly the exhaustive reference's lexicographic optimum, and its
// MaxLive must be regalloc's pressure of the emitted order.
func TestMinRegLexMatchesExhaustive(t *testing.T) {
	rng := rand.New(rand.NewSource(47))
	checked := 0
	for i := 0; checked < 60 && i < 600; i++ {
		g := randomGraph(t, rng, 6, 3000)
		if g == nil {
			continue
		}
		m := machine.Random(rng, machine.Params{SingleAssignment: true})
		ref := exhaustive.SearchMinRegLex(context.Background(), g, m, 0)
		if !ref.Found || ref.Exhausted {
			t.Fatalf("block %d: reference did not complete", i)
		}
		sched, err := Find(g, m, Options{Sched: machine.MinRegLex()})
		if err != nil {
			t.Fatalf("block %d: Find: %v\n%s", i, err, g.Block)
		}
		if !sched.Optimal {
			t.Fatalf("block %d: unbudgeted search not optimal", i)
		}
		if sched.TotalNOPs != ref.Best.TotalNOPs || sched.MaxLive != ref.MaxLive {
			t.Fatalf("block %d: search (nops=%d live=%d), reference (nops=%d live=%d)\n%s",
				i, sched.TotalNOPs, sched.MaxLive, ref.Best.TotalNOPs, ref.MaxLive, g.Block)
		}
		nb, err := g.Block.Permute(sched.Order)
		if err != nil {
			t.Fatalf("block %d: emitted order not a permutation: %v", i, err)
		}
		if p := regalloc.Pressure(nb); p != sched.MaxLive {
			t.Fatalf("block %d: MaxLive %d but regalloc prices the order at %d", i, sched.MaxLive, p)
		}
		checked++
	}
	if checked < 30 {
		t.Fatalf("only %d blocks checked", checked)
	}
}

// TestMinRegKMatchesExhaustive sweeps k from below the block's minimum
// pressure to above it: infeasible bounds must yield ErrInfeasible, and
// feasible ones the reference's optimal NOP count under the constraint.
func TestMinRegKMatchesExhaustive(t *testing.T) {
	rng := rand.New(rand.NewSource(53))
	checked := 0
	for i := 0; checked < 25 && i < 400; i++ {
		g := randomGraph(t, rng, 6, 2000)
		if g == nil {
			continue
		}
		m := machine.Random(rng, machine.Params{SingleAssignment: true})
		lex := exhaustive.SearchMinRegLex(context.Background(), g, m, 0)
		if !lex.Found || lex.Exhausted {
			t.Fatalf("block %d: lex reference did not complete", i)
		}
		// Sweep k across the infeasible region (k below the block's
		// minimum pressure, which is ≤ lex.MaxLive) into the feasible one.
		for k := 1; k <= lex.MaxLive+1; k++ {
			ref := exhaustive.SearchMinRegK(context.Background(), g, m, k, 0)
			sched, err := Find(g, m, Options{Sched: machine.MinRegK(k)})
			if !ref.Found {
				if !errors.Is(err, ErrInfeasible) {
					t.Fatalf("block %d k=%d: reference infeasible but Find returned (%v, err=%v)\n%s",
						i, k, sched, err, g.Block)
				}
				continue
			}
			if err != nil {
				t.Fatalf("block %d k=%d: Find: %v\n%s", i, k, err, g.Block)
			}
			if sched.TotalNOPs != ref.Best.TotalNOPs {
				t.Fatalf("block %d k=%d: search %d NOPs, reference %d\n%s",
					i, k, sched.TotalNOPs, ref.Best.TotalNOPs, g.Block)
			}
			if sched.MaxLive > k {
				t.Fatalf("block %d k=%d: emitted MaxLive %d violates the bound", i, k, sched.MaxLive)
			}
			nb, _ := g.Block.Permute(sched.Order)
			if p := regalloc.Pressure(nb); p != sched.MaxLive || p > k {
				t.Fatalf("block %d k=%d: regalloc prices order at %d (claimed %d)", i, k, p, sched.MaxLive)
			}
		}
		// A k no order can exceed (every tuple simultaneously live) must
		// reproduce the paper optimum exactly.
		paper, err := Find(g, m, Options{})
		if err != nil {
			t.Fatalf("block %d: paper Find: %v", i, err)
		}
		loose, err := Find(g, m, Options{Sched: machine.MinRegK(len(g.Block.Tuples) + 1)})
		if err != nil {
			t.Fatalf("block %d: loose-k Find: %v", i, err)
		}
		if loose.TotalNOPs != paper.TotalNOPs {
			t.Fatalf("block %d: k=∞ found %d NOPs, paper mode %d", i, loose.TotalNOPs, paper.TotalNOPs)
		}
		if lex.Best.TotalNOPs != paper.TotalNOPs {
			t.Fatalf("block %d: lex NOP component %d differs from paper optimum %d",
				i, lex.Best.TotalNOPs, paper.TotalNOPs)
		}
		checked++
	}
	if checked < 10 {
		t.Fatalf("only %d blocks checked", checked)
	}
}

// TestMinRegParallelAgrees: FindParallel must land on the same packed
// cost and optimality verdict as Find in every non-paper mode (the
// schedule may differ when several optima exist), and each parallel
// scoreboard schedule must replay through the forward simulator.
func TestMinRegParallelAgrees(t *testing.T) {
	rng := rand.New(rand.NewSource(59))
	checked := 0
	modes := []machine.SchedMode{machine.MinRegLex(), machine.MinRegK(2), machine.Scoreboard(4, 2), machine.Scoreboard(1, 1)}
	for i := 0; checked < 40 && i < 400; i++ {
		g := randomGraph(t, rng, 7, 20000)
		if g == nil {
			continue
		}
		m := machine.Random(rng, machine.Params{SingleAssignment: true})
		for _, mode := range modes {
			seq, seqErr := Find(g, m, Options{Sched: mode})
			par, parErr := FindParallel(g, m, Options{Sched: mode}, 4)
			if (seqErr == nil) != (parErr == nil) {
				t.Fatalf("block %d mode %s: sequential err %v, parallel err %v", i, mode, seqErr, parErr)
			}
			if seqErr != nil {
				if !errors.Is(seqErr, ErrInfeasible) || !errors.Is(parErr, ErrInfeasible) {
					t.Fatalf("block %d mode %s: non-infeasible errors %v / %v", i, mode, seqErr, parErr)
				}
				continue
			}
			if seq.TotalNOPs != par.TotalNOPs || seq.MaxLive != par.MaxLive || seq.Optimal != par.Optimal {
				t.Fatalf("block %d mode %s: sequential (nops=%d live=%d optimal=%v), parallel (nops=%d live=%d optimal=%v)",
					i, mode, seq.TotalNOPs, seq.MaxLive, seq.Optimal, par.TotalNOPs, par.MaxLive, par.Optimal)
			}
			if mode.Kind == machine.SchedScoreboard {
				if err := sim.VerifyScoreboard(sim.ScoreboardInput{
					Input:  sim.Input{Graph: g, M: m, Order: par.Order, Pipes: par.Pipes},
					Window: mode.Window,
					Width:  mode.Width,
				}, par.IssueTicks, par.TotalNOPs); err != nil {
					t.Fatalf("block %d mode %s: parallel schedule fails verification: %v", i, mode, err)
				}
			}
		}
		checked++
	}
}

// TestPressureFloorAdmissible: the static floor must never exceed the
// true minimum MAXLIVE over all legal orders.
func TestPressureFloorAdmissible(t *testing.T) {
	rng := rand.New(rand.NewSource(61))
	checked := 0
	for i := 0; checked < 40 && i < 400; i++ {
		g := randomGraph(t, rng, 6, 2000)
		if g == nil {
			continue
		}
		// Minimum achievable pressure: brute force over all legal orders.
		best := -1
		rem := make([]int, g.N)
		scheduled := make([]bool, g.N)
		for u := 0; u < g.N; u++ {
			rem[u] = len(g.Preds[u])
		}
		order := make([]int, 0, g.N)
		var rec func()
		rec = func() {
			if len(order) == g.N {
				nb, _ := g.Block.Permute(order)
				if p := regalloc.Pressure(nb); best < 0 || p < best {
					best = p
				}
				return
			}
			for u := 0; u < g.N; u++ {
				if scheduled[u] || rem[u] != 0 {
					continue
				}
				scheduled[u] = true
				for _, d := range g.Succs[u] {
					rem[d.Node]--
				}
				order = append(order, u)
				rec()
				order = order[:len(order)-1]
				for _, d := range g.Succs[u] {
					rem[d.Node]++
				}
				scheduled[u] = false
			}
		}
		rec()
		if floor := bound.PressureFloor(g); floor > best {
			t.Fatalf("block %d: PressureFloor %d exceeds true minimum MAXLIVE %d\n%s",
				i, floor, best, g.Block)
		}
		checked++
	}
}
