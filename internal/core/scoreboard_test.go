package core

import (
	"context"
	"errors"
	"math/rand"
	"testing"

	"pipesched/internal/exhaustive"
	"pipesched/internal/machine"
	"pipesched/internal/nopins"
	"pipesched/internal/sim"
)

// sbGeometries is the (window, width) grid the differential tests sweep.
var sbGeometries = [][2]int{{1, 1}, {2, 1}, {1, 2}, {4, 2}, {8, 2}, {3, 3}}

// TestScoreboardIncrementalMatchesSimulator: the search's incremental
// tick model must price every complete order exactly as the independent
// tick-by-tick forward simulation — the claim that makes Push/Pop an
// exact evaluation step.
func TestScoreboardIncrementalMatchesSimulator(t *testing.T) {
	rng := rand.New(rand.NewSource(67))
	checked := 0
	for i := 0; checked < 150 && i < 1000; i++ {
		g := randomGraph(t, rng, 8, 0)
		if g == nil {
			continue
		}
		m := machine.Random(rng, machine.Params{SingleAssignment: true})
		geo := sbGeometries[rng.Intn(len(sbGeometries))]
		opts := Options{Sched: machine.Scoreboard(geo[0], geo[1])}
		ev, err := newScoreboardEval(newProblem(g, m, opts))
		if err != nil {
			t.Fatal(err)
		}
		for j := 0; j < 4; j++ {
			order := randomLegalOrder(g, rng)
			priced, _ := ev.price(order)
			ticks, maxTick := priced.IssueTicks, priced.Ticks
			tr, err := sim.RunScoreboard(sim.ScoreboardInput{
				Input:  sim.Input{Graph: g, M: m, Order: order, Pipes: priced.Pipes},
				Window: geo[0],
				Width:  geo[1],
			})
			if err != nil {
				t.Fatalf("block %d: simulator: %v", i, err)
			}
			for p := range ticks {
				if ticks[p] != tr.IssueTick[p] {
					t.Fatalf("block %d W=%d I=%d order %v: incremental tick[%d]=%d, simulator %d\n%s",
						i, geo[0], geo[1], order, p, ticks[p], tr.IssueTick[p], g.Block)
				}
			}
			if maxTick != tr.TotalTicks {
				t.Fatalf("block %d: incremental makespan %d, simulator %d", i, maxTick, tr.TotalTicks)
			}
			checked++
		}
	}
	if checked < 80 {
		t.Fatalf("only %d orders checked", checked)
	}
}

// TestScoreboardMatchesExhaustive: the scoreboard search must return the
// exhaustive reference's minimum stall count, and its claimed issue
// ticks must survive the forward simulator.
func TestScoreboardMatchesExhaustive(t *testing.T) {
	rng := rand.New(rand.NewSource(71))
	checked := 0
	for i := 0; checked < 50 && i < 600; i++ {
		g := randomGraph(t, rng, 6, 2500)
		if g == nil {
			continue
		}
		m := machine.Random(rng, machine.Params{SingleAssignment: true})
		geo := sbGeometries[rng.Intn(len(sbGeometries))]
		mode := machine.Scoreboard(geo[0], geo[1])
		ref := exhaustive.SearchScoreboard(context.Background(), g, m, geo[0], geo[1], 0)
		if !ref.Found || ref.Exhausted {
			t.Fatalf("block %d: reference did not complete", i)
		}
		sched, err := Find(g, m, Options{Sched: mode})
		if err != nil {
			t.Fatalf("block %d: Find: %v\n%s", i, err, g.Block)
		}
		if !sched.Optimal {
			t.Fatalf("block %d: unbudgeted search not optimal", i)
		}
		if sched.TotalNOPs != ref.Stalls {
			t.Fatalf("block %d W=%d I=%d: search %d stalls, reference %d\n%s",
				i, geo[0], geo[1], sched.TotalNOPs, ref.Stalls, g.Block)
		}
		pipes := sched.Pipes
		if err := sim.VerifyScoreboard(sim.ScoreboardInput{
			Input:  sim.Input{Graph: g, M: m, Order: sched.Order, Pipes: pipes},
			Window: geo[0],
			Width:  geo[1],
		}, sched.IssueTicks, sched.TotalNOPs); err != nil {
			t.Fatalf("block %d: emitted schedule fails verification: %v\n%s", i, err, g.Block)
		}
		for _, eta := range sched.Eta {
			if eta != 0 {
				t.Fatalf("block %d: scoreboard mode emitted NOP padding %v", i, sched.Eta)
			}
		}
		// FindParallel runs the same search fanned out; its cost must agree.
		par, err := FindParallel(g, m, Options{Sched: mode}, 4)
		if err != nil || par.TotalNOPs != sched.TotalNOPs {
			t.Fatalf("block %d: parallel scoreboard (stalls=%d, err=%v) vs sequential %d",
				i, par.TotalNOPs, err, sched.TotalNOPs)
		}
		checked++
	}
	if checked < 25 {
		t.Fatalf("only %d blocks checked", checked)
	}
}

// TestScoreboardDegeneratesToPaper: a 1-entry window with single issue
// is the paper's in-order machine — the optimal stall count must equal
// the paper mode's optimal NOP count on every block.
func TestScoreboardDegeneratesToPaper(t *testing.T) {
	rng := rand.New(rand.NewSource(73))
	checked := 0
	for i := 0; checked < 60 && i < 600; i++ {
		g := randomGraph(t, rng, 7, 20000)
		if g == nil {
			continue
		}
		m := machine.Random(rng, machine.Params{SingleAssignment: true})
		paper, err := Find(g, m, Options{})
		if err != nil {
			t.Fatalf("block %d: paper Find: %v", i, err)
		}
		sb, err := Find(g, m, Options{Sched: machine.Scoreboard(1, 1)})
		if err != nil {
			t.Fatalf("block %d: scoreboard Find: %v", i, err)
		}
		if sb.TotalNOPs != paper.TotalNOPs {
			t.Fatalf("block %d: 1x1 scoreboard %d stalls, paper optimum %d NOPs\n%s",
				i, sb.TotalNOPs, paper.TotalNOPs, g.Block)
		}
		checked++
	}
	if checked < 30 {
		t.Fatalf("only %d blocks checked", checked)
	}
}

// TestScoreboardUnsupportedOptions: the unsupported option combinations
// must fail with the typed sentinel, not silently mis-schedule.
func TestScoreboardUnsupportedOptions(t *testing.T) {
	g := fig3Graph(t)
	m := machine.SimulationMachine()
	mode := machine.Scoreboard(4, 2)
	cases := []Options{
		{Sched: mode, Entry: &nopins.EntryState{StartTick: 3}},
		{Sched: mode, Assign: nopins.AssignGreedy},
		{Sched: mode, AssignSearch: true},
	}
	for i, opts := range cases {
		if _, err := Find(g, m, opts); !errors.Is(err, ErrScoreboardOption) {
			t.Fatalf("case %d: got %v, want ErrScoreboardOption", i, err)
		}
		if _, err := FindParallel(g, m, opts, 2); !errors.Is(err, ErrScoreboardOption) {
			t.Fatalf("case %d (parallel): got %v, want ErrScoreboardOption", i, err)
		}
	}
}

// TestScoreboardBudget: a curtailed scoreboard search still returns its
// incumbent with Stopped/Gap set, like the paper mode.
func TestScoreboardBudget(t *testing.T) {
	rng := rand.New(rand.NewSource(79))
	for i := 0; i < 50; i++ {
		g := randomGraph(t, rng, 8, 0)
		if g == nil {
			continue
		}
		m := machine.Random(rng, machine.Params{SingleAssignment: true})
		sched, err := Find(g, m, Options{Sched: machine.Scoreboard(4, 2), Lambda: 3})
		if err != nil {
			t.Fatalf("block %d: %v", i, err)
		}
		if len(sched.Order) != g.N {
			t.Fatalf("block %d: curtailed search returned incomplete order", i)
		}
		if sched.Stats.Curtailed && (sched.Optimal || !errors.Is(sched.Stopped, ErrBudget)) {
			t.Fatalf("block %d: curtailed result claims Optimal=%v Stopped=%v", i, sched.Optimal, sched.Stopped)
		}
	}
}
