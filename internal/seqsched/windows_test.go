package seqsched

import (
	"math/rand"
	"testing"
	"testing/quick"

	"pipesched/internal/core"
	"pipesched/internal/dag"
	"pipesched/internal/ir"
	"pipesched/internal/machine"
	"pipesched/internal/nopins"
	"pipesched/internal/sim"
	"pipesched/internal/synth"
)

func randomGraph(t testing.TB, seed int64, statements int) *dag.Graph {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	b, err := synth.Generate(rng, synth.Params{Statements: statements, Variables: 8, Constants: 6})
	if err != nil {
		t.Fatal(err)
	}
	g, err := dag.Build(b.IR)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func TestEmptyBlock(t *testing.T) {
	b := ir.NewBlock("empty")
	g, err := dag.Build(b)
	if err != nil {
		t.Fatal(err)
	}
	r, windows, _, err := Windows(g, machine.SimulationMachine(), 0, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Order) != 0 || r.TotalNOPs != 0 || windows != 0 {
		t.Errorf("empty: %+v", r)
	}
}

func TestSingleWindowMatchesWholeBlockSearch(t *testing.T) {
	// When the window covers the whole block Windows must return
	// exactly the optimal whole-block result.
	m := machine.SimulationMachine()
	for seed := int64(0); seed < 10; seed++ {
		g := randomGraph(t, seed, 5)
		whole, err := core.Find(g, m, core.Options{Lambda: 200000})
		if err != nil {
			t.Fatal(err)
		}
		split, windows, _, err := Windows(g, m, g.N+1, core.Options{Lambda: 200000})
		if err != nil {
			t.Fatal(err)
		}
		if windows != 1 {
			t.Fatalf("seed %d: %d windows, want 1", seed, windows)
		}
		if split.TotalNOPs != whole.TotalNOPs {
			t.Errorf("seed %d: splitter %d NOPs, whole-block %d", seed, split.TotalNOPs, whole.TotalNOPs)
		}
	}
}

func TestSplitScheduleIsHazardFree(t *testing.T) {
	// The decisive correctness test: simulate the spliced schedule on the
	// PARENT graph under NOP padding; the simulator independently checks
	// every latency and enqueue constraint, including the cross-window
	// ones that only hold if EntryState threading works.
	m := machine.SimulationMachine()
	for seed := int64(0); seed < 20; seed++ {
		g := randomGraph(t, seed, 14) // ~35-40 tuples, several windows
		for _, window := range []int{1, 3, 7, 20} {
			r, _, _, err := Windows(g, m, window, core.Options{Lambda: 100000})
			if err != nil {
				t.Fatalf("seed %d window %d: %v", seed, window, err)
			}
			if !g.IsLegalOrder(r.Order) {
				t.Fatalf("seed %d window %d: illegal order", seed, window)
			}
			tr, err := sim.Run(sim.Input{
				Graph: g, M: m, Order: r.Order, Eta: r.Eta, Pipes: r.Pipes,
			}, sim.NOPPadding)
			if err != nil {
				t.Fatalf("seed %d window %d: hazard: %v", seed, window, err)
			}
			if tr.TotalTicks != r.Ticks {
				t.Errorf("seed %d window %d: sim %d ticks, splitter %d",
					seed, window, tr.TotalTicks, r.Ticks)
			}
			if tr.Delays != r.TotalNOPs {
				t.Errorf("seed %d window %d: sim %d delays, splitter %d NOPs",
					seed, window, tr.Delays, r.TotalNOPs)
			}
		}
	}
}

func TestCrossBoundaryConflictRespected(t *testing.T) {
	// Two back-to-back multiplies (enqueue time 2) with window=1: the
	// enqueue constraint crosses the window boundary and must cost a NOP.
	b, err := ir.ParseBlock(`m:
  1: Mul 2, 3
  2: Mul 4, 5`)
	if err != nil {
		t.Fatal(err)
	}
	g, err := dag.Build(b)
	if err != nil {
		t.Fatal(err)
	}
	m := machine.SimulationMachine()
	r, _, _, err := Windows(g, m, 1, core.Options{Lambda: 100000})
	if err != nil {
		t.Fatal(err)
	}
	if r.TotalNOPs != 1 {
		t.Errorf("cross-boundary conflict: %d NOPs, want 1 (eta %v)", r.TotalNOPs, r.Eta)
	}
}

func TestCrossBoundaryLatencyRespected(t *testing.T) {
	// A Load feeding a Neg with window=1: the latency crosses the
	// boundary and must appear as a ready-tick delay.
	b, err := ir.ParseBlock(`l:
  1: Load #a
  2: Neg @1
  3: Store #a, @2`)
	if err != nil {
		t.Fatal(err)
	}
	g, err := dag.Build(b)
	if err != nil {
		t.Fatal(err)
	}
	m := machine.SimulationMachine()
	r, _, _, err := Windows(g, m, 1, core.Options{Lambda: 100000})
	if err != nil {
		t.Fatal(err)
	}
	// Load t1, Neg needs t>=3 (1 NOP), Store needs Neg+2 => t>=5 (1 NOP).
	if r.TotalNOPs != 2 || r.Ticks != 5 {
		t.Errorf("NOPs=%d ticks=%d (eta %v), want 2 and 5", r.TotalNOPs, r.Ticks, r.Eta)
	}
}

func TestSplitterNeverBeatsWholeBlockProperty(t *testing.T) {
	// Locally-optimal windows cannot beat the globally optimal schedule.
	m := machine.SimulationMachine()
	f := func(seed int64) bool {
		g := randomGraph(t, seed, 4)
		whole, err := core.Find(g, m, core.Options{Lambda: 500000})
		if err != nil || !whole.Optimal {
			return false
		}
		split, _, _, err := Windows(g, m, 4, core.Options{Lambda: 100000})
		if err != nil {
			return false
		}
		return split.TotalNOPs >= whole.TotalNOPs
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

func TestWindowAccounting(t *testing.T) {
	g := randomGraph(t, 3, 12)
	r, windows, optimal, err := Windows(g, machine.SimulationMachine(), 10, core.Options{Lambda: 100000})
	if err != nil {
		t.Fatal(err)
	}
	wantWindows := (g.N + 9) / 10
	if windows != wantWindows {
		t.Errorf("Windows = %d, want %d", windows, wantWindows)
	}
	if optimal > windows {
		t.Error("OptimalWindows exceeds Windows")
	}
	if len(r.Order) != g.N || len(r.Eta) != g.N || len(r.Pipes) != g.N {
		t.Error("result slices have wrong length")
	}
}

func TestDeterminism(t *testing.T) {
	g := randomGraph(t, 5, 15)
	m := machine.SimulationMachine()
	a, _, _, err := Windows(g, m, 8, core.Options{Lambda: 100000})
	if err != nil {
		t.Fatal(err)
	}
	b, _, _, err := Windows(g, m, 8, core.Options{Lambda: 100000})
	if err != nil {
		t.Fatal(err)
	}
	for i := range a.Order {
		if a.Order[i] != b.Order[i] || a.Eta[i] != b.Eta[i] {
			t.Fatalf("nondeterministic at position %d", i)
		}
	}
}

// TestSplitterScalesToHugeBlocks: a block far beyond whole-block search
// reach schedules quickly and verifiably.
func TestSplitterScalesToHugeBlocks(t *testing.T) {
	g := randomGraph(t, 11, 120) // several hundred tuples
	m := machine.SimulationMachine()
	r, windows, _, err := Windows(g, m, 20, core.Options{Lambda: 20000})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sim.Run(sim.Input{
		Graph: g, M: m, Order: r.Order, Eta: r.Eta, Pipes: r.Pipes,
	}, sim.NOPPadding); err != nil {
		t.Fatalf("huge block hazard: %v", err)
	}
	if windows < 10 {
		t.Errorf("expected many windows, got %d (N=%d)", windows, g.N)
	}
}

// TestWindowsStartFromEntry: the first window starts from opts.Entry —
// its clock, its pipeline reservations and its ready ticks, which index
// the whole block's nodes.
func TestWindowsStartFromEntry(t *testing.T) {
	b, err := ir.ParseBlock(`e:
  1: Mul 2, 3
  2: Load #a
  3: Store #b, @2`)
	if err != nil {
		t.Fatal(err)
	}
	g, err := dag.Build(b)
	if err != nil {
		t.Fatal(err)
	}
	m := machine.SimulationMachine()
	entry := &nopins.EntryState{StartTick: 4, PipeLast: make([]int, len(m.Pipelines)), ReadyTick: []int{0, 9, 0}}
	entry.PipeLast[m.PipelineIndex(m.PipelineFor(ir.Mul))] = 4
	r, _, _, err := Windows(g, m, 1, core.Options{Lambda: 1000, Entry: entry})
	if err != nil {
		t.Fatal(err)
	}
	// The list schedule runs Load, Mul, Store or Mul, Load, Store; either
	// way the Mul waits for tick 6 and the Load for tick 9, and the Store
	// issues two ticks after the Load.
	if r.Ticks != 11 {
		t.Errorf("ticks=%d (order %v eta %v), want 11", r.Ticks, r.Order, r.Eta)
	}
	if _, err := sim.Run(sim.Input{Graph: g, M: m, Order: r.Order, Eta: r.Eta, Pipes: r.Pipes}, sim.NOPPadding); err != nil {
		t.Fatalf("hazard: %v", err)
	}
}
