package bound_test

import (
	"math"
	"math/rand"
	"testing"

	"pipesched/internal/bound"
	"pipesched/internal/dag"
	"pipesched/internal/ir"
	"pipesched/internal/machine"
	"pipesched/internal/nopins"
	"pipesched/internal/synth"
)

func mustGraph(t *testing.T, src string) *dag.Graph {
	t.Helper()
	b, err := ir.ParseBlock(src)
	if err != nil {
		t.Fatal(err)
	}
	g, err := dag.Build(b)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// bruteOptimal enumerates every legal schedule under the given assignment
// mode and entry state, returning the minimum NOP count and one optimal
// order — the ground truth every bound must stay below.
func bruteOptimal(g *dag.Graph, m *machine.Machine, mode nopins.AssignMode, entry *nopins.EntryState) (int, []int) {
	e := nopins.NewEvaluator(g, m, mode)
	if entry != nil {
		e.SetEntryState(entry)
	}
	best := int(^uint(0) >> 1)
	var bestOrder []int
	var rec func(depth int)
	rec = func(depth int) {
		if depth == g.N {
			if e.TotalNOPs() < best {
				best = e.TotalNOPs()
				bestOrder = make([]int, g.N)
				for i := 0; i < g.N; i++ {
					bestOrder[i] = e.NodeAt(i)
				}
			}
			return
		}
		for u := 0; u < g.N; u++ {
			if e.Scheduled(u) || !e.Ready(u) {
				continue
			}
			for _, pipe := range e.PipeChoices(u) {
				e.PushWithPipe(u, pipe)
				rec(depth + 1)
				e.Pop()
				if mode == nopins.AssignFixed {
					break
				}
			}
		}
	}
	rec(0)
	return best, bestOrder
}

func smallBlocks(t *testing.T, seed int64, count, maxTuples int) []*dag.Graph {
	return randomBlocks(t, seed, count, 4, 1, maxTuples)
}

// randomBlocks draws count synth blocks of up to maxStatements source
// statements whose tuple count lies in [minTuples, maxTuples].
func randomBlocks(t *testing.T, seed int64, count, maxStatements, minTuples, maxTuples int) []*dag.Graph {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	var out []*dag.Graph
	for len(out) < count {
		p := synth.RandomParams(rng, maxStatements)
		blk, err := synth.Generate(rng, p)
		if err != nil {
			t.Fatal(err)
		}
		g, err := dag.Build(blk.IR)
		if err != nil {
			t.Fatal(err)
		}
		if g.N < minTuples || g.N > maxTuples {
			continue
		}
		out = append(out, g)
	}
	return out
}

func cfgFor(mode nopins.AssignMode) bound.Config {
	return bound.Config{FixedAssign: mode == nopins.AssignFixed}
}

// TestRootAdmissible: the root bound never exceeds the true optimum, on
// random small blocks across machines and assignment modes.
func TestRootAdmissible(t *testing.T) {
	machines := []*machine.Machine{
		machine.SimulationMachine(),
		machine.ExampleMachine(),
		machine.UnpipelinedMachine(),
		machine.DeepMachine(),
	}
	modes := []nopins.AssignMode{nopins.AssignFixed, nopins.AssignGreedy}
	for _, g := range smallBlocks(t, 1, 40, 7) {
		for _, m := range machines {
			for _, mode := range modes {
				opt, _ := bruteOptimal(g, m, mode, nil)
				eng := bound.New(g, m, cfgFor(mode), nil)
				if eng.Root() > opt {
					t.Fatalf("machine %s mode %v block %s: root LB %d > optimal %d",
						m.Name, mode, g.Block.Label, eng.Root(), opt)
				}
			}
		}
	}
}

// TestLowerAdmissibleAlongOptimum: replaying one optimal schedule through
// the engine, the incremental bound at every prefix stays at or below the
// optimal cost — the engine never rejects the state that leads there.
func TestLowerAdmissibleAlongOptimum(t *testing.T) {
	machines := []*machine.Machine{
		machine.SimulationMachine(),
		machine.ExampleMachine(),
		machine.DeepMachine(),
	}
	for _, g := range smallBlocks(t, 2, 30, 7) {
		for _, m := range machines {
			for _, mode := range []nopins.AssignMode{nopins.AssignFixed, nopins.AssignGreedy} {
				opt, order := bruteOptimal(g, m, mode, nil)
				eval := nopins.NewEvaluator(g, m, mode)
				res, err := eval.EvaluateOrder(order)
				if err != nil {
					t.Fatal(err)
				}
				if res.TotalNOPs != opt {
					t.Fatalf("replay cost %d != optimal %d", res.TotalNOPs, opt)
				}
				// EvaluateOrder leaves the evaluator holding the schedule,
				// so its per-position pipes and issue ticks drive the
				// engine; the bound must stay under THIS completion's cost
				// (res.TotalNOPs, >= opt under greedy pipe choices).
				eng := bound.New(g, m, cfgFor(mode), nil)
				for i := 0; i < g.N; i++ {
					issue := eval.IssueAt(i)
					eng.Push(eval.NodeAt(i), eval.PipeAt(i), issue)
					cp, rb := eng.Lower(issue)
					lb := cp
					if rb > lb {
						lb = rb
					}
					if lb > res.TotalNOPs {
						t.Fatalf("machine %s mode %v prefix %d/%d: LB %d (cp=%d res=%d) > completion cost %d",
							m.Name, mode, i+1, g.N, lb, cp, rb, res.TotalNOPs)
					}
				}
			}
		}
	}
}

// randomEntry draws a warm entry state for g on m: a shifted start tick,
// some pipelines still busy from before the block, and some nodes waiting
// on values from outside it.
func randomEntry(rng *rand.Rand, g *dag.Graph, m *machine.Machine) *nopins.EntryState {
	entry := &nopins.EntryState{
		StartTick: rng.Intn(6),
		PipeLast:  make([]int, len(m.Pipelines)),
		ReadyTick: make([]int, g.N),
	}
	for s := range m.Pipelines {
		if rng.Intn(2) == 0 {
			entry.PipeLast[s] = entry.StartTick + rng.Intn(3)
		}
	}
	for v := range entry.ReadyTick {
		if rng.Intn(3) == 0 {
			entry.ReadyTick[v] = entry.StartTick + 1 + rng.Intn(4)
		}
	}
	return entry
}

// TestBoundsAdmissibleEveryPrefix: at every legal prefix of random blocks
// of at most 8 tuples, each bound component stays at or below the cheapest
// completion of that prefix, found by exhaustive enumeration — Root at
// the empty prefix, Lower's cp and res after every placement. It covers
// the simulation, example and deep machines, AssignFixed and AssignGreedy
// (enumerating every pipeline of a multi-pipeline op, so the bounds must
// hold under assignment search too) and cold and random warm entry
// states. It also counts where each component is exact, so a bound that
// went slack everywhere fails too.
func TestBoundsAdmissibleEveryPrefix(t *testing.T) {
	machines := []*machine.Machine{
		machine.SimulationMachine(),
		machine.ExampleMachine(),
		machine.DeepMachine(),
	}
	rng := rand.New(rand.NewSource(5))
	prefixes, exactCP, exactRes, exactRoot, runs := 0, 0, 0, 0, 0
	for bi, g := range randomBlocks(t, 5, 200, 6, 5, 8) {
		for _, m := range machines {
			for _, mode := range []nopins.AssignMode{nopins.AssignFixed, nopins.AssignGreedy} {
				var entry *nopins.EntryState
				if bi%2 == 1 {
					entry = randomEntry(rng, g, m)
				}
				eval := nopins.NewEvaluator(g, m, mode)
				eval.SetEntryState(entry)
				eng := bound.New(g, m, cfgFor(mode), entry)
				// least returns the cheapest completion of the current
				// prefix, checking Lower after every placement below it.
				var least func() int
				least = func() int {
					if eval.Len() == g.N {
						return eval.TotalNOPs()
					}
					lo := math.MaxInt
					for u := 0; u < g.N; u++ {
						if eval.Scheduled(u) || !eval.Ready(u) {
							continue
						}
						for _, pipe := range eval.PipeChoices(u) {
							eval.PushWithPipe(u, pipe)
							pos := eval.Len() - 1
							eng.Push(u, eval.PipeAt(pos), eval.IssueAt(pos))
							cp, res := eng.Lower(eval.IssueAt(pos))
							sub := least()
							if cp > sub || res > sub {
								t.Fatalf("block %d machine %s mode %v entry %+v prefix %v: cp=%d res=%d, best completion %d\n%s",
									bi, m.Name, mode, entry, eval.Snapshot().Order, cp, res, sub, g.Block)
							}
							if eval.Len() < g.N {
								prefixes++
								if sub > 0 && cp == sub {
									exactCP++
								}
								if sub > 0 && res == sub {
									exactRes++
								}
							}
							eng.Pop(u)
							eval.Pop()
							lo = min(lo, sub)
							if mode == nopins.AssignFixed {
								break
							}
						}
					}
					return lo
				}
				opt := least()
				if eng.Root() > opt {
					t.Fatalf("block %d machine %s mode %v entry %+v: root %d > optimal %d\n%s",
						bi, m.Name, mode, entry, eng.Root(), opt, g.Block)
				}
				if opt > 0 && eng.Root() == opt {
					exactRoot++
				}
				runs++
			}
		}
	}
	if exactCP < 200_000 || exactRes < 100_000 || exactRoot < 500 {
		t.Fatalf("over %d prefixes cp exact %d times, res %d; root exact on %d of %d runs",
			prefixes, exactCP, exactRes, exactRoot, runs)
	}
	t.Logf("%d prefixes: cp exact %d times, res %d; root exact on %d of %d runs",
		prefixes, exactCP, exactRes, exactRoot, runs)
}

// TestPushPopRestoresRoot: pushing a full schedule and popping it back
// must restore the engine to its initial state bit-for-bit (the search
// leans on this invariant millions of times per block).
func TestPushPopRestoresRoot(t *testing.T) {
	m := machine.SimulationMachine()
	for _, g := range smallBlocks(t, 3, 20, 8) {
		eval := nopins.NewEvaluator(g, m, nopins.AssignFixed)
		eng := bound.New(g, m, bound.Config{FixedAssign: true}, nil)
		cp0, res0 := eng.Lower(0)
		// Any legal order: program order is topological.
		for u := 0; u < g.N; u++ {
			eval.Push(u)
			eng.Push(u, eval.PipeAt(u), eval.IssueAt(u))
		}
		for u := g.N - 1; u >= 0; u-- {
			eval.Pop()
			eng.Pop(u)
		}
		cp1, res1 := eng.Lower(0)
		if cp0 != cp1 || res0 != res1 {
			t.Fatalf("block %s: push/pop did not restore: (%d,%d) -> (%d,%d)",
				g.Block.Label, cp0, res0, cp1, res1)
		}
	}
}

// TestRootAdmissibleWithEntryState: admissibility must survive warm entry
// states (busy pipelines, in-flight producers, shifted start tick).
func TestRootAdmissibleWithEntryState(t *testing.T) {
	m := machine.SimulationMachine()
	rng := rand.New(rand.NewSource(4))
	for _, g := range smallBlocks(t, 4, 25, 6) {
		entry := randomEntry(rng, g, m)
		opt, _ := bruteOptimal(g, m, nopins.AssignFixed, entry)
		eng := bound.New(g, m, cfgFor(nopins.AssignFixed), entry)
		if eng.Root() > opt {
			t.Fatalf("block %s entry %+v: root LB %d > optimal %d",
				g.Block.Label, entry, eng.Root(), opt)
		}
	}
}

// TestRootOnChain: hand-checkable anchor for the DESIGN.md §11
// derivation. The chain's longest latency-weighted path (load 2, mul 4,
// add 2) gives issue floor 1 + 8 = 9 → LB 4. Both loads are released at
// tick 1 onto the one loader, so the later of them issues at tick 2 or
// later with the same 8-tick chain below it: the release-date sweep
// raises the floor to 10 → LB 5, the brute-force optimum, so here the
// root is exact.
func TestRootOnChain(t *testing.T) {
	g := mustGraph(t, `chain:
  1: Load #a
  2: Load #b
  3: Mul @1, @2
  4: Add @3, @1
  5: Store #c, @4
`)
	m := machine.SimulationMachine()
	opt, _ := bruteOptimal(g, m, nopins.AssignFixed, nil)
	if opt != 5 {
		t.Fatalf("chain: optimal %d, want 5", opt)
	}
	eng := bound.New(g, m, bound.Config{FixedAssign: true}, nil)
	if eng.Root() != 5 {
		t.Fatalf("chain: root LB %d, want 5 (second load at tick 2 + 8-tick chain - 5 issues)", eng.Root())
	}
}

// TestResourceBoundDominates: many independent ops forced onto one
// slow-enqueue pipeline make the occupancy bound the binding one.
func TestResourceBoundDominates(t *testing.T) {
	g := mustGraph(t, `mulburst:
  1: Load #a
  2: Mul @1, @1
  3: Mul @1, @1
  4: Mul @1, @1
  5: Mul @1, @1
`)
	m := machine.SimulationMachine() // multiplier enqueue 2
	opt, _ := bruteOptimal(g, m, nopins.AssignFixed, nil)
	eng := bound.New(g, m, bound.Config{FixedAssign: true}, nil)
	if eng.Root() > opt {
		t.Fatalf("mulburst: root LB %d > optimal %d", eng.Root(), opt)
	}
	// Four Muls spaced 2 apart on one pipe: the schedule cannot be
	// NOP-free, and the occupancy argument alone proves it.
	if eng.Root() == 0 {
		t.Fatalf("mulburst: root LB 0; resource bound failed to fire (optimal %d)", opt)
	}
}
