package core

import (
	"math/rand"
	"testing"

	"pipesched/internal/dag"
	"pipesched/internal/exhaustive"
	"pipesched/internal/machine"
	"pipesched/internal/nopins"
)

// TestBoundsMemoNeverChangeOptimum is the safety property behind the
// whole pruning layer: on every block small enough to enumerate, the
// search with the lower-bound engine and the dominance table enabled
// must report exactly the optimal cost found by the legal-schedule
// enumeration in internal/exhaustive, and exactly the cost of the
// paper-faithful search with both disabled. The root bound must be
// admissible (≤ the optimum) and a completed search must certify
// Gap == 0.
func TestBoundsMemoNeverChangeOptimum(t *testing.T) {
	machines := []*machine.Machine{
		machine.SimulationMachine(),
		machine.ExampleMachine(),
		machine.DeepMachine(),
	}
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 120; trial++ {
		b := randomBlock(rng, 2+rng.Intn(7)) // 2..8 tuples
		g, err := dag.Build(b)
		if err != nil {
			t.Fatal(err)
		}
		m := machines[trial%len(machines)]

		truth := exhaustive.SearchLegal(g, m, 0)
		if !truth.Found {
			t.Fatalf("trial %d: enumeration found no legal schedule", trial)
		}

		pruned, err := Find(g, m, Options{})
		if err != nil {
			t.Fatalf("trial %d: Find(bounds+memo): %v", trial, err)
		}
		plain, err := Find(g, m, Options{DisableLowerBound: true, DisableMemo: true})
		if err != nil {
			t.Fatalf("trial %d: Find(paper-faithful): %v", trial, err)
		}

		if pruned.TotalNOPs != truth.Best.TotalNOPs {
			t.Fatalf("trial %d: bounds+memo cost %d != enumerated optimum %d\nblock: %s",
				trial, pruned.TotalNOPs, truth.Best.TotalNOPs, b)
		}
		if plain.TotalNOPs != pruned.TotalNOPs {
			t.Fatalf("trial %d: paper-faithful cost %d != bounds+memo cost %d\nblock: %s",
				trial, plain.TotalNOPs, pruned.TotalNOPs, b)
		}
		if pruned.RootLB > truth.Best.TotalNOPs {
			t.Fatalf("trial %d: root bound %d exceeds optimum %d (inadmissible)\nblock: %s",
				trial, pruned.RootLB, truth.Best.TotalNOPs, b)
		}
		if !pruned.Optimal || pruned.Gap != 0 {
			t.Fatalf("trial %d: completed search reported optimal=%v gap=%d",
				trial, pruned.Optimal, pruned.Gap)
		}
	}
}

// TestFindParallelMatchesFindWithBounds extends the property to the
// parallel driver: same optimum, admissible root bound, zero gap.
func TestFindParallelMatchesFindWithBounds(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	m := machine.SimulationMachine()
	for trial := 0; trial < 40; trial++ {
		b := randomBlock(rng, 4+rng.Intn(5)) // 4..8 tuples
		g, err := dag.Build(b)
		if err != nil {
			t.Fatal(err)
		}
		serial, err := Find(g, m, Options{})
		if err != nil {
			t.Fatal(err)
		}
		par, err := FindParallel(g, m, Options{}, 4)
		if err != nil {
			t.Fatal(err)
		}
		if par.TotalNOPs != serial.TotalNOPs || par.RootLB != serial.RootLB {
			t.Fatalf("trial %d: parallel (cost %d, lb %d) != serial (cost %d, lb %d)\nblock: %s",
				trial, par.TotalNOPs, par.RootLB, serial.TotalNOPs, serial.RootLB, b)
		}
		if !par.Optimal || par.Gap != 0 {
			t.Fatalf("trial %d: parallel completed search reported optimal=%v gap=%d",
				trial, par.Optimal, par.Gap)
		}
	}
}

// TestFindParallelSeedStatsFoldOnce pins the seed-accounting fix: the
// seed Ω work is charged to the aggregate exactly once, not once per
// worker — with a caller-fixed order it is exactly N calls and one
// schedule, and with the greedy improver it is exactly 2N. Run under
// -race this also exercises the per-worker stats folding for writes
// that cross the WaitGroup barrier.
func TestFindParallelSeedStatsFoldOnce(t *testing.T) {
	g := mustGraph(t, `fold:
  1: Load #a
  2: Load #b
  3: Mul @1, @2
  4: Add @3, @1
  5: Store #c, @4
  6: Load #a
  7: Mul @6, @6
  8: Store #d, @7`)
	m := machine.SimulationMachine()

	order := make([]int, g.N)
	for i := range order {
		order[i] = i
	}
	fixed, err := FindParallel(g, m, Options{InitialOrder: order, DisableLowerBound: true, DisableMemo: true}, 4)
	if err != nil {
		t.Fatal(err)
	}
	if fixed.Stats.SeedOmegaCalls != int64(g.N) {
		t.Errorf("fixed-order seed calls = %d, want %d (charged once, not per worker)",
			fixed.Stats.SeedOmegaCalls, g.N)
	}

	seeded, err := FindParallel(g, m, Options{DisableLowerBound: true, DisableMemo: true}, 4)
	if err != nil {
		t.Fatal(err)
	}
	wantSeed := int64(g.N)
	if seeded.InitialNOPs > 0 {
		wantSeed = 2 * int64(g.N) // greedy improver priced exactly once
	}
	if seeded.Stats.SeedOmegaCalls != wantSeed {
		t.Errorf("seed calls = %d, want %d", seeded.Stats.SeedOmegaCalls, wantSeed)
	}

	// Total Ω accounting stays consistent: every examined schedule was
	// either the seed work or a search placement reaching depth N.
	if seeded.Stats.OmegaCalls < 0 || seeded.Stats.SchedulesExamined < 1 {
		t.Errorf("implausible aggregate stats: %+v", seeded.Stats)
	}
}

// TestSeedCertificateSkipsSearch: when the seed cost equals the root
// bound the search must return immediately — zero search placements —
// and still claim optimality with a zero gap. A pure multiply chain has
// this shape on the simulation machine.
func TestSeedCertificateSkipsSearch(t *testing.T) {
	g := mustGraph(t, `chain:
  1: Load #x
  2: Mul @1, @1
  3: Load #x
  4: Mul @2, @3
  5: Load #x
  6: Mul @4, @5`)
	m := machine.SimulationMachine()
	for name, run := range map[string]func() (*Schedule, error){
		"find":     func() (*Schedule, error) { return Find(g, m, Options{Lambda: 1}) },
		"parallel": func() (*Schedule, error) { return FindParallel(g, m, Options{Lambda: 1}, 4) },
	} {
		sched, err := run()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if !sched.Optimal || sched.Stopped != nil || sched.Gap != 0 {
			t.Errorf("%s: optimal=%v stopped=%v gap=%d, want certified optimal",
				name, sched.Optimal, sched.Stopped, sched.Gap)
		}
		if sched.TotalNOPs != sched.RootLB {
			t.Errorf("%s: certificate requires cost==RootLB, got %d vs %d",
				name, sched.TotalNOPs, sched.RootLB)
		}
		if sched.Stats.OmegaCalls != 0 {
			t.Errorf("%s: certified seed still spent %d search placements",
				name, sched.Stats.OmegaCalls)
		}
	}
}

// TestCurtailedGapPositive: a curtailed search on a loose-bound block
// reports incumbent − RootLB as its certified gap.
func TestCurtailedGapPositive(t *testing.T) {
	g := mustGraph(t, `tangle:
  1: Load #a0
  2: Load #b0
  3: Mul @1, @2
  4: Add @3, @1
  5: Store #z0, @4
  6: Load #a1
  7: Load #b1
  8: Mul @6, @7
  9: Add @8, @6
  10: Store #z1, @9
  11: Load #a2
  12: Load #b2
  13: Mul @11, @12
  14: Add @13, @11
  15: Store #z2, @14`)
	m := machine.SimulationMachine()
	sched, err := Find(g, m, Options{Lambda: 10})
	if err != nil {
		t.Fatal(err)
	}
	if !sched.Stats.Curtailed {
		t.Fatal("λ=10 on a 15-tuple tangle should curtail")
	}
	if want := sched.TotalNOPs - sched.RootLB; sched.Gap != want || sched.Gap <= 0 {
		t.Errorf("gap = %d, want positive incumbent-RootLB = %d", sched.Gap, want)
	}
}

// TestMemoKeysFitRandomEntryStates drives the dominance memo over random
// machines with cross-block entry states — pipelines still busy from the
// previous block and operands arriving late — where residuals are widest.
// The key encoder panics on any residual its layout cannot hold, so a
// pass shows the layout's bound covers every state the search reaches;
// the result must also match the search without the memo.
func TestMemoKeysFitRandomEntryStates(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	var hits int64
	for trial := 0; trial < 150; trial++ {
		m := machine.Random(rng, machine.Params{MaxLatency: 4 + rng.Intn(30)})
		g, err := dag.Build(randomBlock(rng, 4+rng.Intn(9)))
		if err != nil {
			t.Fatal(err)
		}
		start := rng.Intn(40)
		entry := &nopins.EntryState{StartTick: start, PipeLast: make([]int, len(m.Pipelines)), ReadyTick: make([]int, g.N)}
		for s, p := range m.Pipelines {
			if rng.Intn(2) == 0 {
				entry.PipeLast[s] = start - rng.Intn(p.Enqueue+2)
			}
		}
		for v := range entry.ReadyTick {
			entry.ReadyTick[v] = start + rng.Intn(3*m.MaxLatency()) - 5
		}
		opts := Options{Entry: entry, Assign: nopins.AssignMode(trial % 2), AssignSearch: trial%3 == 0}
		memo, err := Find(g, m, opts)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		opts.DisableMemo = true
		plain, err := Find(g, m, opts)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if memo.TotalNOPs != plain.TotalNOPs || !memo.Optimal {
			t.Fatalf("trial %d: memo %d NOPs (optimal %v), without memo %d\nmachine: %v\nblock: %s",
				trial, memo.TotalNOPs, memo.Optimal, plain.TotalNOPs, m, g.Block)
		}
		hits += memo.Stats.MemoHits
	}
	if hits < 100 {
		t.Fatalf("only %d memo hits over all trials: the memo is barely exercised", hits)
	}
}
