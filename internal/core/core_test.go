package core

import (
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"

	"pipesched/internal/dag"
	"pipesched/internal/gross"
	"pipesched/internal/ir"
	"pipesched/internal/listsched"
	"pipesched/internal/machine"
	"pipesched/internal/nopins"
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

// bruteForceOptimum enumerates every legal schedule and returns the
// minimum NOP count — the ground truth the search must match.
func bruteForceOptimum(g *dag.Graph, m *machine.Machine, mode nopins.AssignMode) int {
	e := nopins.NewEvaluator(g, m, mode)
	best := int(^uint(0) >> 1)
	var rec func(depth int)
	rec = func(depth int) {
		if depth == g.N {
			if e.TotalNOPs() < best {
				best = e.TotalNOPs()
			}
			return
		}
		for u := 0; u < g.N; u++ {
			if e.Scheduled(u) || !e.Ready(u) {
				continue
			}
			e.Push(u)
			rec(depth + 1)
			e.Pop()
		}
	}
	rec(0)
	return best
}

func fig3Graph(t *testing.T) *dag.Graph {
	return mustGraph(t, `fig3:
  1: Const 15
  2: Store #b, @1
  3: Load #a
  4: Mul @1, @3
  5: Store #a, @4`)
}

func TestFigure3Optimal(t *testing.T) {
	g := fig3Graph(t)
	m := machine.SimulationMachine()
	sched, err := Find(g, m, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !sched.Optimal {
		t.Error("search should complete for a 5-tuple block")
	}
	if want := bruteForceOptimum(g, m, nopins.AssignFixed); sched.TotalNOPs != want {
		t.Errorf("TotalNOPs = %d, brute force says %d", sched.TotalNOPs, want)
	}
	if sched.TotalNOPs != 2 {
		t.Errorf("Figure 3 optimum = %d NOPs, hand computation says 2", sched.TotalNOPs)
	}
	if !g.IsLegalOrder(sched.Order) {
		t.Errorf("result order %v is illegal", sched.Order)
	}
	if sched.InitialNOPs < sched.TotalNOPs {
		t.Errorf("initial %d < final %d: search made things worse", sched.InitialNOPs, sched.TotalNOPs)
	}
}

func TestEmptyBlock(t *testing.T) {
	g := mustGraph(t, "empty:\n  1: Load #a")
	g.Block.Tuples = nil
	g2, err := dag.Build(g.Block)
	if err != nil {
		t.Fatal(err)
	}
	sched, err := Find(g2, machine.SimulationMachine(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !sched.Optimal || sched.TotalNOPs != 0 || len(sched.Order) != 0 {
		t.Errorf("empty block: %+v", sched)
	}
}

func TestSingleInstruction(t *testing.T) {
	g := mustGraph(t, "one:\n  1: Load #a")
	sched, err := Find(g, machine.SimulationMachine(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if sched.TotalNOPs != 0 || !sched.Optimal || len(sched.Order) != 1 {
		t.Errorf("single instruction: %+v", sched)
	}
}

func TestZeroNOPSeedSkipsSearch(t *testing.T) {
	// Independent loads never need NOPs; the search must recognize the
	// seed as unbeatable and not expand anything.
	g := mustGraph(t, `loads:
  1: Load #a
  2: Load #b
  3: Load #c`)
	sched, err := Find(g, machine.SimulationMachine(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if sched.TotalNOPs != 0 || !sched.Optimal {
		t.Errorf("got %d NOPs, optimal=%v", sched.TotalNOPs, sched.Optimal)
	}
	if sched.Stats.OmegaCalls != 0 {
		t.Errorf("zero-NOP seed should skip search, did %d Ω calls", sched.Stats.OmegaCalls)
	}
}

func TestRejectsIllegalInitialOrder(t *testing.T) {
	g := mustGraph(t, `two:
  1: Load #a
  2: Neg @1`)
	if _, err := Find(g, machine.SimulationMachine(), Options{InitialOrder: []int{1, 0}}); err == nil {
		t.Error("illegal initial order accepted")
	}
}

func TestCurtailment(t *testing.T) {
	// A block with a large legal search space and a tiny λ must curtail
	// and still return a legal, priced schedule.
	src := `big:
  1: Load #a
  2: Load #b
  3: Load #c
  4: Mul @1, @2
  5: Mul @2, @3
  6: Add @4, @5
  7: Store #r, @6
  8: Load #d
  9: Load #e
  10: Mul @8, @9
  11: Store #s, @10`
	g := mustGraph(t, src)
	m := machine.SimulationMachine()
	sched, err := Find(g, m, Options{Lambda: 5})
	if err != nil {
		t.Fatal(err)
	}
	if sched.Optimal || !sched.Stats.Curtailed {
		t.Error("λ=5 search should curtail")
	}
	if sched.Stats.OmegaCalls > 5 {
		t.Errorf("Ω calls %d exceed λ=5", sched.Stats.OmegaCalls)
	}
	if !g.IsLegalOrder(sched.Order) {
		t.Error("curtailed result must still be legal")
	}

	// With unlimited λ the same block completes and does at least as well.
	full, err := Find(g, m, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !full.Optimal {
		t.Error("unlimited search should complete")
	}
	if full.TotalNOPs > sched.TotalNOPs {
		t.Error("completed search worse than curtailed one")
	}
}

func TestSearchMatchesBruteForceProperty(t *testing.T) {
	m := machine.SimulationMachine()
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		g, err := dag.Build(randomBlock(rng, 3+rng.Intn(7)))
		if err != nil {
			return false
		}
		sched, err := Find(g, m, Options{})
		if err != nil || !sched.Optimal {
			return false
		}
		return sched.TotalNOPs == bruteForceOptimum(g, m, nopins.AssignFixed) &&
			g.IsLegalOrder(sched.Order)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

func TestAblationsPreserveOptimality(t *testing.T) {
	m := machine.SimulationMachine()
	variants := []Options{
		{DisableEquivalence: true},
		{DisableBoundsCheck: true},
		{StrongEquivalence: true},
		{DisableEquivalence: true, DisableBoundsCheck: true},
	}
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		g, err := dag.Build(randomBlock(rng, 3+rng.Intn(7)))
		if err != nil {
			return false
		}
		want, err := Find(g, m, Options{})
		if err != nil {
			return false
		}
		for _, opt := range variants {
			got, err := Find(g, m, opt)
			if err != nil || !got.Optimal || got.TotalNOPs != want.TotalNOPs {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

func TestStrongEquivalencePrunesInterchangeableLoads(t *testing.T) {
	// Loads of distinct variables feeding one Add are interchangeable:
	// same pipeline, same (empty) preds, same successor. The Mul chain
	// beside them keeps the root bound from certifying the seed, so the
	// search runs.
	g := mustGraph(t, `twins:
  1: Load #a
  2: Load #b
  3: Add @1, @2
  4: Store #r, @3
  5: Load #c
  6: Mul @5, @5
  7: Store #s, @6`)
	m := machine.SimulationMachine()
	plain, err := Find(g, m, Options{})
	if err != nil {
		t.Fatal(err)
	}
	strong, err := Find(g, m, Options{StrongEquivalence: true})
	if err != nil {
		t.Fatal(err)
	}
	if strong.TotalNOPs != plain.TotalNOPs {
		t.Errorf("strong equivalence changed optimum: %d vs %d", strong.TotalNOPs, plain.TotalNOPs)
	}
	if strong.Stats.PrunedStrongEquiv == 0 {
		t.Error("expected the twin loads to trigger strong-equivalence pruning")
	}
}

func TestStrongEquivalenceDoesNotStarveTwinClass(t *testing.T) {
	// Regression for a circular deferral between [5c] and the strong
	// filter, caught by the differential oracle: with both rules active,
	// the twin blocked by the strong filter (higher node number, twin
	// unscheduled) sat at Π[i], so [5c] then skipped the lower-numbered
	// twin as "equivalent to Π[i]" — and the whole class vanished from
	// that position. On this pair the search certified 2 NOPs as optimal
	// while the true optimum is 1 (schedule the unused Sub before the
	// second Load pair so the Div's enqueue slot drains earlier).
	mj := `{"name": "fuzz-fd4012be", "pipelines": [
	  {"Function": "multiplier", "ID": 1, "Latency": 4, "Enqueue": 4},
	  {"Function": "fpu", "ID": 2, "Latency": 2, "Enqueue": 2}],
	  "ops": {"Div": [1], "Mod": [2], "Mul": [2], "Neg": [1], "Sub": [1]}}`
	m, err := machine.ParseJSON([]byte(mj))
	if err != nil {
		t.Fatal(err)
	}
	g := mustGraph(t, `synth:
  1: Load #v0
  2: Const 14
  3: Sub @1, @2
  5: Load #v1
  6: Load #v3
  7: Div @5, @6`)
	modes := map[string]machine.SchedMode{
		"paper":      {},
		"minreg-lex": machine.MinRegLex(),
		"minreg-k=3": machine.MinRegK(3),
	}
	for name, mode := range modes {
		t.Run(name, func(t *testing.T) {
			plain, err := Find(g, m, Options{Sched: mode})
			if err != nil {
				t.Fatal(err)
			}
			strong, err := Find(g, m, Options{Sched: mode, StrongEquivalence: true})
			if err != nil {
				t.Fatal(err)
			}
			if plain.TotalNOPs != 1 || !plain.Optimal {
				t.Fatalf("plain search: nops=%d optimal=%v, want 1/true", plain.TotalNOPs, plain.Optimal)
			}
			if strong.TotalNOPs != 1 || !strong.Optimal {
				t.Errorf("strong-equivalence search: nops=%d optimal=%v, want 1/true", strong.TotalNOPs, strong.Optimal)
			}
			par, err := FindParallel(g, m, Options{Sched: mode, StrongEquivalence: true}, 2)
			if err != nil {
				t.Fatal(err)
			}
			if par.TotalNOPs != 1 || !par.Optimal {
				t.Errorf("parallel strong-equivalence search: nops=%d optimal=%v, want 1/true", par.TotalNOPs, par.Optimal)
			}
		})
	}
}

func TestAssignmentSearchBeatsFixedOnExampleMachine(t *testing.T) {
	// Two independent Add chains fight over one adder under fixed
	// assignment but spread over both adders with assignment search.
	g := mustGraph(t, `dual:
  1: Load #a
  2: Load #b
  3: Add @1, @1
  4: Add @2, @2
  5: Store #p, @3
  6: Store #q, @4`)
	m := machine.ExampleMachine()
	fixed, err := Find(g, m, Options{Assign: nopins.AssignFixed})
	if err != nil {
		t.Fatal(err)
	}
	search, err := Find(g, m, Options{Assign: nopins.AssignGreedy, AssignSearch: true})
	if err != nil {
		t.Fatal(err)
	}
	if search.TotalNOPs > fixed.TotalNOPs {
		t.Errorf("assignment search (%d) worse than fixed (%d)", search.TotalNOPs, fixed.TotalNOPs)
	}
	if search.TotalNOPs >= fixed.TotalNOPs {
		t.Logf("note: fixed=%d search=%d (no strict win on this block)", fixed.TotalNOPs, search.TotalNOPs)
	}
}

func TestAssignSearchMatchesBruteForceGreedyOrBetter(t *testing.T) {
	m := machine.ExampleMachine()
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		g, err := dag.Build(randomBlock(rng, 3+rng.Intn(6)))
		if err != nil {
			return false
		}
		exact, err := Find(g, m, Options{Assign: nopins.AssignGreedy, AssignSearch: true})
		if err != nil || !exact.Optimal {
			return false
		}
		// The exact assignment search can never be worse than greedy
		// assignment explored over all orders.
		greedyBest := bruteForceOptimum(g, m, nopins.AssignGreedy)
		return exact.TotalNOPs <= greedyBest
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}

func TestStatsAccounting(t *testing.T) {
	g := fig3Graph(t)
	sched, err := Find(g, machine.SimulationMachine(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	st := sched.Stats
	// The list seed costs N Ω calls; the optional greedy incumbent
	// pricing costs another N.
	if st.SeedOmegaCalls != 2*int64(g.N) {
		t.Errorf("SeedOmegaCalls = %d, want %d", st.SeedOmegaCalls, 2*g.N)
	}
	if st.SchedulesExamined < 1 {
		t.Error("seed schedule must count as examined")
	}
	if st.OmegaCalls <= 0 {
		t.Error("search with a nonzero seed must perform Ω calls")
	}
	if st.Curtailed {
		t.Error("tiny block curtailed")
	}
	if st.Elapsed <= 0 {
		t.Error("Elapsed not recorded")
	}
	if st.Improvements < 1 {
		t.Error("Figure 3 search should improve on the 4-NOP program order seed at least once")
	}
}

func TestSeedPriorityAffectsSeedNotOptimum(t *testing.T) {
	g := fig3Graph(t)
	m := machine.SimulationMachine()
	var totals []int
	for _, p := range []listsched.Priority{listsched.ByHeight, listsched.ByDescendants, listsched.ProgramOrder} {
		sched, err := Find(g, m, Options{SeedPriority: p})
		if err != nil {
			t.Fatal(err)
		}
		totals = append(totals, sched.TotalNOPs)
	}
	if totals[0] != totals[1] || totals[1] != totals[2] {
		t.Errorf("optimum depends on seed priority: %v", totals)
	}
}

func TestExplicitInitialOrderHonored(t *testing.T) {
	g := fig3Graph(t)
	m := machine.SimulationMachine()
	// Seed with the already-optimal order: improvements should be zero.
	sched, err := Find(g, m, Options{InitialOrder: []int{2, 0, 3, 1, 4}})
	if err != nil {
		t.Fatal(err)
	}
	if sched.InitialNOPs != 2 {
		t.Errorf("seed NOPs = %d, want 2", sched.InitialNOPs)
	}
	if sched.Stats.Improvements != 0 {
		t.Errorf("optimal seed yet %d improvements", sched.Stats.Improvements)
	}
	if sched.TotalNOPs != 2 {
		t.Errorf("TotalNOPs = %d, want 2", sched.TotalNOPs)
	}
}

func randomBlock(rng *rand.Rand, n int) *ir.Block {
	b := ir.NewBlock("rand")
	vars := []string{"a", "b", "c"}
	var ids []int
	for i := 0; i < n; i++ {
		switch k := rng.Intn(6); {
		case k == 0 || len(ids) == 0:
			ids = append(ids, b.Append(ir.Load, ir.Var(vars[rng.Intn(len(vars))]), ir.None()))
		case k == 1:
			ids = append(ids, b.Append(ir.Const, ir.Imm(int64(rng.Intn(50))), ir.None()))
		case k == 2:
			b.Append(ir.Store, ir.Var(vars[rng.Intn(len(vars))]), ir.Ref(ids[rng.Intn(len(ids))]))
		default:
			ops := []ir.Op{ir.Add, ir.Sub, ir.Mul, ir.Div}
			ids = append(ids, b.Append(ops[rng.Intn(len(ops))],
				ir.Ref(ids[rng.Intn(len(ids))]), ir.Ref(ids[rng.Intn(len(ids))])))
		}
	}
	return b
}

func TestGreedySeedBoundsCurtailedSearch(t *testing.T) {
	// Even a brutally curtailed search can never return a schedule worse
	// than the greedy baseline, because the greedy order seeds the
	// incumbent.
	m := machine.SimulationMachine()
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		g, err := dag.Build(randomBlock(rng, 6+rng.Intn(10)))
		if err != nil {
			return false
		}
		sched, err := Find(g, m, Options{Lambda: 3})
		if err != nil {
			return false
		}
		greedy := gross.Schedule(g, m, nopins.AssignFixed)
		return sched.TotalNOPs <= greedy.TotalNOPs
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

func TestDisableGreedySeedStillOptimal(t *testing.T) {
	m := machine.SimulationMachine()
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		g, err := dag.Build(randomBlock(rng, 3+rng.Intn(6)))
		if err != nil {
			return false
		}
		with, err := Find(g, m, Options{})
		if err != nil || !with.Optimal {
			return false
		}
		without, err := Find(g, m, Options{DisableGreedySeed: true})
		if err != nil || !without.Optimal {
			return false
		}
		return with.TotalNOPs == without.TotalNOPs
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// recordTrace returns an Options.Trace hook for a sequential search and
// the events it has seen.
func recordTrace() (func(TraceEvent), *[]TraceEvent) {
	var events []TraceEvent
	return func(e TraceEvent) { events = append(events, e) }, &events
}

// countTrace counts the events with action a.
func countTrace(events []TraceEvent, a TraceAction) int64 {
	n := int64(0)
	for _, e := range events {
		if e.Action == a {
			n++
		}
	}
	return n
}

func TestSearchTrace(t *testing.T) {
	g := fig3Graph(t)
	hook, events := recordTrace()
	sched, err := Find(g, machine.SimulationMachine(), Options{Trace: hook})
	if err != nil {
		t.Fatal(err)
	}
	if len(*events) == 0 {
		t.Fatal("no events reported")
	}
	for _, c := range []struct {
		a    TraceAction
		want int64
	}{
		{TracePlace, sched.Stats.OmegaCalls},
		{TraceImprove, sched.Stats.Improvements},
		{TraceAlphaBeta, sched.Stats.PrunedAlphaBeta},
	} {
		if got := countTrace(*events, c.a); got != c.want {
			t.Errorf("%s events %d != stats %d", c.a, got, c.want)
		}
	}
	for _, e := range *events {
		if e.Worker != 0 || e.Depth < 0 || e.Depth >= g.N {
			t.Fatalf("sequential event out of range: %+v", e)
		}
	}
}

// TestSearchTraceLimit checks that a hook which stops recording — as the
// per-compile bound of a traced compile does — leaves the search alone:
// same schedule, same statistics as an untraced search.
func TestSearchTraceLimit(t *testing.T) {
	g := fig3Graph(t)
	m := machine.SimulationMachine()
	n := 0
	traced, err := Find(g, m, Options{Trace: func(TraceEvent) {
		if n < 3 {
			n++
		}
	}})
	if err != nil {
		t.Fatal(err)
	}
	plain, err := Find(g, m, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if n != 3 {
		t.Errorf("hook saw %d events, want at least 3", n)
	}
	traced.Stats.Elapsed, plain.Stats.Elapsed = 0, 0
	if !reflect.DeepEqual(traced.Order, plain.Order) || traced.Stats != plain.Stats {
		t.Errorf("trace hook changed the search: %+v vs %+v", traced.Stats, plain.Stats)
	}
}

func TestSearchTraceCurtailEvent(t *testing.T) {
	g := mustGraph(t, `c:
  1: Load #a
  2: Load #b
  3: Load #c
  4: Mul @1, @2
  5: Mul @2, @3
  6: Add @4, @5
  7: Store #r, @6`)
	hook, events := recordTrace()
	sched, err := Find(g, machine.SimulationMachine(), Options{Lambda: 4, Trace: hook})
	if err != nil {
		t.Fatal(err)
	}
	if sched.Optimal {
		t.Fatal("λ=4 should curtail")
	}
	if got := countTrace(*events, TraceCurtail); got != 1 {
		t.Errorf("expected exactly one curtail event, got %d", got)
	}
}
