package core

import (
	"errors"
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"pipesched/internal/dag"
	"pipesched/internal/listsched"
	"pipesched/internal/machine"
)

// effort is the summed search effort of one (mode, machine) cell of the
// golden pin: every deterministic Stats counter plus the result costs.
type effort struct {
	TotalNOPs, InitialNOPs, RootLB, Optimal, Curtailed, Infeasible int
	OmegaCalls, SeedOmegaCalls, SchedulesExamined, Improvements    int64
	PrunedBounds, PrunedIllegal, PrunedEquivalence, PrunedStrongEq int64
	PrunedAlphaBeta, PrunedLowerBound, PrunedResource              int64
	PrunedPressure, MemoHits                                       int64
}

func (e *effort) add(s *Schedule) {
	e.TotalNOPs += s.TotalNOPs
	e.InitialNOPs += s.InitialNOPs
	e.RootLB += s.RootLB
	if s.Optimal {
		e.Optimal++
	}
	if s.Stats.Curtailed {
		e.Curtailed++
	}
	st := s.Stats
	e.OmegaCalls += st.OmegaCalls
	e.SeedOmegaCalls += st.SeedOmegaCalls
	e.SchedulesExamined += st.SchedulesExamined
	e.Improvements += st.Improvements
	e.PrunedBounds += st.PrunedBounds
	e.PrunedIllegal += st.PrunedIllegal
	e.PrunedEquivalence += st.PrunedEquivalence
	e.PrunedStrongEq += st.PrunedStrongEquiv
	e.PrunedAlphaBeta += st.PrunedAlphaBeta
	e.PrunedLowerBound += st.PrunedLowerBound
	e.PrunedResource += st.PrunedResource
	e.PrunedPressure += st.PrunedPressure
	e.MemoHits += st.MemoHits
}

// goldenCase is one row of the search-effort pin.
type goldenCase struct {
	name    string
	sched   string
	lambda  int64
	strong  bool
	ablated bool // DisableLowerBound + DisableMemo: the paper's prune set alone
}

var goldenCases = []goldenCase{
	{name: "paper", sched: "paper"},
	{name: "paper-strong", sched: "paper", strong: true},
	{name: "paper-ablated", sched: "paper", lambda: -1, ablated: true},
	{name: "minreg-lex", sched: "minreg-lex"},
	{name: "minreg-k=3", sched: "minreg-k=3"},
	{name: "scoreboard=8x2", sched: "scoreboard=8x2"},
	{name: "scoreboard=8x2-lambda40", sched: "scoreboard=8x2", lambda: 40},
	{name: "scoreboard=4x2-strong", sched: "scoreboard=4x2", strong: true},
	{name: "scoreboard=1x1", sched: "scoreboard=1x1"},
}

// goldenLambda caps every case without its own λ, so the big scoreboard
// searches curtail and their curtail points are pinned too.
const goldenLambda = 20000

// goldenEffort is the literal search-effort table: the summed counters of
// every case over the seeded corpus, per machine. The search must visit
// exactly the same nodes in the same order and attribute every prune to
// the same class, so any change here is a change to the search itself.
var goldenEffort = map[string]effort{
	"paper/example":                      {TotalNOPs: 136, InitialNOPs: 161, RootLB: 100, Optimal: 60, Curtailed: 0, Infeasible: 0, OmegaCalls: 3425, SeedOmegaCalls: 970, SchedulesExamined: 137, Improvements: 25, PrunedBounds: 2270, PrunedIllegal: 3232, PrunedEquivalence: 0, PrunedStrongEq: 0, PrunedAlphaBeta: 981, PrunedLowerBound: 619, PrunedResource: 56, PrunedPressure: 0, MemoHits: 498},
	"paper/simulation":                   {TotalNOPs: 75, InitialNOPs: 92, RootLB: 58, Optimal: 60, Curtailed: 0, Infeasible: 0, OmegaCalls: 2886, SeedOmegaCalls: 912, SchedulesExamined: 122, Improvements: 17, PrunedBounds: 1536, PrunedIllegal: 3257, PrunedEquivalence: 0, PrunedStrongEq: 0, PrunedAlphaBeta: 904, PrunedLowerBound: 444, PrunedResource: 6, PrunedPressure: 0, MemoHits: 500},
	"paper-strong/example":               {TotalNOPs: 136, InitialNOPs: 161, RootLB: 100, Optimal: 60, Curtailed: 0, Infeasible: 0, OmegaCalls: 3369, SeedOmegaCalls: 970, SchedulesExamined: 137, Improvements: 25, PrunedBounds: 2263, PrunedIllegal: 3213, PrunedEquivalence: 0, PrunedStrongEq: 21, PrunedAlphaBeta: 963, PrunedLowerBound: 605, PrunedResource: 56, PrunedPressure: 0, MemoHits: 492},
	"paper-strong/simulation":            {TotalNOPs: 75, InitialNOPs: 92, RootLB: 58, Optimal: 60, Curtailed: 0, Infeasible: 0, OmegaCalls: 2883, SeedOmegaCalls: 912, SchedulesExamined: 122, Improvements: 17, PrunedBounds: 1534, PrunedIllegal: 3257, PrunedEquivalence: 0, PrunedStrongEq: 2, PrunedAlphaBeta: 903, PrunedLowerBound: 443, PrunedResource: 6, PrunedPressure: 0, MemoHits: 500},
	"paper-ablated/example":              {TotalNOPs: 136, InitialNOPs: 161, RootLB: 0, Optimal: 60, Curtailed: 0, Infeasible: 0, OmegaCalls: 108136, SeedOmegaCalls: 970, SchedulesExamined: 137, Improvements: 25, PrunedBounds: 16156, PrunedIllegal: 133402, PrunedEquivalence: 0, PrunedStrongEq: 0, PrunedAlphaBeta: 68175, PrunedLowerBound: 0, PrunedResource: 0, PrunedPressure: 0, MemoHits: 0},
	"paper-ablated/simulation":           {TotalNOPs: 75, InitialNOPs: 92, RootLB: 0, Optimal: 60, Curtailed: 0, Infeasible: 0, OmegaCalls: 118259, SeedOmegaCalls: 912, SchedulesExamined: 122, Improvements: 17, PrunedBounds: 9706, PrunedIllegal: 140041, PrunedEquivalence: 0, PrunedStrongEq: 0, PrunedAlphaBeta: 73238, PrunedLowerBound: 0, PrunedResource: 0, PrunedPressure: 0, MemoHits: 0},
	"minreg-lex/example":                 {TotalNOPs: 136, InitialNOPs: 161, RootLB: 100, Optimal: 60, Curtailed: 0, Infeasible: 0, OmegaCalls: 12349, SeedOmegaCalls: 1014, SchedulesExamined: 178, Improvements: 58, PrunedBounds: 7456, PrunedIllegal: 11948, PrunedEquivalence: 30, PrunedStrongEq: 0, PrunedAlphaBeta: 4734, PrunedLowerBound: 1524, PrunedResource: 190, PrunedPressure: 0, MemoHits: 2011},
	"minreg-lex/simulation":              {TotalNOPs: 75, InitialNOPs: 92, RootLB: 58, Optimal: 60, Curtailed: 0, Infeasible: 0, OmegaCalls: 9363, SeedOmegaCalls: 1014, SchedulesExamined: 181, Improvements: 61, PrunedBounds: 5841, PrunedIllegal: 8856, PrunedEquivalence: 26, PrunedStrongEq: 0, PrunedAlphaBeta: 4107, PrunedLowerBound: 935, PrunedResource: 14, PrunedPressure: 0, MemoHits: 1295},
	"minreg-k=3/example":                 {TotalNOPs: 160, InitialNOPs: 185, RootLB: 91, Optimal: 59, Curtailed: 0, Infeasible: 1, OmegaCalls: 10199, SeedOmegaCalls: 973, SchedulesExamined: 204, Improvements: 92, PrunedBounds: 5604, PrunedIllegal: 10276, PrunedEquivalence: 71, PrunedStrongEq: 0, PrunedAlphaBeta: 886, PrunedLowerBound: 1000, PrunedResource: 118, PrunedPressure: 3035, MemoHits: 1722},
	"minreg-k=3/simulation":              {TotalNOPs: 84, InitialNOPs: 113, RootLB: 51, Optimal: 59, Curtailed: 0, Infeasible: 1, OmegaCalls: 5796, SeedOmegaCalls: 941, SchedulesExamined: 188, Improvements: 80, PrunedBounds: 3620, PrunedIllegal: 6041, PrunedEquivalence: 20, PrunedStrongEq: 0, PrunedAlphaBeta: 617, PrunedLowerBound: 457, PrunedResource: 10, PrunedPressure: 1790, MemoHits: 827},
	"scoreboard=8x2/example":             {TotalNOPs: 336, InitialNOPs: 348, RootLB: 282, Optimal: 56, Curtailed: 4, Infeasible: 0, OmegaCalls: 142245, SeedOmegaCalls: 1011, SchedulesExamined: 129, Improvements: 10, PrunedBounds: 28195, PrunedIllegal: 102231, PrunedEquivalence: 211, PrunedStrongEq: 0, PrunedAlphaBeta: 23918, PrunedLowerBound: 42062, PrunedResource: 0, PrunedPressure: 0, MemoHits: 0},
	"scoreboard=8x2/simulation":          {TotalNOPs: 238, InitialNOPs: 251, RootLB: 203, Optimal: 54, Curtailed: 6, Infeasible: 0, OmegaCalls: 151277, SeedOmegaCalls: 999, SchedulesExamined: 129, Improvements: 11, PrunedBounds: 26515, PrunedIllegal: 123994, PrunedEquivalence: 211, PrunedStrongEq: 0, PrunedAlphaBeta: 18463, PrunedLowerBound: 54590, PrunedResource: 0, PrunedPressure: 0, MemoHits: 0},
	"scoreboard=8x2-lambda40/example":    {TotalNOPs: 342, InitialNOPs: 348, RootLB: 282, Optimal: 39, Curtailed: 21, Infeasible: 0, OmegaCalls: 974, SeedOmegaCalls: 1011, SchedulesExamined: 123, Improvements: 4, PrunedBounds: 370, PrunedIllegal: 417, PrunedEquivalence: 0, PrunedStrongEq: 0, PrunedAlphaBeta: 118, PrunedLowerBound: 278, PrunedResource: 0, PrunedPressure: 0, MemoHits: 0},
	"scoreboard=8x2-lambda40/simulation": {TotalNOPs: 243, InitialNOPs: 251, RootLB: 203, Optimal: 39, Curtailed: 21, Infeasible: 0, OmegaCalls: 960, SeedOmegaCalls: 999, SchedulesExamined: 124, Improvements: 6, PrunedBounds: 358, PrunedIllegal: 476, PrunedEquivalence: 0, PrunedStrongEq: 0, PrunedAlphaBeta: 81, PrunedLowerBound: 314, PrunedResource: 0, PrunedPressure: 0, MemoHits: 0},
	"scoreboard=4x2-strong/example":      {TotalNOPs: 336, InitialNOPs: 348, RootLB: 282, Optimal: 56, Curtailed: 4, Infeasible: 0, OmegaCalls: 134475, SeedOmegaCalls: 1011, SchedulesExamined: 129, Improvements: 10, PrunedBounds: 28316, PrunedIllegal: 102756, PrunedEquivalence: 0, PrunedStrongEq: 3640, PrunedAlphaBeta: 20142, PrunedLowerBound: 42234, PrunedResource: 0, PrunedPressure: 0, MemoHits: 0},
	"scoreboard=4x2-strong/simulation":   {TotalNOPs: 238, InitialNOPs: 251, RootLB: 203, Optimal: 55, Curtailed: 5, Infeasible: 0, OmegaCalls: 141849, SeedOmegaCalls: 999, SchedulesExamined: 129, Improvements: 11, PrunedBounds: 26400, PrunedIllegal: 123987, PrunedEquivalence: 0, PrunedStrongEq: 4385, PrunedAlphaBeta: 14126, PrunedLowerBound: 54859, PrunedResource: 0, PrunedPressure: 0, MemoHits: 0},
	"scoreboard=1x1/example":             {TotalNOPs: 137, InitialNOPs: 161, RootLB: 99, Optimal: 58, Curtailed: 2, Infeasible: 0, OmegaCalls: 79742, SeedOmegaCalls: 970, SchedulesExamined: 136, Improvements: 24, PrunedBounds: 10121, PrunedIllegal: 53962, PrunedEquivalence: 438, PrunedStrongEq: 0, PrunedAlphaBeta: 20837, PrunedLowerBound: 22961, PrunedResource: 0, PrunedPressure: 0, MemoHits: 0},
	"scoreboard=1x1/simulation":          {TotalNOPs: 76, InitialNOPs: 92, RootLB: 58, Optimal: 58, Curtailed: 2, Infeasible: 0, OmegaCalls: 47520, SeedOmegaCalls: 912, SchedulesExamined: 121, Improvements: 16, PrunedBounds: 3288, PrunedIllegal: 33453, PrunedEquivalence: 0, PrunedStrongEq: 0, PrunedAlphaBeta: 12102, PrunedLowerBound: 14183, PrunedResource: 0, PrunedPressure: 0, MemoHits: 0},
}

// TestSearchEffortGolden pins the sequential search's node counts, prune
// attribution and result costs in every sched mode over a seeded synth
// corpus on the paper's two machines. A refactor of the search must
// leave every number unchanged.
func TestSearchEffortGolden(t *testing.T) {
	rng := rand.New(rand.NewSource(2024))
	var graphs []*dag.Graph
	for len(graphs) < 40 {
		if g := randomGraph(t, rng, 7, 0); g != nil {
			graphs = append(graphs, g)
		}
	}
	// randomBlock's unoptimized blocks repeat pipe-less constants, which
	// is what exercises the [5c] filter.
	for len(graphs) < 60 {
		g, err := dag.Build(randomBlock(rng, 6+rng.Intn(6)))
		if err != nil {
			t.Fatal(err)
		}
		graphs = append(graphs, g)
	}
	machines := []struct {
		name string
		m    *machine.Machine
	}{{"example", machine.ExampleMachine()}, {"simulation", machine.SimulationMachine()}}

	var got strings.Builder
	mismatch := false
	measured := map[string]effort{}
	for _, c := range goldenCases {
		mode, err := machine.ParseSchedMode(c.sched)
		if err != nil {
			t.Fatal(err)
		}
		for _, mc := range machines {
			key := c.name + "/" + mc.name
			lambda := c.lambda
			if lambda == 0 {
				lambda = goldenLambda
			}
			var e effort
			for i, g := range graphs {
				s, err := Find(g, mc.m, Options{
					Sched:             mode,
					Lambda:            lambda,
					SeedPriority:      listsched.ByHeight,
					StrongEquivalence: c.strong,
					DisableLowerBound: c.ablated,
					DisableMemo:       c.ablated,
				})
				if errors.Is(err, ErrInfeasible) {
					e.Infeasible++
					continue
				}
				if err != nil {
					t.Fatalf("%s block %d: %v", key, i, err)
				}
				e.add(s)
			}
			measured[key] = e
			fmt.Fprintf(&got, "\t%q: %#v,\n", key, e)
			if e != goldenEffort[key] {
				mismatch = true
				t.Errorf("%s: effort\n got %+v\nwant %+v", key, e, goldenEffort[key])
			}
		}
	}
	if mismatch {
		t.Logf("current table:\n%s", strings.ReplaceAll(got.String(), "core.effort", ""))
	}
	// The bound engine and the memo only prune: without them every block
	// still proves optimal at the same cost, so a regenerated table can
	// never pin an ablated row that disagrees with the paper row.
	for _, mc := range machines {
		ablated, paper := measured["paper-ablated/"+mc.name], measured["paper/"+mc.name]
		if ablated.Optimal != len(graphs) {
			t.Errorf("paper-ablated/%s: %d of %d blocks proved optimal", mc.name, ablated.Optimal, len(graphs))
		}
		if ablated.TotalNOPs != paper.TotalNOPs {
			t.Errorf("paper-ablated/%s: %d NOPs, paper %d: the bound engine or the memo changed an optimum",
				mc.name, ablated.TotalNOPs, paper.TotalNOPs)
		}
	}
}
