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
	"pipesched/internal/memo"
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
	nomemo  bool // DisableMemo alone
	nobound bool // DisableLowerBound alone
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
	{name: "scoreboard=8x2-nomemo", sched: "scoreboard=8x2", nomemo: true},
	{name: "scoreboard=8x2-lambda40-nomemo", sched: "scoreboard=8x2", lambda: 40, nomemo: true},
	{name: "scoreboard=4x2-strong-nomemo", sched: "scoreboard=4x2", strong: true, nomemo: true},
	{name: "scoreboard=1x1-nomemo", sched: "scoreboard=1x1", nomemo: true},
	{name: "scoreboard=8x2-nobound", sched: "scoreboard=8x2", nobound: true},
	{name: "scoreboard=8x2-lambda40-nobound", sched: "scoreboard=8x2", lambda: 40, nobound: true},
	{name: "scoreboard=4x2-strong-nobound", sched: "scoreboard=4x2", strong: true, nobound: true},
	{name: "scoreboard=1x1-nobound", sched: "scoreboard=1x1", nobound: true},
}

// goldenLambda caps every case without its own λ, so the big scoreboard
// searches curtail and their curtail points are pinned too.
const goldenLambda = 20000

// goldenEffort is the literal search-effort table: the summed counters of
// every case over the seeded corpus, per machine. The search must visit
// exactly the same nodes in the same order and attribute every prune to
// the same class, so any change here is a change to the search itself.
var goldenEffort = map[string]effort{
	"paper/example":                              {TotalNOPs: 136, InitialNOPs: 161, RootLB: 126, Optimal: 60, Curtailed: 0, Infeasible: 0, OmegaCalls: 930, SeedOmegaCalls: 970, SchedulesExamined: 137, Improvements: 25, PrunedBounds: 689, PrunedIllegal: 559, PrunedEquivalence: 0, PrunedStrongEq: 0, PrunedAlphaBeta: 223, PrunedLowerBound: 161, PrunedResource: 120, PrunedPressure: 0, MemoHits: 25},
	"paper/simulation":                           {TotalNOPs: 75, InitialNOPs: 92, RootLB: 69, Optimal: 60, Curtailed: 0, Infeasible: 0, OmegaCalls: 940, SeedOmegaCalls: 912, SchedulesExamined: 122, Improvements: 17, PrunedBounds: 778, PrunedIllegal: 771, PrunedEquivalence: 0, PrunedStrongEq: 0, PrunedAlphaBeta: 171, PrunedLowerBound: 141, PrunedResource: 179, PrunedPressure: 0, MemoHits: 77},
	"paper-strong/example":                       {TotalNOPs: 136, InitialNOPs: 161, RootLB: 126, Optimal: 60, Curtailed: 0, Infeasible: 0, OmegaCalls: 929, SeedOmegaCalls: 970, SchedulesExamined: 137, Improvements: 25, PrunedBounds: 689, PrunedIllegal: 559, PrunedEquivalence: 0, PrunedStrongEq: 1, PrunedAlphaBeta: 223, PrunedLowerBound: 161, PrunedResource: 119, PrunedPressure: 0, MemoHits: 25},
	"paper-strong/simulation":                    {TotalNOPs: 75, InitialNOPs: 92, RootLB: 69, Optimal: 60, Curtailed: 0, Infeasible: 0, OmegaCalls: 939, SeedOmegaCalls: 912, SchedulesExamined: 122, Improvements: 17, PrunedBounds: 778, PrunedIllegal: 771, PrunedEquivalence: 0, PrunedStrongEq: 1, PrunedAlphaBeta: 170, PrunedLowerBound: 141, PrunedResource: 179, PrunedPressure: 0, MemoHits: 77},
	"paper-ablated/example":                      {TotalNOPs: 136, InitialNOPs: 161, RootLB: 0, Optimal: 60, Curtailed: 0, Infeasible: 0, OmegaCalls: 108136, SeedOmegaCalls: 970, SchedulesExamined: 137, Improvements: 25, PrunedBounds: 16156, PrunedIllegal: 133402, PrunedEquivalence: 0, PrunedStrongEq: 0, PrunedAlphaBeta: 68175, PrunedLowerBound: 0, PrunedResource: 0, PrunedPressure: 0, MemoHits: 0},
	"paper-ablated/simulation":                   {TotalNOPs: 75, InitialNOPs: 92, RootLB: 0, Optimal: 60, Curtailed: 0, Infeasible: 0, OmegaCalls: 118259, SeedOmegaCalls: 912, SchedulesExamined: 122, Improvements: 17, PrunedBounds: 9706, PrunedIllegal: 140041, PrunedEquivalence: 0, PrunedStrongEq: 0, PrunedAlphaBeta: 73238, PrunedLowerBound: 0, PrunedResource: 0, PrunedPressure: 0, MemoHits: 0},
	"minreg-lex/example":                         {TotalNOPs: 136, InitialNOPs: 161, RootLB: 126, Optimal: 60, Curtailed: 0, Infeasible: 0, OmegaCalls: 6939, SeedOmegaCalls: 1014, SchedulesExamined: 178, Improvements: 58, PrunedBounds: 4991, PrunedIllegal: 5185, PrunedEquivalence: 11, PrunedStrongEq: 0, PrunedAlphaBeta: 2781, PrunedLowerBound: 975, PrunedResource: 504, PrunedPressure: 0, MemoHits: 648},
	"minreg-lex/simulation":                      {TotalNOPs: 75, InitialNOPs: 92, RootLB: 69, Optimal: 60, Curtailed: 0, Infeasible: 0, OmegaCalls: 6029, SeedOmegaCalls: 1014, SchedulesExamined: 181, Improvements: 61, PrunedBounds: 4541, PrunedIllegal: 4546, PrunedEquivalence: 24, PrunedStrongEq: 0, PrunedAlphaBeta: 2755, PrunedLowerBound: 684, PrunedResource: 184, PrunedPressure: 0, MemoHits: 581},
	"minreg-k=3/example":                         {TotalNOPs: 160, InitialNOPs: 185, RootLB: 116, Optimal: 59, Curtailed: 0, Infeasible: 1, OmegaCalls: 7143, SeedOmegaCalls: 973, SchedulesExamined: 204, Improvements: 92, PrunedBounds: 4419, PrunedIllegal: 6144, PrunedEquivalence: 56, PrunedStrongEq: 0, PrunedAlphaBeta: 656, PrunedLowerBound: 727, PrunedResource: 116, PrunedPressure: 2533, MemoHits: 850},
	"minreg-k=3/simulation":                      {TotalNOPs: 84, InitialNOPs: 113, RootLB: 61, Optimal: 59, Curtailed: 0, Infeasible: 1, OmegaCalls: 4323, SeedOmegaCalls: 941, SchedulesExamined: 188, Improvements: 80, PrunedBounds: 2768, PrunedIllegal: 3823, PrunedEquivalence: 20, PrunedStrongEq: 0, PrunedAlphaBeta: 472, PrunedLowerBound: 445, PrunedResource: 34, PrunedPressure: 1441, MemoHits: 431},
	"scoreboard=8x2/example":                     {TotalNOPs: 336, InitialNOPs: 348, RootLB: 336, Optimal: 60, Curtailed: 0, Infeasible: 0, OmegaCalls: 20, SeedOmegaCalls: 1126, SchedulesExamined: 129, Improvements: 1, PrunedBounds: 1, PrunedIllegal: 3, PrunedEquivalence: 0, PrunedStrongEq: 0, PrunedAlphaBeta: 0, PrunedLowerBound: 4, PrunedResource: 2, PrunedPressure: 0, MemoHits: 1},
	"scoreboard=8x2/simulation":                  {TotalNOPs: 237, InitialNOPs: 251, RootLB: 237, Optimal: 60, Curtailed: 0, Infeasible: 0, OmegaCalls: 20, SeedOmegaCalls: 1126, SchedulesExamined: 129, Improvements: 1, PrunedBounds: 1, PrunedIllegal: 3, PrunedEquivalence: 0, PrunedStrongEq: 0, PrunedAlphaBeta: 0, PrunedLowerBound: 4, PrunedResource: 2, PrunedPressure: 0, MemoHits: 1},
	"scoreboard=8x2-lambda40/example":            {TotalNOPs: 336, InitialNOPs: 348, RootLB: 336, Optimal: 60, Curtailed: 0, Infeasible: 0, OmegaCalls: 20, SeedOmegaCalls: 1126, SchedulesExamined: 129, Improvements: 1, PrunedBounds: 1, PrunedIllegal: 3, PrunedEquivalence: 0, PrunedStrongEq: 0, PrunedAlphaBeta: 0, PrunedLowerBound: 4, PrunedResource: 2, PrunedPressure: 0, MemoHits: 1},
	"scoreboard=8x2-lambda40/simulation":         {TotalNOPs: 237, InitialNOPs: 251, RootLB: 237, Optimal: 60, Curtailed: 0, Infeasible: 0, OmegaCalls: 20, SeedOmegaCalls: 1126, SchedulesExamined: 129, Improvements: 1, PrunedBounds: 1, PrunedIllegal: 3, PrunedEquivalence: 0, PrunedStrongEq: 0, PrunedAlphaBeta: 0, PrunedLowerBound: 4, PrunedResource: 2, PrunedPressure: 0, MemoHits: 1},
	"scoreboard=4x2-strong/example":              {TotalNOPs: 336, InitialNOPs: 348, RootLB: 336, Optimal: 60, Curtailed: 0, Infeasible: 0, OmegaCalls: 21, SeedOmegaCalls: 1126, SchedulesExamined: 129, Improvements: 1, PrunedBounds: 1, PrunedIllegal: 4, PrunedEquivalence: 0, PrunedStrongEq: 0, PrunedAlphaBeta: 0, PrunedLowerBound: 5, PrunedResource: 2, PrunedPressure: 0, MemoHits: 0},
	"scoreboard=4x2-strong/simulation":           {TotalNOPs: 237, InitialNOPs: 251, RootLB: 237, Optimal: 60, Curtailed: 0, Infeasible: 0, OmegaCalls: 21, SeedOmegaCalls: 1126, SchedulesExamined: 129, Improvements: 1, PrunedBounds: 1, PrunedIllegal: 4, PrunedEquivalence: 0, PrunedStrongEq: 0, PrunedAlphaBeta: 0, PrunedLowerBound: 5, PrunedResource: 2, PrunedPressure: 0, MemoHits: 0},
	"scoreboard=1x1/example":                     {TotalNOPs: 136, InitialNOPs: 161, RootLB: 136, Optimal: 60, Curtailed: 0, Infeasible: 0, OmegaCalls: 308, SeedOmegaCalls: 1172, SchedulesExamined: 144, Improvements: 14, PrunedBounds: 7, PrunedIllegal: 73, PrunedEquivalence: 0, PrunedStrongEq: 0, PrunedAlphaBeta: 2, PrunedLowerBound: 67, PrunedResource: 55, PrunedPressure: 0, MemoHits: 3},
	"scoreboard=1x1/simulation":                  {TotalNOPs: 75, InitialNOPs: 92, RootLB: 74, Optimal: 60, Curtailed: 0, Infeasible: 0, OmegaCalls: 737, SeedOmegaCalls: 1079, SchedulesExamined: 128, Improvements: 9, PrunedBounds: 605, PrunedIllegal: 709, PrunedEquivalence: 0, PrunedStrongEq: 0, PrunedAlphaBeta: 6, PrunedLowerBound: 187, PrunedResource: 206, PrunedPressure: 0, MemoHits: 74},
	"scoreboard=8x2-nomemo/example":              {TotalNOPs: 336, InitialNOPs: 348, RootLB: 336, Optimal: 60, Curtailed: 0, Infeasible: 0, OmegaCalls: 21, SeedOmegaCalls: 1126, SchedulesExamined: 129, Improvements: 1, PrunedBounds: 1, PrunedIllegal: 4, PrunedEquivalence: 0, PrunedStrongEq: 0, PrunedAlphaBeta: 0, PrunedLowerBound: 5, PrunedResource: 2, PrunedPressure: 0, MemoHits: 0},
	"scoreboard=8x2-nomemo/simulation":           {TotalNOPs: 237, InitialNOPs: 251, RootLB: 237, Optimal: 60, Curtailed: 0, Infeasible: 0, OmegaCalls: 21, SeedOmegaCalls: 1126, SchedulesExamined: 129, Improvements: 1, PrunedBounds: 1, PrunedIllegal: 4, PrunedEquivalence: 0, PrunedStrongEq: 0, PrunedAlphaBeta: 0, PrunedLowerBound: 5, PrunedResource: 2, PrunedPressure: 0, MemoHits: 0},
	"scoreboard=8x2-lambda40-nomemo/example":     {TotalNOPs: 336, InitialNOPs: 348, RootLB: 336, Optimal: 60, Curtailed: 0, Infeasible: 0, OmegaCalls: 21, SeedOmegaCalls: 1126, SchedulesExamined: 129, Improvements: 1, PrunedBounds: 1, PrunedIllegal: 4, PrunedEquivalence: 0, PrunedStrongEq: 0, PrunedAlphaBeta: 0, PrunedLowerBound: 5, PrunedResource: 2, PrunedPressure: 0, MemoHits: 0},
	"scoreboard=8x2-lambda40-nomemo/simulation":  {TotalNOPs: 237, InitialNOPs: 251, RootLB: 237, Optimal: 60, Curtailed: 0, Infeasible: 0, OmegaCalls: 21, SeedOmegaCalls: 1126, SchedulesExamined: 129, Improvements: 1, PrunedBounds: 1, PrunedIllegal: 4, PrunedEquivalence: 0, PrunedStrongEq: 0, PrunedAlphaBeta: 0, PrunedLowerBound: 5, PrunedResource: 2, PrunedPressure: 0, MemoHits: 0},
	"scoreboard=4x2-strong-nomemo/example":       {TotalNOPs: 336, InitialNOPs: 348, RootLB: 336, Optimal: 60, Curtailed: 0, Infeasible: 0, OmegaCalls: 21, SeedOmegaCalls: 1126, SchedulesExamined: 129, Improvements: 1, PrunedBounds: 1, PrunedIllegal: 4, PrunedEquivalence: 0, PrunedStrongEq: 0, PrunedAlphaBeta: 0, PrunedLowerBound: 5, PrunedResource: 2, PrunedPressure: 0, MemoHits: 0},
	"scoreboard=4x2-strong-nomemo/simulation":    {TotalNOPs: 237, InitialNOPs: 251, RootLB: 237, Optimal: 60, Curtailed: 0, Infeasible: 0, OmegaCalls: 21, SeedOmegaCalls: 1126, SchedulesExamined: 129, Improvements: 1, PrunedBounds: 1, PrunedIllegal: 4, PrunedEquivalence: 0, PrunedStrongEq: 0, PrunedAlphaBeta: 0, PrunedLowerBound: 5, PrunedResource: 2, PrunedPressure: 0, MemoHits: 0},
	"scoreboard=1x1-nomemo/example":              {TotalNOPs: 136, InitialNOPs: 161, RootLB: 136, Optimal: 60, Curtailed: 0, Infeasible: 0, OmegaCalls: 353, SeedOmegaCalls: 1172, SchedulesExamined: 144, Improvements: 14, PrunedBounds: 7, PrunedIllegal: 92, PrunedEquivalence: 0, PrunedStrongEq: 0, PrunedAlphaBeta: 2, PrunedLowerBound: 92, PrunedResource: 65, PrunedPressure: 0, MemoHits: 0},
	"scoreboard=1x1-nomemo/simulation":           {TotalNOPs: 75, InitialNOPs: 92, RootLB: 74, Optimal: 60, Curtailed: 0, Infeasible: 0, OmegaCalls: 1316, SeedOmegaCalls: 1079, SchedulesExamined: 128, Improvements: 9, PrunedBounds: 1058, PrunedIllegal: 1622, PrunedEquivalence: 0, PrunedStrongEq: 0, PrunedAlphaBeta: 6, PrunedLowerBound: 416, PrunedResource: 458, PrunedPressure: 0, MemoHits: 0},
	"scoreboard=8x2-nobound/example":             {TotalNOPs: 336, InitialNOPs: 348, RootLB: 0, Optimal: 55, Curtailed: 5, Infeasible: 0, OmegaCalls: 154865, SeedOmegaCalls: 1011, SchedulesExamined: 129, Improvements: 10, PrunedBounds: 30731, PrunedIllegal: 146786, PrunedEquivalence: 330, PrunedStrongEq: 0, PrunedAlphaBeta: 16911, PrunedLowerBound: 0, PrunedResource: 0, PrunedPressure: 0, MemoHits: 83926},
	"scoreboard=8x2-nobound/simulation":          {TotalNOPs: 238, InitialNOPs: 251, RootLB: 0, Optimal: 55, Curtailed: 5, Infeasible: 0, OmegaCalls: 143726, SeedOmegaCalls: 999, SchedulesExamined: 129, Improvements: 11, PrunedBounds: 28578, PrunedIllegal: 135395, PrunedEquivalence: 222, PrunedStrongEq: 0, PrunedAlphaBeta: 14601, PrunedLowerBound: 0, PrunedResource: 0, PrunedPressure: 0, MemoHits: 78939},
	"scoreboard=8x2-lambda40-nobound/example":    {TotalNOPs: 343, InitialNOPs: 348, RootLB: 0, Optimal: 21, Curtailed: 39, Infeasible: 0, OmegaCalls: 1780, SeedOmegaCalls: 1011, SchedulesExamined: 122, Improvements: 3, PrunedBounds: 389, PrunedIllegal: 248, PrunedEquivalence: 5, PrunedStrongEq: 0, PrunedAlphaBeta: 360, PrunedLowerBound: 0, PrunedResource: 0, PrunedPressure: 0, MemoHits: 435},
	"scoreboard=8x2-lambda40-nobound/simulation": {TotalNOPs: 244, InitialNOPs: 251, RootLB: 0, Optimal: 22, Curtailed: 38, Infeasible: 0, OmegaCalls: 1740, SeedOmegaCalls: 999, SchedulesExamined: 123, Improvements: 5, PrunedBounds: 393, PrunedIllegal: 255, PrunedEquivalence: 6, PrunedStrongEq: 0, PrunedAlphaBeta: 382, PrunedLowerBound: 0, PrunedResource: 0, PrunedPressure: 0, MemoHits: 403},
	"scoreboard=4x2-strong-nobound/example":      {TotalNOPs: 336, InitialNOPs: 348, RootLB: 0, Optimal: 58, Curtailed: 2, Infeasible: 0, OmegaCalls: 108918, SeedOmegaCalls: 1011, SchedulesExamined: 129, Improvements: 10, PrunedBounds: 33423, PrunedIllegal: 112272, PrunedEquivalence: 0, PrunedStrongEq: 889, PrunedAlphaBeta: 8723, PrunedLowerBound: 0, PrunedResource: 0, PrunedPressure: 0, MemoHits: 62641},
	"scoreboard=4x2-strong-nobound/simulation":   {TotalNOPs: 237, InitialNOPs: 251, RootLB: 0, Optimal: 59, Curtailed: 1, Infeasible: 0, OmegaCalls: 102432, SeedOmegaCalls: 999, SchedulesExamined: 130, Improvements: 12, PrunedBounds: 31853, PrunedIllegal: 106001, PrunedEquivalence: 0, PrunedStrongEq: 862, PrunedAlphaBeta: 8119, PrunedLowerBound: 0, PrunedResource: 0, PrunedPressure: 0, MemoHits: 58629},
	"scoreboard=1x1-nobound/example":             {TotalNOPs: 136, InitialNOPs: 161, RootLB: 0, Optimal: 60, Curtailed: 0, Infeasible: 0, OmegaCalls: 27925, SeedOmegaCalls: 970, SchedulesExamined: 137, Improvements: 25, PrunedBounds: 5497, PrunedIllegal: 23937, PrunedEquivalence: 189, PrunedStrongEq: 0, PrunedAlphaBeta: 4634, PrunedLowerBound: 0, PrunedResource: 0, PrunedPressure: 0, MemoHits: 13038},
	"scoreboard=1x1-nobound/simulation":          {TotalNOPs: 75, InitialNOPs: 92, RootLB: 0, Optimal: 60, Curtailed: 0, Infeasible: 0, OmegaCalls: 20499, SeedOmegaCalls: 912, SchedulesExamined: 122, Improvements: 17, PrunedBounds: 3799, PrunedIllegal: 19928, PrunedEquivalence: 0, PrunedStrongEq: 0, PrunedAlphaBeta: 2382, PrunedLowerBound: 0, PrunedResource: 0, PrunedPressure: 0, MemoHits: 10700},
}

// goldenCorpus is the seeded block corpus of the golden pin.
func goldenCorpus(t *testing.T) []*dag.Graph {
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
	return graphs
}

var goldenMachines = []struct {
	name string
	m    *machine.Machine
}{{"example", machine.ExampleMachine()}, {"simulation", machine.SimulationMachine()}}

// measureEffort sums one golden case's search effort over the corpus.
func measureEffort(t *testing.T, c goldenCase, m *machine.Machine, graphs []*dag.Graph) effort {
	mode, err := machine.ParseSchedMode(c.sched)
	if err != nil {
		t.Fatal(err)
	}
	lambda := c.lambda
	if lambda == 0 {
		lambda = goldenLambda
	}
	var e effort
	for i, g := range graphs {
		s, err := Find(g, m, Options{
			Sched:             mode,
			Lambda:            lambda,
			SeedPriority:      listsched.ByHeight,
			StrongEquivalence: c.strong,
			DisableLowerBound: c.ablated || c.nobound,
			DisableMemo:       c.ablated || c.nomemo,
		})
		if errors.Is(err, ErrInfeasible) {
			e.Infeasible++
			continue
		}
		if err != nil {
			t.Fatalf("%s block %d: %v", c.name, i, err)
		}
		e.add(s)
	}
	return e
}

// TestSearchEffortGolden pins the sequential search's node counts, prune
// attribution and result costs in every sched mode over a seeded synth
// corpus on the paper's two machines. A refactor of the search must
// leave every number unchanged.
func TestSearchEffortGolden(t *testing.T) {
	graphs := goldenCorpus(t)
	var got strings.Builder
	mismatch := false
	measured := map[string]effort{}
	for _, c := range goldenCases {
		for _, mc := range goldenMachines {
			key := c.name + "/" + mc.name
			e := measureEffort(t, c, mc.m, graphs)
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
	for _, mc := range goldenMachines {
		ablated, paper := measured["paper-ablated/"+mc.name], measured["paper/"+mc.name]
		if ablated.Optimal != len(graphs) {
			t.Errorf("paper-ablated/%s: %d of %d blocks proved optimal", mc.name, ablated.Optimal, len(graphs))
		}
		if ablated.TotalNOPs != paper.TotalNOPs {
			t.Errorf("paper-ablated/%s: %d NOPs, paper %d: the bound engine or the memo changed an optimum",
				mc.name, ablated.TotalNOPs, paper.TotalNOPs)
		}
	}
	// The scoreboard memo and lower bounds only prune, so under the same λ
	// each can only finish more blocks, at no more stalls in all.
	for _, c := range goldenCases {
		what := ""
		switch {
		case c.nomemo:
			what = "memo"
		case c.nobound:
			what = "bound"
		default:
			continue
		}
		for _, mc := range goldenMachines {
			off := measured[c.name+"/"+mc.name]
			name := strings.TrimSuffix(c.name, "-no"+what) + "/" + mc.name
			on := measured[name]
			if on.TotalNOPs > off.TotalNOPs || on.Optimal < off.Optimal {
				t.Errorf("%s: %s on %d stalls, %d optimal; off %d stalls, %d optimal",
					name, what, on.TotalNOPs, on.Optimal, off.TotalNOPs, off.Optimal)
			}
		}
	}
}

// TestSearchEffortGoldenCollidingHash reruns the golden rows that use the
// dominance memo, in every mode, with every key hashed to one value: each
// lookup then walks one probe chain holding every stored state, and the
// full-key compare alone must keep every count exactly as pinned.
func TestSearchEffortGoldenCollidingHash(t *testing.T) {
	defer func(orig func(int, int) *memo.Table) { newTable = orig }(newTable)
	newTable = func(capEntries, capWords int) *memo.Table {
		return memo.NewTableHash(capEntries, capWords, func([]uint64) uint64 { return 0 })
	}
	graphs := goldenCorpus(t)
	for _, c := range goldenCases {
		if c.ablated || c.nomemo {
			continue // no memo
		}
		for _, mc := range goldenMachines {
			key := c.name + "/" + mc.name
			if e := measureEffort(t, c, mc.m, graphs); e != goldenEffort[key] {
				t.Errorf("%s: effort with colliding hashes\n got %+v\nwant %+v", key, e, goldenEffort[key])
			}
		}
	}
}
