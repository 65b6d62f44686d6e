package pipesched

// The benchmark harness regenerates every table and figure of the
// paper's evaluation (run with `go test -bench=. -benchmem`):
//
//	BenchmarkTable1*     — the search-space comparison (Table 1)
//	BenchmarkTable7*     — the scheduling campaign behind Table 7
//	BenchmarkFigure1/4/5/6/7 — the five result figures
//
// plus component benchmarks (Ω evaluation, list scheduling, the search
// at several block sizes) and ablations of each pruning rule, matching
// the design-choice index in DESIGN.md.

import (
	"context"
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"pipesched/internal/core"
	"pipesched/internal/dag"
	"pipesched/internal/exhaustive"
	"pipesched/internal/experiments"
	"pipesched/internal/gross"
	"pipesched/internal/ir"
	"pipesched/internal/kernels"
	"pipesched/internal/listsched"
	"pipesched/internal/machine"
	"pipesched/internal/nopins"
	"pipesched/internal/opt"
	"pipesched/internal/seqsched"
	"pipesched/internal/synth"
	"pipesched/internal/tuplegen"
)

// --- Table 1: search-space comparison ------------------------------------

// BenchmarkTable1 regenerates the Table 1 comparison on a reduced size
// list (full paper sizes run via cmd/paperfigs -table 1).
func BenchmarkTable1(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := experiments.RunTable1(experiments.Table1Config{
			Seed:     1990,
			Sizes:    []int{8, 11, 13, 14},
			LegalCap: 500_000,
			Lambda:   1_000_000,
		})
		if err != nil {
			b.Fatal(err)
		}
		if len(rows) != 4 {
			b.Fatal("missing rows")
		}
	}
}

// BenchmarkTable1LegalEnumeration isolates the "pruning illegal" column:
// full enumeration of legal schedules for one 13-instruction block.
func BenchmarkTable1LegalEnumeration(b *testing.B) {
	g := benchGraph(b, 13)
	m := machine.SimulationMachine()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r := exhaustive.SearchLegal(g, m, 1_000_000)
		if !r.Found {
			b.Fatal("no schedule found")
		}
	}
}

// BenchmarkTable1ProposedSearch isolates the "proposed pruning" column on
// the same size block.
func BenchmarkTable1ProposedSearch(b *testing.B) {
	g := benchGraph(b, 13)
	m := machine.SimulationMachine()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := core.Find(g, m, core.Options{Lambda: 1_000_000}); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Table 7 and the figures ----------------------------------------------

// benchCampaign memoizes one reduced campaign shared by the figure
// benchmarks (the figures all render from the same records, exactly as
// the paper's figures all come from the same 16,000 runs).
var (
	campaignOnce sync.Once
	campaignVal  *experiments.Campaign
	campaignErr  error
)

func benchCampaign(b *testing.B) *experiments.Campaign {
	b.Helper()
	campaignOnce.Do(func() {
		campaignVal, campaignErr = experiments.RunCampaign(experiments.CampaignConfig{
			Runs: 800, Seed: 1990, Lambda: 50_000,
		})
	})
	if campaignErr != nil {
		b.Fatal(campaignErr)
	}
	return campaignVal
}

// BenchmarkTable7Campaign measures the scheduling campaign itself: 100
// synthetic blocks generated, list-scheduled and optimally scheduled per
// iteration (the paper's Table 7 is this at 16,000 blocks).
func BenchmarkTable7Campaign(b *testing.B) {
	for i := 0; i < b.N; i++ {
		c, err := experiments.RunCampaign(experiments.CampaignConfig{
			Runs: 100, Seed: int64(i + 1), Lambda: 50_000,
		})
		if err != nil {
			b.Fatal(err)
		}
		if len(c.Records) != 100 {
			b.Fatal("short campaign")
		}
	}
}

// BenchmarkTable7Render measures producing the table from records.
func BenchmarkTable7Render(b *testing.B) {
	c := benchCampaign(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if len(c.Table7()) == 0 {
			b.Fatal("empty table")
		}
	}
}

func benchFigure(b *testing.B, render func(*experiments.Campaign) string) {
	b.Helper()
	c := benchCampaign(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if len(render(c)) == 0 {
			b.Fatal("empty figure")
		}
	}
}

// BenchmarkFigure1 regenerates "Schedules Searched vs Block Size".
func BenchmarkFigure1(b *testing.B) { benchFigure(b, (*experiments.Campaign).Figure1) }

// BenchmarkFigure4 regenerates "Initial and Final NOPs vs Block Size".
func BenchmarkFigure4(b *testing.B) { benchFigure(b, (*experiments.Campaign).Figure4) }

// BenchmarkFigure5 regenerates "Distribution of Sample Block Sizes".
func BenchmarkFigure5(b *testing.B) { benchFigure(b, (*experiments.Campaign).Figure5) }

// BenchmarkFigure6 regenerates "Runtime vs Block Size".
func BenchmarkFigure6(b *testing.B) { benchFigure(b, (*experiments.Campaign).Figure6) }

// BenchmarkFigure7 regenerates "% Optimal vs Block Size".
func BenchmarkFigure7(b *testing.B) { benchFigure(b, (*experiments.Campaign).Figure7) }

// --- Component benchmarks --------------------------------------------------

// benchGraph deterministically generates a block with exactly n tuples.
func benchGraph(b *testing.B, n int) *dag.Graph {
	b.Helper()
	rng := rand.New(rand.NewSource(7))
	blk, err := synth.GenerateWithTuples(rng, n, synth.Params{Variables: 8, Constants: 6}, 0)
	if err != nil {
		b.Fatal(err)
	}
	g, err := dag.Build(blk.IR)
	if err != nil {
		b.Fatal(err)
	}
	return g
}

// BenchmarkOmegaFullEvaluation measures the O(n) procedure Q: pricing a
// complete 20-instruction schedule (the paper timed this at ~0.12ms on a
// Gould NP1).
func BenchmarkOmegaFullEvaluation(b *testing.B) {
	g := benchGraph(b, 20)
	m := machine.SimulationMachine()
	e := nopins.NewEvaluator(g, m, nopins.AssignFixed)
	order := listsched.Schedule(g, listsched.ByHeight)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := e.EvaluateOrder(order); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkOmegaIncremental measures one Push/Pop pair — the unit of
// search work that λ counts.
func BenchmarkOmegaIncremental(b *testing.B) {
	g := benchGraph(b, 20)
	m := machine.SimulationMachine()
	e := nopins.NewEvaluator(g, m, nopins.AssignFixed)
	order := listsched.Schedule(g, listsched.ByHeight)
	for _, u := range order[:g.N-1] {
		e.Push(u)
	}
	last := order[g.N-1]
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.Push(last)
		e.Pop()
	}
}

// BenchmarkListSchedule measures the seed heuristic.
func BenchmarkListSchedule(b *testing.B) {
	g := benchGraph(b, 20)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if len(listsched.Schedule(g, listsched.ByHeight)) != g.N {
			b.Fatal("short schedule")
		}
	}
}

// BenchmarkGrossGreedy measures the Gross-style baseline scheduler.
func BenchmarkGrossGreedy(b *testing.B) {
	g := benchGraph(b, 20)
	m := machine.SimulationMachine()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if len(gross.Schedule(g, m, nopins.AssignFixed).Order) != g.N {
			b.Fatal("short schedule")
		}
	}
}

// BenchmarkSearch measures the optimal search across block sizes.
func BenchmarkSearch(b *testing.B) {
	m := machine.SimulationMachine()
	for _, size := range []int{8, 12, 16, 20, 24} {
		g := benchGraph(b, size)
		b.Run(fmt.Sprintf("size=%d", size), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := core.Find(g, m, core.Options{Lambda: 200_000}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkDAGBuild measures dependence-graph construction.
func BenchmarkDAGBuild(b *testing.B) {
	g := benchGraph(b, 20)
	blk := g.Block
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := dag.Build(blk); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Ablations: the design choices DESIGN.md calls out ---------------------

// benchAblation runs the search over a fixed pool with one option set.
func benchAblation(b *testing.B, opts core.Options) {
	b.Helper()
	m := machine.SimulationMachine()
	var pool []*dag.Graph
	rng := rand.New(rand.NewSource(13))
	for len(pool) < 20 {
		blk, err := synth.Generate(rng, synth.Params{Statements: 6, Variables: 8, Constants: 6})
		if err != nil {
			b.Fatal(err)
		}
		g, err := dag.Build(blk.IR)
		if err != nil {
			b.Fatal(err)
		}
		pool = append(pool, g)
	}
	opts.Lambda = 200_000
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, g := range pool {
			if _, err := core.Find(g, m, opts); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// BenchmarkAblationBaseline is the full pruning configuration.
func BenchmarkAblationBaseline(b *testing.B) { benchAblation(b, core.Options{}) }

// BenchmarkAblationNoEquivalence disables the paper's [5c] filter.
func BenchmarkAblationNoEquivalence(b *testing.B) {
	benchAblation(b, core.Options{DisableEquivalence: true})
}

// BenchmarkAblationNoBoundsCheck disables the paper's [5a] quick check.
func BenchmarkAblationNoBoundsCheck(b *testing.B) {
	benchAblation(b, core.Options{DisableBoundsCheck: true})
}

// BenchmarkAblationStrongEquivalence enables the extension filter.
func BenchmarkAblationStrongEquivalence(b *testing.B) {
	benchAblation(b, core.Options{StrongEquivalence: true})
}

// BenchmarkAblationProgramOrderSeed replaces the list-schedule seed with
// program order, showing how much the good seed feeds α-β pruning.
func BenchmarkAblationProgramOrderSeed(b *testing.B) {
	benchAblation(b, core.Options{SeedPriority: listsched.ProgramOrder})
}

// BenchmarkAblationAssignSearch measures the exact pipeline-assignment
// extension on the multi-pipeline example machine.
func BenchmarkAblationAssignSearch(b *testing.B) {
	m := machine.ExampleMachine()
	g := benchGraph(b, 14)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := core.Find(g, m, core.Options{
			Lambda: 200_000, Assign: nopins.AssignGreedy, AssignSearch: true,
		}); err != nil {
			b.Fatal(err)
		}
	}
}

// endToEndSrc is the expression block BenchmarkCompileEndToEnd and
// TestCompileAllocs compile.
const endToEndSrc = "t = x * x\nnum = t * a + x * b + c\nden = t + x * b + 1\ny = num / den\n"

// maxCompileAllocs bounds the heap allocations of one CompileCtx of
// endToEndSrc, search included: 115 measured, plus under 5%.
const maxCompileAllocs = 120

// TestCompileAllocs pins the allocations of the whole compile pipeline
// around the search, as TestFindAllocsFlat pins the search's own.
func TestCompileAllocs(t *testing.T) {
	m := SimulationMachine()
	var c *Compiled
	// opt and tuplegen keep their scratch in a sync.Pool, which the race
	// detector empties a quarter of the time; many runs keep the mean of
	// those refills steady.
	allocs := testing.AllocsPerRun(200, func() {
		var err error
		if c, err = CompileCtx(context.Background(), endToEndSrc, m, Options{Optimize: true}); err != nil {
			t.Fatal(err)
		}
	})
	if c.Quality != Optimal || c.Assembly == "" {
		t.Fatalf("block no longer compiles through the whole pipeline: quality %v, %d bytes of assembly",
			c.Quality, len(c.Assembly))
	}
	if allocs > maxCompileAllocs {
		t.Fatalf("CompileCtx allocated %.0f times, want ≤ %d", allocs, maxCompileAllocs)
	}
	t.Logf("%.0f allocations", allocs)
}

// BenchmarkCompileEndToEnd measures the whole public pipeline: parse,
// optimize, schedule, allocate, emit, verify.
func BenchmarkCompileEndToEnd(b *testing.B) {
	m := SimulationMachine()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Compile(endToEndSrc, m, Options{Optimize: true}); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Extension benchmarks ---------------------------------------------------

// BenchmarkSplitterLargeBlock measures the section 5.3 window scheduler
// on a block far beyond whole-block search reach.
func BenchmarkSplitterLargeBlock(b *testing.B) {
	rng := rand.New(rand.NewSource(21))
	blk, err := synth.Generate(rng, synth.Params{Statements: 60, Variables: 8, Constants: 6})
	if err != nil {
		b.Fatal(err)
	}
	g, err := dag.Build(blk.IR)
	if err != nil {
		b.Fatal(err)
	}
	m := machine.SimulationMachine()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, _, err := seqsched.Windows(g, m, 20, core.Options{Lambda: 20000}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSequenceScheduling measures footnote-1 threading over a run
// of adjacent blocks.
func BenchmarkSequenceScheduling(b *testing.B) {
	rng := rand.New(rand.NewSource(22))
	var blocks []*ir.Block
	for i := 0; i < 6; i++ {
		blk, err := synth.Generate(rng, synth.Params{Statements: 4, Variables: 6, Constants: 4})
		if err != nil {
			b.Fatal(err)
		}
		blocks = append(blocks, blk.IR)
	}
	m := machine.SimulationMachine()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := seqsched.Schedule(blocks, m, core.Options{Lambda: 50000}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkLambdaSweep measures the λ-convergence study (explorer study
// 2 / EXPERIMENTS.md Figure 7 commentary) at a reduced scale.
func BenchmarkLambdaSweep(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.RunLambdaSweep(7, 10, 6, machine.SimulationMachine(),
			[]int64{100, 10000}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkWindowSweep measures the section 5.3 window study at a
// reduced scale.
func BenchmarkWindowSweep(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.RunWindowSweep(7, 4, 30, nil, []int{10, 20}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkPostpassStudy measures the prepass-vs-postpass register
// constraint comparison at reduced scale.
func BenchmarkPostpassStudy(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.RunPostpass(17, 10, 6, nil, []int{0}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAblationStudy measures the full per-rule ablation at reduced
// scale.
func BenchmarkAblationStudy(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.RunAblation(13, 10, 6, nil, 100000); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkGreedyGapStudy measures the greedy-vs-optimal comparison at
// reduced scale.
func BenchmarkGreedyGapStudy(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.RunGreedyGap(21, 10, 6,
			[]*machine.Machine{machine.SimulationMachine()}, 100000); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkKernelSuite schedules every realistic kernel optimally on the
// simulation machine — the end-user workload benchmark.
func BenchmarkKernelSuite(b *testing.B) {
	type prepared struct {
		g *dag.Graph
	}
	var pool []prepared
	for _, k := range kernels.All() {
		blk, err := tuplegen.Compile(k.Source, k.Name)
		if err != nil {
			b.Fatal(err)
		}
		blk = opt.Optimize(blk)
		g, err := dag.Build(blk)
		if err != nil {
			b.Fatal(err)
		}
		pool = append(pool, prepared{g: g})
	}
	m := machine.SimulationMachine()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, p := range pool {
			if _, err := core.Find(p.g, m, core.Options{Lambda: 100000}); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// BenchmarkJitterStudy measures the variable-latency mechanism study at
// reduced scale.
func BenchmarkJitterStudy(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.RunJitterStudy(25, 5, 5, 2, nil, []float64{0.5}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkReassociation measures the rebalancing pass on a wide sum.
func BenchmarkReassociation(b *testing.B) {
	blk, err := tuplegen.Compile(
		"s = a + b + c + d + e + f + g + h + i + j + k + l + m + n + o + p", "r")
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if opt.OptimizeReassoc(blk).Len() == 0 {
			b.Fatal("empty result")
		}
	}
}

// BenchmarkSearchParallel compares sequential and parallel search on a
// hard (deep-machine, wide) block.
func BenchmarkSearchParallel(b *testing.B) {
	g := benchGraph(b, 22)
	m := machine.DeepMachine()
	for _, workers := range []int{1, 2, 4} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				var err error
				if workers == 1 {
					_, err = core.Find(g, m, core.Options{Lambda: 300000})
				} else {
					_, err = core.FindParallel(g, m, core.Options{Lambda: 300000}, workers)
				}
				if err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkReassocStudy measures the kernel-suite reassociation
// comparison at reduced λ.
func BenchmarkReassocStudy(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.RunReassocStudy(machine.SimulationMachine(), 10000); err != nil {
			b.Fatal(err)
		}
	}
}
