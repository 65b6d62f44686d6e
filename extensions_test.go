package pipesched

import (
	"context"
	"errors"
	"math/rand"
	"strings"
	"testing"

	"pipesched/internal/asm"
	"pipesched/internal/dag"
	"pipesched/internal/ir"
	"pipesched/internal/sim"
	"pipesched/internal/synth"
)

func largeBlock(t *testing.T, statements int) *Block {
	t.Helper()
	rng := rand.New(rand.NewSource(77))
	b, err := synth.Generate(rng, synth.Params{
		Statements: statements, Variables: 8, Constants: 6,
	})
	if err != nil {
		t.Fatal(err)
	}
	return b.IR
}

func TestScheduleLargeBasics(t *testing.T) {
	m := SimulationMachine()
	block := largeBlock(t, 60) // ~150+ tuples: far beyond whole-block search
	c, err := ScheduleLarge(block, m, 20, Options{Lambda: 20000})
	if err != nil {
		t.Fatal(err)
	}
	if c.Scheduled.Len() != block.Len() {
		t.Error("splitting lost instructions")
	}
	if c.Assembly == "" {
		t.Error("no assembly emitted")
	}
	// The seed figure is the windows' seeds summed: never below the
	// delivered cost, and non-zero when the windows pay NOPs (as they do
	// at window 5 on this block).
	small, err := ScheduleLarge(block, m, 5, Options{Lambda: 20000})
	if err != nil {
		t.Fatal(err)
	}
	if small.InitialNOPs < small.TotalNOPs || small.InitialNOPs == 0 {
		t.Errorf("window 5: InitialNOPs = %d, want > 0 and ≥ TotalNOPs %d", small.InitialNOPs, small.TotalNOPs)
	}
	// The finish() verification already re-simulated the schedule; also
	// check semantics end to end via the tuple interpreter.
	env1 := ir.Env{}
	env2 := ir.Env{}
	for _, v := range block.Vars() {
		env1[v] = int64(len(v)) + 3
		env2[v] = int64(len(v)) + 3
	}
	if _, err := ir.Exec(block, env1); err != nil {
		t.Skipf("block faults at runtime: %v", err)
	}
	if _, err := ir.Exec(c.Scheduled, env2); err != nil {
		t.Fatal(err)
	}
	for k, v := range env1 {
		if env2[k] != v {
			t.Errorf("split scheduling broke semantics at %s: %d vs %d", k, env2[k], v)
		}
	}
}

// TestScheduleLargeHonoursOptions: every window's search runs under the
// caller's Options, as a whole-block search does — a trace records the
// windows' events, and the exact-assignment and strong-equivalence
// extensions still yield legal, simulator-verified schedules.
func TestScheduleLargeHonoursOptions(t *testing.T) {
	block := tangleBlock(6)
	g, err := dag.Build(block)
	if err != nil {
		t.Fatal(err)
	}
	verified := func(name string, c *Compiled, m *Machine) {
		t.Helper()
		if c.Quality > Incumbent {
			t.Fatalf("%s: quality %s, want a search result", name, c.Quality)
		}
		if !g.IsLegalOrder(c.Order) {
			t.Fatalf("%s: illegal order", name)
		}
		if _, err := sim.Run(sim.Input{Graph: g, M: m, Order: c.Order, Eta: c.Eta, Pipes: c.Pipes}, sim.NOPPadding); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
	}

	var c *Compiled
	spans := traceCompile(t, func(ctx context.Context) {
		c, err = ScheduleLargeCtx(ctx, block, SimulationMachine(), 8, Options{TraceSearch: 10_000})
	})
	if err != nil {
		t.Fatal(err)
	}
	if c.Stats.OmegaCalls == 0 {
		t.Fatal("test block should make the windows search")
	}
	if len(searchPoints(t, spans)) == 0 {
		t.Error("TraceSearch recorded no events for the windows' searches")
	}

	em := ExampleMachine()
	c, err = ScheduleLarge(block, em, 8, Options{AssignPipelines: true})
	if err != nil {
		t.Fatal(err)
	}
	verified("AssignPipelines", c, em)

	c, err = ScheduleLarge(block, SimulationMachine(), 8, Options{StrongEquivalence: true})
	if err != nil {
		t.Fatal(err)
	}
	verified("StrongEquivalence", c, SimulationMachine())
}

func TestScheduleLargeDefaultWindow(t *testing.T) {
	m := SimulationMachine()
	block := largeBlock(t, 20)
	c, err := ScheduleLarge(block, m, 0, Options{Lambda: 20000})
	if err != nil {
		t.Fatal(err)
	}
	if len(c.Order) != block.Len() {
		t.Error("default window scheduling incomplete")
	}
}

func TestScheduleLargeAgreesWithScheduleOnSmallBlocks(t *testing.T) {
	m := SimulationMachine()
	b, err := ParseBlock(`s:
  1: Const 15
  2: Store #b, @1
  3: Load #a
  4: Mul @1, @3
  5: Store #a, @4`)
	if err != nil {
		t.Fatal(err)
	}
	whole, err := Schedule(b, m, Options{})
	if err != nil {
		t.Fatal(err)
	}
	split, err := ScheduleLarge(b, m, 10, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if split.TotalNOPs != whole.TotalNOPs {
		t.Errorf("one-window split %d NOPs, whole %d", split.TotalNOPs, whole.TotalNOPs)
	}
}

func TestScheduleSequenceThreadsBoundaries(t *testing.T) {
	m := SimulationMachine()
	b1, err := ParseBlock("one:\n  1: Mul 2, 3\n  2: Store #p, @1")
	if err != nil {
		t.Fatal(err)
	}
	b2, err := ParseBlock("two:\n  1: Mul 4, 5\n  2: Store #q, @1")
	if err != nil {
		t.Fatal(err)
	}
	r, err := ScheduleSequence([]*Block{b1, b2}, m, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Blocks) != 2 {
		t.Fatalf("got %d block results", len(r.Blocks))
	}
	if !r.Optimal {
		t.Error("tiny sequence should be optimal")
	}
	// Block one: Mul t1, Store waits for latency 4 -> t5 (3 NOPs).
	// Block two begins at t6: multiplier last enqueued t1, spacing fine;
	// same structure costs 3 NOPs again. Total ticks 10, NOPs 6.
	if r.TotalNOPs != 6 || r.TotalTicks != 10 {
		t.Errorf("NOPs=%d ticks=%d, want 6 and 10", r.TotalNOPs, r.TotalTicks)
	}
	// Per-block assemblies carry their own delays.
	for i, c := range r.Blocks {
		if !strings.Contains(c.Assembly, "MUL") {
			t.Errorf("block %d assembly missing MUL:\n%s", i, c.Assembly)
		}
	}
}

func TestScheduleSequenceBoundaryNOP(t *testing.T) {
	// Single multiplies back to back: the only delay is the boundary one.
	m := SimulationMachine()
	b1, err := ParseBlock("one:\n  1: Mul 2, 3")
	if err != nil {
		t.Fatal(err)
	}
	b2, err := ParseBlock("two:\n  1: Mul 4, 5")
	if err != nil {
		t.Fatal(err)
	}
	r, err := ScheduleSequence([]*Block{b1, b2}, m, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if r.TotalNOPs != 1 {
		t.Errorf("boundary NOPs = %d, want 1", r.TotalNOPs)
	}
	// The boundary delay must surface as a leading NOP in block two's
	// NOP-padded assembly.
	if !strings.Contains(r.Blocks[1].Assembly, "NOP") {
		t.Errorf("block two lacks the boundary NOP:\n%s", r.Blocks[1].Assembly)
	}
	if strings.Contains(r.Blocks[0].Assembly, "NOP") {
		t.Errorf("block one should have no NOPs:\n%s", r.Blocks[0].Assembly)
	}
}

func TestScheduleSequenceEmpty(t *testing.T) {
	r, err := ScheduleSequence(nil, SimulationMachine(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Blocks) != 0 || r.TotalTicks != 0 || !r.Optimal {
		t.Errorf("empty sequence: %+v", r)
	}
}

// TestSequenceHeuristicOnly: HeuristicOnly skips the search in a
// sequence exactly as in a single block. Every block comes back on the
// Heuristic rung, with no Ω-calls and a certified gap.
func TestSequenceHeuristicOnly(t *testing.T) {
	src := `
block a {
    x = p * q
    y = x * r + p * s
    z = y * x
}
block b {
    w = z * z + y
}
`
	m, o := ExampleMachine(), Options{HeuristicOnly: true}
	blocks, err := CompileSequence(src, m, Options{})
	if err != nil {
		t.Fatal(err)
	}
	var originals []*Block
	for _, c := range blocks.Blocks {
		originals = append(originals, c.Original)
	}
	ctx := context.Background()
	compiled, err := CompileSequenceCtx(ctx, src, m, o)
	if err != nil {
		t.Fatal(err)
	}
	scheduled, err := ScheduleSequenceCtx(ctx, originals, m, o)
	if err != nil {
		t.Fatal(err)
	}
	for name, r := range map[string]*SequenceResult{"CompileSequenceCtx": compiled, "ScheduleSequenceCtx": scheduled} {
		if r.Quality != Heuristic || r.Optimal || len(r.Blocks) != 2 {
			t.Errorf("%s: quality=%v optimal=%v blocks=%d, want 2 heuristic blocks", name, r.Quality, r.Optimal, len(r.Blocks))
		}
		for _, c := range r.Blocks {
			if c.Quality != Heuristic || c.Stats.OmegaCalls != 0 || c.Gap < 0 {
				t.Errorf("%s block %s: quality=%v omega=%d gap=%d, want heuristic, 0 and ≥ 0",
					name, c.Original.Label, c.Quality, c.Stats.OmegaCalls, c.Gap)
			}
		}
	}
}

func TestCompileTeraMode(t *testing.T) {
	m := SimulationMachine()
	c, err := Compile("x = a * b\ny = x * x\n", m, Options{Mode: TeraInterlock})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(c.Assembly, "[back=") {
		t.Errorf("tera assembly lacks lookback tags:\n%s", c.Assembly)
	}
	if strings.Contains(c.Assembly, "NOP") {
		t.Errorf("tera assembly contains NOPs:\n%s", c.Assembly)
	}
}

func TestCompileReassociate(t *testing.T) {
	// Deep pipelines (adder latency 3) make the comb chain's serial
	// height impossible to hide, so rebalancing pays off decisively.
	m, err := ParseMachine(`machine deeptest
pipe 1 loader latency=4 enqueue=1
pipe 2 adder latency=3 enqueue=1
op Load -> {1}
op Add -> {2}
op Sub -> {2}
`)
	if err != nil {
		t.Fatal(err)
	}
	src := "s = a + b + c + d + e + f + g + h;"
	plain, err := Compile(src, m, Options{Optimize: true})
	if err != nil {
		t.Fatal(err)
	}
	reass, err := Compile(src, m, Options{Reassociate: true})
	if err != nil {
		t.Fatal(err)
	}
	// The balanced tree exposes parallelism the comb cannot: the
	// scheduled NOP count must not increase, and for this chain on the
	// simulation machine it strictly drops.
	if reass.TotalNOPs > plain.TotalNOPs {
		t.Errorf("reassociation hurt: %d -> %d NOPs", plain.TotalNOPs, reass.TotalNOPs)
	}
	if reass.Ticks >= plain.Ticks {
		t.Errorf("reassociation should shorten the sum chain: %d -> %d ticks",
			plain.Ticks, reass.Ticks)
	}
	// Same final memory either way.
	env1 := ir.Env{"a": 1, "b": 2, "c": 3, "d": 4, "e": 5, "f": 6, "g": 7, "h": 8}
	env2 := env1.Clone()
	if _, err := ir.Exec(plain.Scheduled, env1); err != nil {
		t.Fatal(err)
	}
	if _, err := ir.Exec(reass.Scheduled, env2); err != nil {
		t.Fatal(err)
	}
	if env1["s"] != env2["s"] || env1["s"] != 36 {
		t.Errorf("s = %d and %d, want 36", env1["s"], env2["s"])
	}
}

func TestCompileSequenceMultiBlock(t *testing.T) {
	src := `
block init {
    x = 5
    y = x * 3
}
block step {
    y = y + x
    z = y * y
}
`
	m := SimulationMachine()
	r, err := CompileSequence(src, m, Options{Optimize: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Blocks) != 2 {
		t.Fatalf("got %d blocks", len(r.Blocks))
	}
	if r.Blocks[0].Original.Label != "init" || r.Blocks[1].Original.Label != "step" {
		t.Errorf("labels = %q, %q", r.Blocks[0].Original.Label, r.Blocks[1].Original.Label)
	}
	// Execute both blocks' scheduled tuples in order; must match the
	// AST-level reference.
	env := ir.Env{}
	for _, c := range r.Blocks {
		if _, err := ir.Exec(c.Scheduled, env); err != nil {
			t.Fatal(err)
		}
	}
	if env["x"] != 5 || env["y"] != 20 || env["z"] != 400 {
		t.Errorf("env = %v", env)
	}
	if !r.Optimal {
		t.Error("tiny sequence should be optimal")
	}
}

func TestCompileSequencePlainSource(t *testing.T) {
	r, err := CompileSequence("a = b * c", SimulationMachine(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Blocks) != 1 {
		t.Fatalf("got %d blocks", len(r.Blocks))
	}
}

func TestCompileSequenceParseError(t *testing.T) {
	if _, err := CompileSequence("block { }", SimulationMachine(), Options{}); !errors.Is(err, ErrInvalidSource) {
		t.Errorf("bad block syntax: err = %v, want ErrInvalidSource", err)
	}
}

func TestCompileExplainNOPs(t *testing.T) {
	m := SimulationMachine()
	c, err := Compile("x = a * b\ny = x * x\n", m, Options{ExplainNOPs: true})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(c.Assembly, "; waits") {
		t.Errorf("annotated assembly lacks delay causes:\n%s", c.Assembly)
	}
	// Annotated assembly must still parse and execute (comments ignored).
	mem, err := asmRun(c.Assembly, map[string]int64{"a": 3, "b": 4})
	if err != nil {
		t.Fatal(err)
	}
	if mem["y"] != 144 {
		t.Errorf("y = %d, want 144", mem["y"])
	}
}

// asmRun executes assembly text on the register-machine interpreter.
func asmRun(text string, mem map[string]int64) (map[string]int64, error) {
	return asm.Run(text, mem)
}

func TestScheduleWithWorkers(t *testing.T) {
	b, err := ParseBlock(`w:
  1: Load #a
  2: Load #b
  3: Load #c
  4: Mul @1, @2
  5: Mul @2, @3
  6: Add @4, @5
  7: Store #r, @6`)
	if err != nil {
		t.Fatal(err)
	}
	m := SimulationMachine()
	seq, err := Schedule(b, m, Options{})
	if err != nil {
		t.Fatal(err)
	}
	par, err := Schedule(b, m, Options{Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	if par.TotalNOPs != seq.TotalNOPs {
		t.Errorf("parallel %d NOPs vs sequential %d", par.TotalNOPs, seq.TotalNOPs)
	}
	if !par.Optimal {
		t.Error("parallel schedule should be provably optimal here")
	}
}

func TestCompiledReport(t *testing.T) {
	m := SimulationMachine()
	c, err := Compile("b = 15;\na = b * a;", m, Options{})
	if err != nil {
		t.Fatal(err)
	}
	out := c.Report(m)
	for _, want := range []string{
		"pipesched report", "source", "tuples (program order)",
		"tuples (scheduled order)", "NOPs:", "optimal:      true",
		"pruned:", "registers:", "assembly",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("report missing %q:\n%s", want, out)
		}
	}
}

// TestSearchInvariantUnderTupleRenumbering: the optimum depends only on
// the dependence/pipeline structure, never on tuple reference numbers.
func TestSearchInvariantUnderTupleRenumbering(t *testing.T) {
	m := SimulationMachine()
	b, err := ParseBlock(`orig:
  1: Load #a
  2: Load #b
  3: Mul @1, @2
  4: Add @3, @1
  5: Store #r, @4`)
	if err != nil {
		t.Fatal(err)
	}
	// Same structure with scattered IDs.
	renum, err := ParseBlock(`renum:
  10: Load #a
  20: Load #b
  35: Mul @10, @20
  47: Add @35, @10
  90: Store #r, @47`)
	if err != nil {
		t.Fatal(err)
	}
	c1, err := Schedule(b, m, Options{})
	if err != nil {
		t.Fatal(err)
	}
	c2, err := Schedule(renum, m, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if c1.TotalNOPs != c2.TotalNOPs || c1.Ticks != c2.Ticks {
		t.Errorf("renumbering changed the schedule: %d/%d vs %d/%d NOPs/ticks",
			c1.TotalNOPs, c1.Ticks, c2.TotalNOPs, c2.Ticks)
	}
}
