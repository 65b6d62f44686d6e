package asm

import (
	"math/rand"
	"strings"
	"testing"
	"testing/quick"

	"pipesched/internal/codegen"
	"pipesched/internal/core"
	"pipesched/internal/dag"
	"pipesched/internal/frontend"
	"pipesched/internal/ir"
	"pipesched/internal/machine"
	"pipesched/internal/opt"
	"pipesched/internal/regalloc"
	"pipesched/internal/tuplegen"
)

func TestParseBasics(t *testing.T) {
	p, err := Parse(`demo:
	NOP
	LI R1, #15
	LOAD R0, a
	MUL R0, R1, R0   ; comment
	[wait=3] STORE a, R0
	STORE b, #7
`)
	if err != nil {
		t.Fatal(err)
	}
	if p.Label != "demo" {
		t.Errorf("label = %q", p.Label)
	}
	if len(p.Instrs) != 6 {
		t.Fatalf("got %d instructions", len(p.Instrs))
	}
	if countNOPs(p) != 1 {
		t.Errorf("CountNOPs = %d", countNOPs(p))
	}
	if totalWait(p) != 3 {
		t.Errorf("TotalWait = %d", totalWait(p))
	}
	if p.NumRegisters() != 2 {
		t.Errorf("NumRegisters = %d, want 2", p.NumRegisters())
	}
	if p.Instrs[4].Wait != 3 || p.Instrs[4].Op != STORE || p.Instrs[4].Var != "a" {
		t.Errorf("wait-prefixed store parsed wrong: %+v", p.Instrs[4])
	}
	if !p.Instrs[5].A.IsImm || p.Instrs[5].A.Imm != 7 {
		t.Errorf("immediate store parsed wrong: %+v", p.Instrs[5])
	}
}

func TestParseErrors(t *testing.T) {
	bad := []string{
		"FOO R1, #2",
		"LI R1",
		"LI R1, R2", // LI needs an immediate
		"LI Rx, #1",
		"LOAD R1, #5",  // LOAD needs a variable
		"STORE #5, R1", // STORE target must be a variable
		"ADD R1, R2",   // missing operand
		"[wait=x] NOP",
		"[wait=2 NOP",
		"ADD R1, R2, bogus",
	}
	for _, s := range bad {
		if _, err := Parse("\t" + s + "\n"); err == nil {
			t.Errorf("Parse(%q) succeeded, want error", s)
		}
	}
}

func TestInstrStringRoundTrip(t *testing.T) {
	src := `	NOP
	LI R1, #15
	LOAD R0, a
	NEG R2, R0
	ADD R3, R1, #4
	MOD R4, R3, R2
	[wait=2] STORE a, R4
`
	p, err := Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	for _, in := range p.Instrs {
		sb.WriteString("\t" + in.String() + "\n")
	}
	p2, err := Parse(sb.String())
	if err != nil {
		t.Fatalf("reparse: %v\n%s", err, sb.String())
	}
	if len(p2.Instrs) != len(p.Instrs) {
		t.Fatalf("round trip changed length")
	}
	for i := range p.Instrs {
		a, b := p.Instrs[i], p2.Instrs[i]
		a.Line, b.Line = 0, 0
		if a != b {
			t.Errorf("instr %d round trip: %+v vs %+v", i, a, b)
		}
	}
}

func TestExecSemantics(t *testing.T) {
	mem, err := Run(`
	LI R0, #6
	LOAD R1, x
	MUL R2, R0, R1
	NEG R3, R2
	DIV R4, R3, #4
	MOD R5, R4, #5
	STORE y, R5
	SUB R6, R1, R1
	STORE z, R6
`, map[string]int64{"x": 7})
	if err != nil {
		t.Fatal(err)
	}
	// 6*7=42; -42/4=-10; -10%5=0.
	if mem["y"] != 0 || mem["z"] != 0 || mem["x"] != 7 {
		t.Errorf("memory = %v", mem)
	}
}

func TestExecFaults(t *testing.T) {
	if _, err := Run("\tLI R0, #0\n\tDIV R1, R0, R0\n", nil); err == nil {
		t.Error("division by zero unreported")
	}
	if _, err := Run("\tLI R0, #0\n\tMOD R1, R0, R0\n", nil); err == nil {
		t.Error("remainder by zero unreported")
	}
}

func TestExecRegisterOutOfRange(t *testing.T) {
	p, err := Parse("\tLI R5, #1\n")
	if err != nil {
		t.Fatal(err)
	}
	m := NewMachine(2, nil)
	if err := m.Exec(p); err == nil {
		t.Error("out-of-range register write unreported")
	}
}

func randomProgram(rng *rand.Rand, stmts int) string {
	vars := []string{"a", "b", "c", "d"}
	var sb strings.Builder
	var expr func(depth int) string
	expr = func(depth int) string {
		if depth <= 0 || rng.Intn(3) == 0 {
			if rng.Intn(2) == 0 {
				return vars[rng.Intn(len(vars))]
			}
			return []string{"1", "2", "5", "9"}[rng.Intn(4)]
		}
		switch rng.Intn(6) {
		case 0:
			return "(" + expr(depth-1) + ") / " + []string{"2", "3"}[rng.Intn(2)]
		case 1:
			return "(" + expr(depth-1) + ") % " + []string{"3", "7"}[rng.Intn(2)]
		case 2:
			return "-(" + expr(depth-1) + ")"
		default:
			op := []string{"+", "-", "*"}[rng.Intn(3)]
			return "(" + expr(depth-1) + " " + op + " " + expr(depth-1) + ")"
		}
	}
	for i := 0; i < stmts; i++ {
		sb.WriteString(vars[rng.Intn(len(vars))] + " = " + expr(1+rng.Intn(3)) + "\n")
	}
	return sb.String()
}

// TestFullPipelinePreservesSemanticsProperty is the repository's deepest
// end-to-end check: random source -> (optional) optimizer -> optimal
// scheduler -> register allocator -> code generator -> THIS package's
// assembly interpreter must compute exactly what the AST evaluator
// computes.
func TestFullPipelinePreservesSemanticsProperty(t *testing.T) {
	m := machine.SimulationMachine()
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		src := randomProgram(rng, 1+rng.Intn(8))
		prog, err := frontend.Parse(src)
		if err != nil {
			return false
		}
		initial := map[string]int64{"a": 3, "b": -5, "c": 11, "d": 0}

		// Reference semantics from the AST.
		ref := map[string]int64{}
		for k, v := range initial {
			ref[k] = v
		}
		if err := prog.Eval(ref); err != nil {
			return true // runtime fault; ordering of faults is not modeled
		}

		block, err := tuplegen.Generate(prog, "p")
		if err != nil {
			return false
		}
		if rng.Intn(2) == 0 {
			block = opt.Optimize(block)
		}
		g, err := dag.Build(block)
		if err != nil {
			return false
		}
		sched, err := core.Find(g, m, core.Options{Lambda: 100000})
		if err != nil {
			return false
		}
		scheduled, err := block.Permute(sched.Order)
		if err != nil {
			return false
		}
		regs, err := regalloc.Allocate(scheduled, 0)
		if err != nil {
			return false
		}
		text, err := codegen.Emit(codegen.Program{Block: scheduled, Eta: sched.Eta, Regs: regs},
			codegen.NOPPadding)
		if err != nil {
			return false
		}
		mem, err := Run(text, initial)
		if err != nil {
			return false
		}
		for k, v := range ref {
			if mem[k] != v {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Error(err)
	}
}

// TestNOPCountMatchesSchedule: the emitted NOP count equals the
// scheduler's μ(π) and the explicit-mode wait total.
func TestNOPCountMatchesSchedule(t *testing.T) {
	src := "x = a * b\ny = x * c\nz = y * y\n"
	block, err := tuplegen.Compile(src, "n")
	if err != nil {
		t.Fatal(err)
	}
	g, err := dag.Build(block)
	if err != nil {
		t.Fatal(err)
	}
	m := machine.SimulationMachine()
	sched, err := core.Find(g, m, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	scheduled, err := block.Permute(sched.Order)
	if err != nil {
		t.Fatal(err)
	}
	regs, err := regalloc.Allocate(scheduled, 0)
	if err != nil {
		t.Fatal(err)
	}
	nopText, err := codegen.Emit(codegen.Program{Block: scheduled, Eta: sched.Eta, Regs: regs},
		codegen.NOPPadding)
	if err != nil {
		t.Fatal(err)
	}
	nopProg, err := Parse(nopText)
	if err != nil {
		t.Fatal(err)
	}
	if countNOPs(nopProg) != sched.TotalNOPs {
		t.Errorf("assembly has %d NOPs, schedule says %d", countNOPs(nopProg), sched.TotalNOPs)
	}
	expText, err := codegen.Emit(codegen.Program{Block: scheduled, Eta: sched.Eta, Regs: regs},
		codegen.ExplicitInterlock)
	if err != nil {
		t.Fatal(err)
	}
	expProg, err := Parse(expText)
	if err != nil {
		t.Fatal(err)
	}
	if totalWait(expProg) != sched.TotalNOPs {
		t.Errorf("explicit waits total %d, schedule says %d", totalWait(expProg), sched.TotalNOPs)
	}
	// Both encodings compute the same memory.
	init := map[string]int64{"a": 2, "b": 3, "c": 4}
	m1, err := Run(nopText, init)
	if err != nil {
		t.Fatal(err)
	}
	m2, err := Run(expText, init)
	if err != nil {
		t.Fatal(err)
	}
	for k, v := range m1 {
		if m2[k] != v {
			t.Errorf("mode mismatch at %s: %d vs %d", k, v, m2[k])
		}
	}
}

func TestIRExecConsistency(t *testing.T) {
	// Direct tuple interpretation and assembly execution of the SAME
	// (unscheduled) block must agree.
	block, err := tuplegen.Compile("r = (a+b)*(a-b) % 7\n", "c")
	if err != nil {
		t.Fatal(err)
	}
	regs, err := regalloc.Allocate(block, 0)
	if err != nil {
		t.Fatal(err)
	}
	text, err := codegen.Emit(codegen.Program{Block: block, Eta: make([]int, block.Len()), Regs: regs},
		codegen.ImplicitInterlock)
	if err != nil {
		t.Fatal(err)
	}
	envIR := ir.Env{"a": 9, "b": 4}
	if _, err := ir.Exec(block, envIR); err != nil {
		t.Fatal(err)
	}
	mem, err := Run(text, map[string]int64{"a": 9, "b": 4})
	if err != nil {
		t.Fatal(err)
	}
	if mem["r"] != envIR["r"] {
		t.Errorf("asm r=%d, ir r=%d", mem["r"], envIR["r"])
	}
}

func TestParseBackPrefix(t *testing.T) {
	p, err := Parse("\t[back=2] ADD R1, R0, R0\n\tNOP\n\t[wait=1] [back=3] MUL R2, R1, R1\n")
	if err != nil {
		t.Fatal(err)
	}
	if p.Instrs[0].Back != 2 {
		t.Errorf("Back = %d, want 2", p.Instrs[0].Back)
	}
	if p.Instrs[2].Back != 3 || p.Instrs[2].Wait != 1 {
		t.Errorf("combined prefixes parsed wrong: %+v", p.Instrs[2])
	}
	counts := backCounts(p)
	if len(counts) != 3 || counts[0] != 2 || counts[1] != 0 || counts[2] != 3 {
		t.Errorf("BackCounts = %v", counts)
	}
	// Round trip through String.
	back, err := Parse("\t" + p.Instrs[2].String() + "\n")
	if err != nil {
		t.Fatal(err)
	}
	if back.Instrs[0].Back != 3 || back.Instrs[0].Wait != 1 {
		t.Errorf("String round trip lost prefixes: %+v", back.Instrs[0])
	}
}

func TestParseBadPrefixes(t *testing.T) {
	for _, bad := range []string{
		"[back=x] NOP",
		"[back=-1] NOP",
		"[bogus=1] NOP",
		"[back=1 NOP",
	} {
		if _, err := Parse("\t" + bad + "\n"); err == nil {
			t.Errorf("Parse(%q) succeeded, want error", bad)
		}
	}
}

// countNOPs returns the number of NOP instructions.
func countNOPs(p *Program) int {
	n := 0
	for _, in := range p.Instrs {
		if in.Op == NOP {
			n++
		}
	}
	return n
}

// totalWait returns the sum of explicit wait counts.
func totalWait(p *Program) int {
	n := 0
	for _, in := range p.Instrs {
		n += in.Wait
	}
	return n
}

// backCounts returns the per-instruction Tera lookback counts.
func backCounts(p *Program) []int {
	out := make([]int, len(p.Instrs))
	for i, in := range p.Instrs {
		out[i] = in.Back
	}
	return out
}
