package pipesched

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"strings"
	"testing"
	"time"

	"pipesched/internal/core"
	"pipesched/internal/dag"
	"pipesched/internal/faultinject"
	"pipesched/internal/ir"
)

// mulChainSource builds a source block whose optimal schedule necessarily
// contains NOPs (a multiply chain threaded through memory), so the
// branch-and-bound search really runs — and can really be interrupted.
func mulChainSource(stmts int) string {
	var sb strings.Builder
	sb.WriteString("a = x * y\n")
	for i := 0; i < stmts; i++ {
		sb.WriteString(fmt.Sprintf("a = a * y%d\n", i))
	}
	return sb.String()
}

// chainBlock builds a tuple block around one long multiply chain — its
// optimal schedule cannot reach zero NOPs. The chain's seed cost equals
// the root lower bound, so an UNFORCED search certifies the seed and
// never spends budget; use it with the fault injector's CurtailLambda
// (which disables the certificate) or where optimality is the point.
func chainBlock(tuples int) *Block {
	b := ir.NewBlock("chain")
	x := b.Append(ir.Load, ir.Var("x"), ir.None())
	prev := b.Append(ir.Mul, ir.Ref(x), ir.Ref(x))
	for b.Len() < tuples {
		ld := b.Append(ir.Load, ir.Var("x"), ir.None())
		prev = b.Append(ir.Mul, ir.Ref(prev), ir.Ref(ld))
	}
	return b
}

// tangleBlock builds independent (Load a, Load b, Mul, Add reusing a,
// Store) units. The root lower bound is loose here — enough width exists
// to hide most latency in principle — while the seed still pays NOPs, so
// a small explicit λ reliably curtails the search with a positive
// certified gap.
func tangleBlock(units int) *Block {
	b := ir.NewBlock("tangle")
	for i := 0; i < units; i++ {
		a := b.Append(ir.Load, ir.Var(fmt.Sprintf("a%d", i)), ir.None())
		c := b.Append(ir.Load, ir.Var(fmt.Sprintf("b%d", i)), ir.None())
		m := b.Append(ir.Mul, ir.Ref(a), ir.Ref(c))
		d := b.Append(ir.Add, ir.Ref(m), ir.Ref(a))
		b.Append(ir.Store, ir.Var(fmt.Sprintf("z%d", i)), ir.Ref(d))
	}
	return b
}

// checkLegal asserts the structural invariants every ladder rung must
// uphold: a complete permutation of the original tuples with non-negative
// padding. (Hazard-freedom itself is re-verified inside the library by
// the independent simulator whenever a dependence graph exists.)
func checkLegal(t *testing.T, c *Compiled) {
	t.Helper()
	if c == nil {
		t.Fatal("nil Compiled")
	}
	n := c.Original.Len()
	if len(c.Order) != n || len(c.Eta) != n || len(c.Pipes) != n {
		t.Fatalf("schedule shape %d/%d/%d for %d tuples", len(c.Order), len(c.Eta), len(c.Pipes), n)
	}
	seen := make([]bool, n)
	for _, u := range c.Order {
		if u < 0 || u >= n || seen[u] {
			t.Fatalf("order %v is not a permutation", c.Order)
		}
		seen[u] = true
	}
	for i, e := range c.Eta {
		if e < 0 {
			t.Fatalf("negative eta %d at position %d", e, i)
		}
	}
}

func TestQualityString(t *testing.T) {
	want := map[Quality]string{Optimal: "optimal", Incumbent: "incumbent", Heuristic: "heuristic", Baseline: "baseline"}
	for q, s := range want {
		if q.String() != s {
			t.Errorf("Quality(%d).String() = %q, want %q", int(q), q.String(), s)
		}
	}
	if Optimal.Degraded() || !Baseline.Degraded() {
		t.Error("Degraded() wrong for ladder endpoints")
	}
}

func TestCompileCtxCleanIsOptimal(t *testing.T) {
	c, err := CompileCtx(context.Background(), "b = 15\na = b * a\n", SimulationMachine(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if c.Quality != Optimal || !c.Optimal || len(c.Faults) != 0 {
		t.Errorf("clean compile: quality=%v optimal=%v faults=%d", c.Quality, c.Optimal, len(c.Faults))
	}
}

// TestScheduleCtxCurtailed is the curtailed-path satellite: a tiny λ on a
// large synthetic block must still yield a legal schedule no worse than
// the list-schedule seed, with the typed ErrCurtailed alongside it.
func TestScheduleCtxCurtailed(t *testing.T) {
	c, err := ScheduleCtx(context.Background(), tangleBlock(8), SimulationMachine(), Options{Lambda: 10})
	if !errors.Is(err, ErrCurtailed) {
		t.Fatalf("err = %v, want ErrCurtailed", err)
	}
	checkLegal(t, c)
	if c.Quality != Incumbent {
		t.Errorf("quality = %v, want Incumbent", c.Quality)
	}
	if !c.Stats.Curtailed {
		t.Error("Stats.Curtailed should be set")
	}
	if c.TotalNOPs > c.InitialNOPs {
		t.Errorf("incumbent (%d NOPs) worse than seed (%d)", c.TotalNOPs, c.InitialNOPs)
	}
	if c.Assembly == "" {
		t.Error("curtailed schedule must still emit assembly")
	}
}

// TestCompileCtxTightDeadline is the acceptance scenario: a 1 ms deadline
// on a ~30-tuple block must return well under 100 ms with a legal
// schedule — whichever rung it lands on.
func TestCompileCtxTightDeadline(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), time.Millisecond)
	defer cancel()
	start := time.Now()
	c, err := CompileCtx(ctx, mulChainSource(8), SimulationMachine(), Options{Lambda: -1})
	elapsed := time.Since(start)
	if elapsed > 100*time.Millisecond {
		t.Errorf("1ms deadline returned after %v", elapsed)
	}
	checkLegal(t, c)
	if err != nil {
		// The search was actually interrupted: the taxonomy must say so.
		if !errors.Is(err, ErrDeadline) || !errors.Is(err, context.DeadlineExceeded) {
			t.Errorf("err = %v, want ErrDeadline wrapping context.DeadlineExceeded", err)
		}
		if c.Quality != Incumbent {
			t.Errorf("quality = %v, want Incumbent", c.Quality)
		}
	}
}

func TestCompileCtxExpiredDeadline(t *testing.T) {
	ctx, cancel := context.WithDeadline(context.Background(), time.Now().Add(-time.Second))
	defer cancel()
	c, err := CompileCtx(ctx, mulChainSource(8), SimulationMachine(), Options{})
	if !errors.Is(err, ErrDeadline) {
		t.Fatalf("err = %v, want ErrDeadline", err)
	}
	checkLegal(t, c)
	if c.Quality != Incumbent || c.Optimal {
		t.Errorf("quality = %v optimal = %v, want degraded incumbent", c.Quality, c.Optimal)
	}
	if c.Assembly == "" {
		t.Error("deadline-degraded schedule must still emit assembly")
	}
}

func TestCompileCtxCanceled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	c, err := CompileCtx(ctx, mulChainSource(8), SimulationMachine(), Options{})
	if !errors.Is(err, ErrCanceled) || !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want ErrCanceled wrapping context.Canceled", err)
	}
	checkLegal(t, c)
	if c.Quality != Incumbent {
		t.Errorf("quality = %v, want Incumbent", c.Quality)
	}
}

// TestChaosEveryStage injects a persistent panic at every stage boundary
// in turn. The frontend is the only unrecoverable stage; every other
// fault must degrade to a rung that still yields a legal schedule, with
// the fault reported as a typed *StageError.
func TestChaosEveryStage(t *testing.T) {
	src := mulChainSource(4)
	for _, stage := range faultinject.Stages() {
		t.Run(string(stage), func(t *testing.T) {
			defer faultinject.Activate(faultinject.New().
				Plan(stage, faultinject.Plan{PanicValue: "chaos-" + string(stage)}))()
			c, err := CompileCtx(context.Background(), src, SimulationMachine(),
				Options{Optimize: true, Registers: 8})
			if stage == faultinject.Frontend {
				if c != nil {
					t.Fatal("frontend fault must not produce a result")
				}
				var se *StageError
				if !errors.As(err, &se) || se.Stage != "frontend" {
					t.Fatalf("err = %v, want *StageError{Stage: frontend}", err)
				}
				return
			}
			checkLegal(t, c)
			var se *StageError
			if !errors.As(err, &se) {
				t.Fatalf("stage %s: err = %v, want *StageError", stage, err)
			}
			if se.Stage != string(stage) {
				t.Errorf("StageError.Stage = %q, want %q", se.Stage, stage)
			}
			if se.Panic == nil {
				t.Error("StageError.Panic should carry the recovered value")
			}
			if len(c.Faults) == 0 {
				t.Error("Compiled.Faults should record the isolated failure")
			}
			switch stage {
			case faultinject.Opt, faultinject.Regalloc, faultinject.Codegen:
				if c.Quality != Optimal {
					t.Errorf("stage %s fault should not demote the schedule (got %v)", stage, c.Quality)
				}
			case faultinject.DAG:
				if c.Quality != Baseline {
					t.Errorf("DAG fault should land on Baseline, got %v", c.Quality)
				}
			case faultinject.Search:
				if c.Quality != Heuristic {
					t.Errorf("search fault should land on Heuristic, got %v", c.Quality)
				}
			}
			if stage == faultinject.Codegen {
				if c.Assembly != "" {
					t.Error("codegen fault should leave Assembly empty")
				}
			} else if c.Assembly == "" {
				t.Errorf("stage %s fault should still emit assembly", stage)
			}
			if stage == faultinject.Regalloc && c.Registers == nil {
				t.Error("regalloc fault should recover via the unlimited-register retry")
			}
		})
	}
}

func TestChaosInjectedErrorIsWrapped(t *testing.T) {
	boom := errors.New("disk on fire")
	defer faultinject.Activate(faultinject.New().
		Plan(faultinject.Search, faultinject.Plan{Err: boom}))()
	c, err := CompileCtx(context.Background(), mulChainSource(4), SimulationMachine(), Options{})
	checkLegal(t, c)
	if !errors.Is(err, boom) {
		t.Errorf("err = %v, should wrap the injected error", err)
	}
	var se *StageError
	if !errors.As(err, &se) || se.Stage != "search" || se.Panic != nil {
		t.Errorf("err = %v, want non-panic *StageError{Stage: search}", err)
	}
	if c.Quality != Heuristic {
		t.Errorf("quality = %v, want Heuristic", c.Quality)
	}
}

func TestChaosForcedCurtailment(t *testing.T) {
	defer faultinject.Activate(faultinject.New().
		Plan(faultinject.Search, faultinject.Plan{CurtailLambda: 5}))()
	c, err := CompileCtx(context.Background(), mulChainSource(8), SimulationMachine(), Options{})
	if !errors.Is(err, ErrCurtailed) {
		t.Fatalf("err = %v, want ErrCurtailed", err)
	}
	checkLegal(t, c)
	if c.Quality != Incumbent || !c.Stats.Curtailed {
		t.Errorf("quality=%v curtailed=%v, want forced incumbent", c.Quality, c.Stats.Curtailed)
	}
}

func TestChaosDelayPlusDeadline(t *testing.T) {
	defer faultinject.Activate(faultinject.New().
		Plan(faultinject.Search, faultinject.Plan{Delay: 20 * time.Millisecond}))()
	ctx, cancel := context.WithTimeout(context.Background(), time.Millisecond)
	defer cancel()
	c, err := CompileCtx(ctx, mulChainSource(8), SimulationMachine(), Options{})
	if !errors.Is(err, ErrDeadline) {
		t.Fatalf("err = %v, want ErrDeadline after injected stage delay", err)
	}
	checkLegal(t, c)
	if c.Quality != Incumbent {
		t.Errorf("quality = %v, want Incumbent", c.Quality)
	}
}

func TestLegacyEntrypointsSuppressDegradation(t *testing.T) {
	defer faultinject.Activate(faultinject.New().
		Plan(faultinject.Search, faultinject.Plan{PanicValue: "boom"}))()
	c, err := Compile(mulChainSource(4), SimulationMachine(), Options{})
	if err != nil {
		t.Fatalf("legacy Compile must suppress degradation errors, got %v", err)
	}
	checkLegal(t, c)
	if c.Quality != Heuristic {
		t.Errorf("quality = %v, want Heuristic", c.Quality)
	}
}

func TestScheduleCtxInvalidInputs(t *testing.T) {
	if _, err := ScheduleCtx(context.Background(), nil, SimulationMachine(), Options{}); !errors.Is(err, ErrInvalidBlock) {
		t.Errorf("nil block: err = %v, want ErrInvalidBlock", err)
	}
	if _, err := ScheduleCtx(context.Background(), &Block{}, nil, Options{}); !errors.Is(err, ErrInvalidMachine) {
		t.Errorf("nil machine: err = %v, want ErrInvalidMachine", err)
	}
	if _, err := CompileCtx(context.Background(), "a = b + c", &Machine{}, Options{}); !errors.Is(err, ErrInvalidMachine) {
		t.Errorf("empty machine: err = %v, want ErrInvalidMachine", err)
	}
}

func TestCompileCtxInvalidSource(t *testing.T) {
	// Only a source that fails to parse or lower is ErrInvalidSource; a
	// failure after the frontend keeps its own error.
	m := SimulationMachine()
	if c, err := CompileCtx(context.Background(), "a = = ;", m, Options{}); !errors.Is(err, ErrInvalidSource) || c != nil {
		t.Errorf("syntax error: got (%v, %v), want (nil, ErrInvalidSource)", c, err)
	}
	c, err := CompileCtx(context.Background(), "a = b * c", m, Options{Sched: MinRegK(1)})
	if !errors.Is(err, ErrInfeasible) || errors.Is(err, ErrInvalidSource) || c != nil {
		t.Errorf("infeasible bound: got (%v, %v), want (nil, ErrInfeasible) only", c, err)
	}
}

// TestScheduleSequenceCtxChaos: a fault in a stage the whole sequence
// shares demotes every block to the same rung, and every block still
// comes back legal with its assembly.
func TestScheduleSequenceCtxChaos(t *testing.T) {
	blocks := []*Block{}
	for i := 0; i < 3; i++ {
		b, err := ParseBlock(fmt.Sprintf("b%d:\n  1: Load #a\n  2: Load #b\n  3: Mul @1, @2\n  4: Store #c, @3", i))
		if err != nil {
			t.Fatal(err)
		}
		blocks = append(blocks, b)
	}
	for _, tc := range []struct {
		stage faultinject.Stage
		want  Quality
	}{
		{faultinject.Search, Heuristic},
		{faultinject.DAG, Baseline},
	} {
		t.Run(string(tc.stage), func(t *testing.T) {
			defer faultinject.Activate(faultinject.New().
				Plan(tc.stage, faultinject.Plan{PanicValue: "seq-chaos"}))()
			r, err := ScheduleSequenceCtx(context.Background(), blocks, SimulationMachine(), Options{})
			var se *StageError
			if !errors.As(err, &se) || se.Stage != string(tc.stage) {
				t.Fatalf("err = %v, want *StageError{Stage: %s}", err, tc.stage)
			}
			if r == nil || len(r.Blocks) != 3 {
				t.Fatalf("sequence fault must still schedule every block, got %v", r)
			}
			if r.Quality != tc.want {
				t.Errorf("sequence quality = %v, want %v", r.Quality, tc.want)
			}
			for _, c := range r.Blocks {
				checkLegal(t, c)
				if c.Quality != tc.want || c.Assembly == "" {
					t.Errorf("block quality=%v asm?=%v, want emitted %v", c.Quality, c.Assembly != "", tc.want)
				}
			}
		})
	}
}

func TestScheduleSequenceCtxExpiredDeadline(t *testing.T) {
	// tangleBlock's seed is not root-certified, so each block's search runs
	// and meets the expired deadline.
	blocks := []*Block{tangleBlock(8), tangleBlock(8)}
	ctx, cancel := context.WithDeadline(context.Background(), time.Now().Add(-time.Second))
	defer cancel()
	r, err := ScheduleSequenceCtx(ctx, blocks, SimulationMachine(), Options{})
	if !errors.Is(err, ErrDeadline) {
		t.Fatalf("err = %v, want ErrDeadline", err)
	}
	if r == nil || len(r.Blocks) != 2 || r.Quality != Incumbent {
		t.Fatalf("want 2 incumbent blocks, got %+v", r)
	}
	for _, c := range r.Blocks {
		checkLegal(t, c)
	}
}

func TestScheduleLargeCtxExpiredDeadline(t *testing.T) {
	ctx, cancel := context.WithDeadline(context.Background(), time.Now().Add(-time.Second))
	defer cancel()
	c, err := ScheduleLargeCtx(ctx, tangleBlock(10), SimulationMachine(), 10, Options{})
	if !errors.Is(err, ErrDeadline) {
		t.Fatalf("err = %v, want ErrDeadline", err)
	}
	checkLegal(t, c)
	if c.Quality != Incumbent {
		t.Errorf("quality = %v, want Incumbent", c.Quality)
	}
}

func TestCompileSequenceCtxFrontendFaultIsHard(t *testing.T) {
	defer faultinject.Activate(faultinject.New().
		Plan(faultinject.Frontend, faultinject.Plan{PanicValue: "parse-chaos"}))()
	r, err := CompileSequenceCtx(context.Background(), "a = b + c", SimulationMachine(), Options{})
	if r != nil {
		t.Fatal("frontend fault must not produce a sequence result")
	}
	var se *StageError
	if !errors.As(err, &se) || se.Stage != "frontend" {
		t.Fatalf("err = %v, want *StageError{Stage: frontend}", err)
	}
}

func TestChaosTimesBudget(t *testing.T) {
	// A Times:1 fault fires once and then heals: the first compile
	// degrades, the second is clean again.
	defer faultinject.Activate(faultinject.New().
		Plan(faultinject.Search, faultinject.Plan{PanicValue: "once", Times: 1}))()
	c1, err1 := CompileCtx(context.Background(), mulChainSource(4), SimulationMachine(), Options{})
	checkLegal(t, c1)
	if c1.Quality != Heuristic || err1 == nil {
		t.Errorf("first compile: quality=%v err=%v, want degraded", c1.Quality, err1)
	}
	c2, err2 := CompileCtx(context.Background(), mulChainSource(4), SimulationMachine(), Options{})
	if err2 != nil {
		t.Fatalf("second compile should be clean, got %v", err2)
	}
	if c2.Quality != Optimal {
		t.Errorf("second compile quality = %v, want Optimal", c2.Quality)
	}
}

func TestReportShowsQuality(t *testing.T) {
	defer faultinject.Activate(faultinject.New().
		Plan(faultinject.Search, faultinject.Plan{PanicValue: "boom"}))()
	c, _ := CompileCtx(context.Background(), mulChainSource(3), SimulationMachine(), Options{})
	checkLegal(t, c)
	rep := c.Report(SimulationMachine())
	if !strings.Contains(rep, "quality:      heuristic") {
		t.Errorf("report missing quality line:\n%s", rep)
	}
	if !strings.Contains(rep, "[search]") {
		t.Errorf("report missing fault note:\n%s", rep)
	}
}

// TestScoreboardClaimsReplayedOnce: a scoreboard search result is
// replayed once, on the window machine, against its claimed issue ticks
// and stall count. A search that lies about either, or returns an order
// the window machine cannot run, is refused with the verification error
// instead of being lowered.
func TestScoreboardClaimsReplayedOnce(t *testing.T) {
	m, o := SimulationMachine(), Options{Sched: Scoreboard(4, 2)}
	honest := blockSearch(1)
	cases := []struct {
		name string
		lie  func(s *core.Schedule)
	}{
		{"honest", func(*core.Schedule) {}},
		{"issue ticks", func(s *core.Schedule) {
			s.IssueTicks = append([]int(nil), s.IssueTicks...)
			s.IssueTicks[len(s.IssueTicks)-1]++
		}},
		{"stalls", func(s *core.Schedule) { s.TotalNOPs++ }},
		{"illegal order", func(s *core.Schedule) { slices.Reverse(s.Order) }},
	}
	for _, tc := range cases {
		search := func(g *dag.Graph, m *Machine, copts core.Options) (*core.Schedule, error) {
			s, err := honest(g, m, copts)
			if err == nil {
				s.Order = slices.Clone(s.Order)
				tc.lie(s)
			}
			return s, err
		}
		c, err := scheduleCtx(context.Background(), chainBlock(8), m, o, search, nil)
		if tc.name == "honest" {
			if err != nil || c == nil || c.Quality != Optimal {
				t.Fatalf("honest search: c=%v err=%v", c, err)
			}
			continue
		}
		if c != nil || err == nil || !strings.Contains(err.Error(), "scoreboard schedule failed verification") {
			t.Errorf("%s: c=%v err=%v, want refused by the scoreboard verification", tc.name, c, err)
		}
	}
}
