package nopins

import (
	"slices"
	"testing"

	"pipesched/internal/ir"
	"pipesched/internal/machine"
)

func TestEntryStateStartTick(t *testing.T) {
	g := mustGraph(t, `s:
  1: Load #a
  2: Load #b`)
	e := NewEvaluator(g, machine.SimulationMachine(), AssignFixed)
	e.SetEntryState(&EntryState{StartTick: 10})
	e.Push(0)
	e.Push(1)
	if e.IssueAt(0) != 11 || e.IssueAt(1) != 12 {
		t.Errorf("issue ticks %d,%d, want 11,12", e.IssueAt(0), e.IssueAt(1))
	}
	if e.TotalNOPs() != 0 {
		t.Errorf("no NOPs expected, got %d", e.TotalNOPs())
	}
}

func TestEntryStateReadyTick(t *testing.T) {
	g := mustGraph(t, `r:
  1: Load #a
  2: Load #b`)
	e := NewEvaluator(g, machine.SimulationMachine(), AssignFixed)
	// Node 0 may not issue before tick 4 (a value from a previous block
	// is still in flight); node 1 is free.
	e.SetEntryState(&EntryState{StartTick: 1, ReadyTick: []int{4, 0}})
	eta := e.Push(0)
	if eta != 2 || e.IssueAt(0) != 4 {
		t.Errorf("eta=%d issue=%d, want 2 and 4", eta, e.IssueAt(0))
	}
	e.Pop()
	// The unconstrained node goes immediately.
	if eta := e.Push(1); eta != 0 {
		t.Errorf("unconstrained node delayed by %d", eta)
	}
}

func TestEntryStatePipeLast(t *testing.T) {
	// Multiplier enqueue time 2; a multiply issued at absolute tick 3 in
	// the previous block forces the next multiply to tick >= 5.
	g := mustGraph(t, `p:
  1: Mul 2, 3
  2: Const 7`)
	m := machine.SimulationMachine()
	mulPipe := m.PipelineFor(g.Block.Tuples[0].Op)
	e := NewEvaluator(g, m, AssignFixed)
	e.SetEntryState(&EntryState{StartTick: 3, PipeLast: pipeLastAt(m, mulPipe, 3)})
	eta := e.Push(0)
	if eta != 1 || e.IssueAt(0) != 5 {
		t.Errorf("eta=%d issue=%d, want 1 and 5", eta, e.IssueAt(0))
	}
	// A no-pipeline op is unaffected by the reservation.
	e.Reset()
	if eta := e.Push(1); eta != 0 {
		t.Errorf("Const delayed %d by pipe reservation", eta)
	}
}

func TestEntryStatePipeLastShadowedByInWindowUse(t *testing.T) {
	// Once an in-block instruction has used the pipeline, the boundary
	// reservation is stale: spacing is measured from the nearest use.
	g := mustGraph(t, `q:
  1: Mul 2, 3
  2: Const 1
  3: Mul 4, 5`)
	m := machine.SimulationMachine()
	mulPipe := m.PipelineFor(g.Block.Tuples[0].Op)
	e := NewEvaluator(g, m, AssignFixed)
	e.SetEntryState(&EntryState{StartTick: 2, PipeLast: pipeLastAt(m, mulPipe, 2)})
	e.Push(0) // first Mul: boundary spacing 2 -> eta 1, issues at 4
	if e.IssueAt(0) != 4 {
		t.Fatalf("first Mul issued at %d, want 4", e.IssueAt(0))
	}
	e.Push(1) // Const at 5
	eta := e.Push(2)
	// Second Mul: nearest same-pipe is position 0 at tick 4; next issue
	// would be 6, gap 2 >= enqueue 2 -> no NOP. The stale boundary (tick
	// 2) must NOT add anything.
	if eta != 0 || e.IssueAt(2) != 6 {
		t.Errorf("eta=%d issue=%d, want 0 and 6", eta, e.IssueAt(2))
	}
}

func TestSetEntryStateNilRestoresColdStart(t *testing.T) {
	g := mustGraph(t, `c:
  1: Load #a`)
	e := NewEvaluator(g, machine.SimulationMachine(), AssignFixed)
	e.SetEntryState(&EntryState{StartTick: 50})
	e.SetEntryState(nil)
	e.Push(0)
	if e.IssueAt(0) != 1 {
		t.Errorf("cold start issue = %d, want 1", e.IssueAt(0))
	}
}

func TestSetEntryStateValidatesReadyLength(t *testing.T) {
	g := mustGraph(t, `v:
  1: Load #a
  2: Load #b`)
	e := NewEvaluator(g, machine.SimulationMachine(), AssignFixed)
	defer func() {
		if recover() == nil {
			t.Error("short ReadyTick accepted")
		}
	}()
	e.SetEntryState(&EntryState{ReadyTick: []int{1}})
}

func TestEntryStateSurvivesReset(t *testing.T) {
	g := mustGraph(t, `sr:
  1: Load #a`)
	e := NewEvaluator(g, machine.SimulationMachine(), AssignFixed)
	e.SetEntryState(&EntryState{StartTick: 7})
	e.Push(0)
	e.Reset()
	e.Push(0)
	if e.IssueAt(0) != 8 {
		t.Errorf("entry state lost across Reset: issue %d, want 8", e.IssueAt(0))
	}
}

// pipeLastAt is an EntryState.PipeLast whose only enqueue is pipeline
// id's, at tick.
func pipeLastAt(m *machine.Machine, id, tick int) []int {
	last := make([]int, len(m.Pipelines))
	last[m.PipelineIndex(id)] = tick
	return last
}

// TestEntryStateAdvance: advancing past a piece moves the clock to its
// last issue and each used pipeline's slot to its last enqueue, and
// leaves a pipeline the piece did not use as it was.
func TestEntryStateAdvance(t *testing.T) {
	m := machine.SimulationMachine()
	mul, load := m.PipelineFor(ir.Mul), m.PipelineFor(ir.Load)
	s := EntryState{StartTick: 3, PipeLast: pipeLastAt(m, mul, 2)}
	issue := make([]int, 3)
	s.Advance(m, []int{1, 0, 2}, []int{load, machine.NoPipeline, load}, issue)
	if s.StartTick != 9 || !slices.Equal(issue, []int{5, 6, 9}) {
		t.Errorf("StartTick=%d issue=%v, want 9 and [5 6 9]", s.StartTick, issue)
	}
	want := pipeLastAt(m, mul, 2)
	want[m.PipelineIndex(load)] = 9
	if !slices.Equal(s.PipeLast, want) {
		t.Errorf("PipeLast=%v, want %v", s.PipeLast, want)
	}
}
