package core

import (
	"context"
	"errors"
	"testing"
	"time"

	"pipesched/internal/machine"
)

// The tests below search searchBlock on the example machine: its seed is
// not root-certified, so the search runs and meets the cooperative
// cancellation points.

func TestFindPreCanceledReturnsIncumbent(t *testing.T) {
	g := mustGraph(t, searchBlock)
	m := machine.ExampleMachine()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	s, err := Find(g, m, Options{Ctx: ctx})
	if err != nil {
		t.Fatal(err)
	}
	if s.Optimal {
		t.Error("pre-canceled context must not yield an optimality proof")
	}
	if !errors.Is(s.Stopped, context.Canceled) {
		t.Errorf("Stopped = %v, want context.Canceled", s.Stopped)
	}
	if !s.Stats.Curtailed {
		t.Error("Stats.Curtailed should be set on cancellation")
	}
	if len(s.Order) != g.N {
		t.Fatalf("incumbent incomplete: %d of %d instructions", len(s.Order), g.N)
	}
	if !g.IsLegalOrder(s.Order) {
		t.Error("incumbent order is not legal")
	}
	if s.TotalNOPs > s.InitialNOPs {
		t.Errorf("incumbent (%d NOPs) worse than seed (%d)", s.TotalNOPs, s.InitialNOPs)
	}
}

func TestFindExpiredDeadlineStopsFast(t *testing.T) {
	g := mustGraph(t, searchBlock)
	m := machine.ExampleMachine()
	ctx, cancel := context.WithDeadline(context.Background(), time.Now().Add(-time.Second))
	defer cancel()
	start := time.Now()
	s, err := Find(g, m, Options{Ctx: ctx})
	if err != nil {
		t.Fatal(err)
	}
	if el := time.Since(start); el > 2*time.Second {
		t.Errorf("expired deadline took %v to return", el)
	}
	if !errors.Is(s.Stopped, context.DeadlineExceeded) {
		t.Errorf("Stopped = %v, want context.DeadlineExceeded", s.Stopped)
	}
	if !g.IsLegalOrder(s.Order) || len(s.Order) != g.N {
		t.Error("deadline-stopped search must still return a complete legal order")
	}
}

func TestFindNilCtxCompletes(t *testing.T) {
	g := mustGraph(t, searchBlock)
	m := machine.ExampleMachine()
	s, err := Find(g, m, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !s.Optimal || s.Stopped != nil {
		t.Errorf("unbounded search should complete: optimal=%v stopped=%v", s.Optimal, s.Stopped)
	}
}

func TestFindParallelPreCanceled(t *testing.T) {
	g := mustGraph(t, searchBlock)
	m := machine.ExampleMachine()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	s, err := FindParallel(g, m, Options{Ctx: ctx}, 4)
	if err != nil {
		t.Fatal(err)
	}
	if s.Optimal {
		t.Error("pre-canceled parallel search must not claim optimality")
	}
	if !errors.Is(s.Stopped, context.Canceled) {
		t.Errorf("Stopped = %v, want context.Canceled", s.Stopped)
	}
	if len(s.Order) != g.N || !g.IsLegalOrder(s.Order) {
		t.Error("parallel incumbent must be a complete legal order")
	}
}
