package seqsched

import (
	"math/rand"
	"slices"
	"testing"
	"testing/quick"

	"pipesched/internal/core"
	"pipesched/internal/ir"
	"pipesched/internal/machine"
	"pipesched/internal/nopins"
	"pipesched/internal/sim"
	"pipesched/internal/synth"
)

func randomBlocks(t testing.TB, rng *rand.Rand, n int) []*ir.Block {
	var blocks []*ir.Block
	for i := 0; i < n; i++ {
		sb, err := synth.Generate(rng, synth.Params{
			Statements: 1 + rng.Intn(4), Variables: 5, Constants: 4,
		})
		if err != nil {
			t.Fatal(err)
		}
		blocks = append(blocks, sb.IR)
	}
	return blocks
}

// TestGroupingAssociativityProperty: footnote-1 threading makes block
// grouping associative. Scheduling [A,B] then continuing with [C] from
// the exit state must match [A] then [B,C], and both must match the
// ungrouped [A,B,C] — same total NOPs, same final tick, same exit
// pipeline reservations. The search sees identical entry states in
// every grouping, so this pins the exit-state bookkeeping exactly.
func TestGroupingAssociativityProperty(t *testing.T) {
	m := machine.SimulationMachine()
	opts := core.Options{Lambda: 50000}
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		blocks := randomBlocks(t, rng, 3+rng.Intn(2))
		cut := 1 + rng.Intn(len(blocks)-1)

		whole, err := Schedule(blocks, m, opts)
		if err != nil {
			return false
		}
		left, err := Schedule(blocks[:cut], m, opts)
		if err != nil {
			return false
		}
		rightOpts := opts
		rightOpts.Entry = exitState(m, nil, left)
		right, err := Schedule(blocks[cut:], m, rightOpts)
		if err != nil {
			return false
		}
		if left.TotalNOPs+right.TotalNOPs != whole.TotalNOPs {
			t.Logf("seed %d cut %d: NOPs %d+%d != %d", seed, cut, left.TotalNOPs, right.TotalNOPs, whole.TotalNOPs)
			return false
		}
		if right.TotalTicks != whole.TotalTicks {
			t.Logf("seed %d cut %d: ticks %d != %d", seed, cut, right.TotalTicks, whole.TotalTicks)
			return false
		}
		// Exit reservations agree pipe by pipe (stale entries below the
		// final tick can never matter, but the states are built the same
		// way in both groupings, so demand equality outright).
		if !slices.Equal(exitState(m, rightOpts.Entry, right).PipeLast, exitState(m, nil, whole).PipeLast) {
			return false
		}
		// Per-block schedules are identical orders, not just equal costs.
		all := append(append([]BlockSchedule{}, left.Blocks...), right.Blocks...)
		for i, bs := range whole.Blocks {
			if len(bs.Sched.Order) != len(all[i].Sched.Order) {
				return false
			}
			for k := range bs.Sched.Order {
				if bs.Sched.Order[k] != all[i].Sched.Order[k] || bs.Sched.Eta[k] != all[i].Sched.Eta[k] {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

// TestSeamLegalUnderScoreboardProperty: the flattened threaded sequence
// must replay as a legal order on the scoreboard window machine for a
// spread of window/width shapes — footnote-1 trimming may remove NOPs
// at a seam but can never reorder across a dependence, so the merged
// order stays legal under every in-order-window model. The sharp
// cross-check: the 1-wide single-entry window is exactly the paper's
// in-order machine, so its stall count must equal the sequence's NOP
// count (TotalTicks = N + NOPs in the paper model).
func TestSeamLegalUnderScoreboardProperty(t *testing.T) {
	m := machine.SimulationMachine()
	shapes := []struct{ w, i int }{{1, 1}, {4, 2}, {8, 2}}
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		blocks := randomBlocks(t, rng, 2+rng.Intn(3))
		r, err := Schedule(blocks, m, core.Options{Lambda: 50000})
		if err != nil {
			return false
		}
		g, order, _, pipes, err := Flatten(r)
		if err != nil {
			return false
		}
		for _, s := range shapes {
			tr, err := sim.RunScoreboard(sim.ScoreboardInput{
				Input:  sim.Input{Graph: g, M: m, Order: order, Pipes: pipes},
				Window: s.w, Width: s.i,
			})
			if err != nil {
				t.Logf("seed %d: seam illegal under scoreboard=%dx%d: %v", seed, s.w, s.i, err)
				return false
			}
			if s.w == 1 && s.i == 1 && tr.Stalls != r.TotalNOPs {
				t.Logf("seed %d: scoreboard=1x1 stalls %d != sequence NOPs %d", seed, tr.Stalls, r.TotalNOPs)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

// TestScheduleFromColdMatchesSchedule: scheduling from a nil entry and
// from a zero entry are the same cold start.
func TestScheduleFromColdMatchesSchedule(t *testing.T) {
	m := machine.SimulationMachine()
	blocks := boundaryBlocks(t)
	a, err := Schedule(blocks, m, core.Options{Lambda: 1000})
	if err != nil {
		t.Fatal(err)
	}
	b, err := Schedule(blocks, m, core.Options{Lambda: 1000, Entry: &nopins.EntryState{}})
	if err != nil {
		t.Fatal(err)
	}
	if a.TotalNOPs != b.TotalNOPs || a.TotalTicks != b.TotalTicks {
		t.Errorf("cold ScheduleFrom differs: %+v vs %+v", a, b)
	}
}

// exitState is the entry state a sequence continuing after r, which
// started from start (nil for a cold start), starts from.
func exitState(m *machine.Machine, start *nopins.EntryState, r *Result) *nopins.EntryState {
	exit := &nopins.EntryState{PipeLast: make([]int, len(m.Pipelines))}
	if start != nil {
		exit.StartTick = start.StartTick
		copy(exit.PipeLast, start.PipeLast)
	}
	for _, bs := range r.Blocks {
		exit.Advance(m, bs.Sched.Eta, bs.Sched.Pipes, nil)
	}
	return exit
}

// TestWarmEntryCarriesReservations: a sequence started from the state an
// earlier one left pays that state's boundary conflicts, whether it is
// searched or seeded — the second multiply waits out the first's enqueue
// time across the split.
func TestWarmEntryCarriesReservations(t *testing.T) {
	m := machine.SimulationMachine() // multiplier enqueue 2
	blocks := boundaryBlocks(t)
	left, err := Schedule(blocks[:1], m, core.Options{Lambda: 1000})
	if err != nil {
		t.Fatal(err)
	}
	opts := core.Options{Lambda: 1000, Entry: exitState(m, nil, left)}
	for name, schedule := range map[string]func([]*ir.Block, *machine.Machine, core.Options) (*Result, error){
		"Schedule": Schedule, "ScheduleSeed": ScheduleSeed,
	} {
		right, err := schedule(blocks[1:], m, opts)
		if err != nil {
			t.Fatal(err)
		}
		if right.TotalNOPs != 1 || right.TotalTicks != 3 || right.Blocks[0].StartTick != 1 {
			t.Errorf("%s: NOPs=%d ticks=%d start=%d, want 1, 3 and 1",
				name, right.TotalNOPs, right.TotalTicks, right.Blocks[0].StartTick)
		}
	}
}
