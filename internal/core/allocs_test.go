package core

import (
	"testing"

	"pipesched/internal/listsched"
	"pipesched/internal/machine"
	"pipesched/internal/memo"
)

// heavyBlock is a synthetic 19-tuple block whose scoreboard proof
// without the lower bound takes about a million Ω-calls and fills the
// bounded dominance table dozens of times over.
const heavyBlock = `block:
  1: Load #v6
  2: Load #v1
  3: Add @1, @2
  4: Store #v1, @3
  5: Load #v4
  6: Add @5, @5
  8: Load #v3
  9: Add @8, @1
  10: Store #v6, @9
  11: Store #v2, @6
  12: Load #v5
  13: Const 27
  14: Sub @12, @13
  15: Store #v4, @14
  16: Const 74
  17: Add @6, @16
  18: Store #v3, @17
  22: Sub @12, @6
  23: Store #v7, @22
`

// searchBlock is a synthetic 25-tuple block whose root bound on the
// example machine does not certify its seed: the optimality proof takes
// about 15k Ω-calls, and about 114k without the lower bound, two thirds
// of them answered by the dominance memo.
const searchBlock = `block:
  1: Const 69
  2: Store #v4, @1
  3: Load #v0
  4: Load #v2
  5: Add @3, @4
  6: Store #v1, @5
  7: Const 29
  8: Sub @5, @7
  9: Store #v1, @8
  10: Const 21
  11: Sub @1, @10
  12: Store #v3, @11
  13: Const 29
  14: Add @11, @13
  15: Store #v1, @14
  16: Const 21
  17: Add @14, @16
  18: Store #v1, @17
  19: Sub @17, @4
  20: Store #v1, @19
  21: Const 21
  22: Sub @1, @21
  23: Store #v4, @22
  24: Add @4, @19
  25: Store #v4, @24
`

// maxFindAllocs bounds the allocations of one Find however many nodes it
// expands: setup, seeding and the dominance table's growth to its bound.
const maxFindAllocs = 256

// TestFindAllocsFlat pins the search hot path as allocation-free: a Find
// that expands over 100k nodes may allocate no more than a fixed setup
// budget. The lower bound is off: with it, the block proves optimal in
// about 15k Ω-calls.
func TestFindAllocsFlat(t *testing.T) {
	g := mustGraph(t, searchBlock)
	m := machine.ExampleMachine()
	opts := Options{Lambda: 1_000_000, SeedPriority: listsched.ByHeight, DisableLowerBound: true}
	var s *Schedule
	allocs := testing.AllocsPerRun(1, func() {
		var err error
		if s, err = Find(g, m, opts); err != nil {
			t.Fatal(err)
		}
	})
	if !s.Optimal || s.Stats.OmegaCalls < 100_000 || s.Stats.MemoHits == 0 {
		t.Fatalf("block no longer exercises the search: optimal=%v Ω=%d memo hits=%d",
			s.Optimal, s.Stats.OmegaCalls, s.Stats.MemoHits)
	}
	if allocs > maxFindAllocs {
		t.Fatalf("Find allocated %.0f times over %d Ω-calls, want ≤ %d",
			allocs, s.Stats.OmegaCalls, maxFindAllocs)
	}
	t.Logf("%.0f allocations, %d Ω-calls, %d memo hits", allocs, s.Stats.OmegaCalls, s.Stats.MemoHits)
}

// TestFindAllocsFlatScoreboard is TestFindAllocsFlat in scoreboard mode:
// a search that stores tens of thousands of states, and so evicts from
// its dominance table many times, still allocates within the same budget,
// and the table never holds more storage than its byte bound. The lower
// bound is off: with it, the block proves optimal in under 1,000 Ω-calls
// and never fills the table.
func TestFindAllocsFlatScoreboard(t *testing.T) {
	defer func(orig func(int, int) *memo.Table) { newTable = orig }(newTable)
	tables := make([]*memo.Table, 0, 4)
	newTable = func(capEntries, capWords int) *memo.Table {
		tb := memo.NewTable(capEntries, capWords)
		tables = append(tables, tb)
		return tb
	}
	g := mustGraph(t, heavyBlock)
	m := machine.SimulationMachine()
	opts := Options{Sched: machine.Scoreboard(8, 2), Lambda: 200_000, SeedPriority: listsched.ByHeight, DisableLowerBound: true}
	var s *Schedule
	allocs := testing.AllocsPerRun(1, func() {
		tables = tables[:0]
		var err error
		if s, err = Find(g, m, opts); err != nil {
			t.Fatal(err)
		}
	})
	if len(tables) != 1 {
		t.Fatalf("Find built %d dominance tables, want 1", len(tables))
	}
	_, _, stores, evictions := tables[0].Stats()
	if s.Stats.OmegaCalls < 100_000 || s.Stats.MemoHits == 0 || evictions == 0 {
		t.Fatalf("block no longer exercises the bounded table: Ω=%d memo hits=%d stores=%d evictions=%d",
			s.Stats.OmegaCalls, s.Stats.MemoHits, stores, evictions)
	}
	if b := tables[0].Bytes(); b > scoreboardMemoBytes {
		t.Fatalf("the dominance table holds %d bytes, bound %d", b, scoreboardMemoBytes)
	}
	if allocs > maxFindAllocs {
		t.Fatalf("Find allocated %.0f times over %d Ω-calls, want ≤ %d", allocs, s.Stats.OmegaCalls, maxFindAllocs)
	}
	t.Logf("%.0f allocations, %d Ω-calls, %d memo hits, %d stores, %d evictions, %d table bytes",
		allocs, s.Stats.OmegaCalls, s.Stats.MemoHits, stores, evictions, tables[0].Bytes())
}

// TestScoreboardHeavyBlockProof pins the Ω-calls of heavyBlock's full
// proof without the lower bound, a search its bounded dominance table
// cannot hold. Eviction by subtree work keeps the states near the root,
// which prune the most; the 2M guard sits far below the 10,366,461
// Ω-calls the same proof takes when a full table empties itself.
func TestScoreboardHeavyBlockProof(t *testing.T) {
	g := mustGraph(t, heavyBlock)
	s, err := Find(g, machine.SimulationMachine(), Options{
		Sched: machine.Scoreboard(8, 2), SeedPriority: listsched.ByHeight, DisableLowerBound: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !s.Optimal || s.TotalNOPs != 0 {
		t.Fatalf("optimal=%v stalls=%d, want a proof of 0 stalls", s.Optimal, s.TotalNOPs)
	}
	if n := s.Stats.OmegaCalls; n >= 2_000_000 {
		t.Fatalf("the proof took %d Ω-calls: the table no longer keeps its heavy states", n)
	}
	if n, want := s.Stats.OmegaCalls, int64(1_010_255); n != want {
		t.Fatalf("the proof took %d Ω-calls, want %d (%d memo hits)", n, want, s.Stats.MemoHits)
	}
}
