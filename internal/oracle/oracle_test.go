package oracle

import (
	"bytes"
	"encoding/json"
	"errors"
	"slices"
	"strings"
	"testing"

	"pipesched/internal/core"
	"pipesched/internal/dag"
	"pipesched/internal/ir"
	"pipesched/internal/listsched"
	"pipesched/internal/machine"
	"pipesched/internal/nopins"
)

// mustGraph parses and builds a block, failing the test on error.
func mustGraph(t *testing.T, text string) *dag.Graph {
	t.Helper()
	b, err := ir.ParseBlock(text)
	if err != nil {
		t.Fatalf("parse block: %v", err)
	}
	g, err := dag.Build(b)
	if err != nil {
		t.Fatalf("build dag: %v", err)
	}
	return g
}

// lieModes is the mode matrix every planted lie runs under: the paper
// mode, both register-pressure objectives and an out-of-order window.
var lieModes = []machine.SchedMode{{}, machine.MinRegLex(), machine.MinRegK(4), machine.Scoreboard(4, 2)}

// seedSearch curtails a search right after it prices its list-schedule
// seed, so the result is the seed in the mode's own cost model.
var seedSearch = core.Options{Lambda: 1, DisableGreedySeed: true}

// suboptimalSeedPair returns a (graph, machine) pair on which, in every
// mode of lieModes, the list-schedule seed costs at least two more than
// the optimum: a scheduler that just prices the seed and claims
// optimality is wrong, and a nonzero gap can bracket the seed's cost
// while excluding the optimum. The Mul chain's latency shadow is only
// hidden when the search interleaves the Const/Mul/Store chain with it.
func suboptimalSeedPair(t *testing.T) (*dag.Graph, *machine.Machine) {
	t.Helper()
	g := mustGraph(t, `repro:
  1: Load #a
  2: Load #b
  3: Mul @1, @2
  4: Mul @3, @2
  5: Store #c, @4
  6: Const 35
  7: Mul @2, @6
  8: Store #b, @7`)
	m := machine.SimulationMachine()
	for _, mode := range lieModes {
		opts := seedSearch
		opts.Sched = mode
		seed, err := core.Find(g, m, opts)
		if err != nil {
			t.Fatalf("%v: seed: %v", mode, err)
		}
		opt, err := core.Find(g, m, core.Options{Sched: mode})
		if err != nil {
			t.Fatalf("%v: find: %v", mode, err)
		}
		if !opt.Optimal || seed.Optimal || seed.TotalNOPs-opt.TotalNOPs < 2 {
			t.Fatalf("%v: test pair needs a seed two above the optimum: seed=%d optimal=%d (optimal=%t)",
				mode, seed.TotalNOPs, opt.TotalNOPs, opt.Optimal)
		}
	}
	return g, m
}

// tampered is a candidate that searches under mode with opts and then
// applies tamper to the schedule it found.
func tampered(name string, mode machine.SchedMode, opts core.Options, tamper func(s *core.Schedule)) Candidate {
	opts.Sched = mode
	return Candidate{Name: name, Run: func(g *dag.Graph, m *machine.Machine) (*core.Schedule, error) {
		s, err := core.Find(g, m, opts)
		if err != nil {
			return nil, err
		}
		tamper(s)
		return s, nil
	}}
}

// findCandidate is the honest reference candidate.
func findCandidate(mode machine.SchedMode) Candidate {
	return tampered("find", mode, core.Options{}, func(*core.Schedule) {})
}

// hasCheck reports whether divs contains a finding with the given check
// name implicating the given candidate ("" matches any candidate).
func hasCheck(divs []Divergence, check, candidate string) bool {
	for _, d := range divs {
		if d.Check == check && (candidate == "" || d.Candidate == candidate) {
			return true
		}
	}
	return false
}

// catchesInEveryMode plants the lie built by lie on suboptimalSeedPair
// under every mode of lieModes — after the honest search when withFind
// is set, so a proven optimum exists to contradict — and fails unless
// CheckPair reports check against the lie.
func catchesInEveryMode(t *testing.T, check string, withFind bool, lie func(machine.SchedMode) Candidate) {
	t.Helper()
	g, m := suboptimalSeedPair(t)
	for _, mode := range lieModes {
		liar := lie(mode)
		cands := []Candidate{liar}
		if withFind {
			cands = []Candidate{findCandidate(mode), liar}
		}
		if divs := CheckPair(g, m, mode, Config{Candidates: cands}); !hasCheck(divs, check, liar.Name) {
			t.Errorf("%v: %s not reported against %s: %v", mode, check, liar.Name, divs)
		}
	}
}

func TestCheckPairCleanOnPresets(t *testing.T) {
	blocks := []string{
		`chain:
  1: Load #a
  2: Mul @1, @1
  3: Add @2, 4
  4: Store #b, @3`,
		`two-chains:
  1: Const 57
  2: Store #v0, @1
  3: Const 95
  5: Mul @3, @3
  6: Store #v0, @5`,
		`single:
  1: Load #x`,
	}
	machines := []*machine.Machine{
		machine.SimulationMachine(),
		machine.ExampleMachine(),
		machine.UnpipelinedMachine(),
		machine.DeepMachine(),
	}
	for _, text := range blocks {
		g := mustGraph(t, text)
		for _, m := range machines {
			if divs := CheckPair(g, m, machine.SchedMode{}, Config{}); len(divs) != 0 {
				t.Errorf("%s on %s: unexpected divergences %v", g.Block.Label, m.Name, divs)
			}
		}
	}
}

func TestCheckPairCatchesFalseOptimalityClaim(t *testing.T) {
	// The broken scheduler prices the list-schedule seed honestly but
	// claims the result is optimal. Legality and simulation agree with
	// the claim, so only the differential can catch it.
	catchesInEveryMode(t, "optimal-agree", true, func(mode machine.SchedMode) Candidate {
		return tampered("seed-claims-optimal", mode, seedSearch, func(s *core.Schedule) {
			s.Optimal, s.Stopped, s.Gap = true, nil, 0
		})
	})
}

func TestCheckPairCatchesIllegalOrder(t *testing.T) {
	catchesInEveryMode(t, "schedule-legal", true, func(mode machine.SchedMode) Candidate {
		return tampered("reversed", mode, core.Options{}, func(s *core.Schedule) {
			slices.Reverse(s.Order)
			slices.Reverse(s.Eta)
			slices.Reverse(s.Pipes)
			slices.Reverse(s.IssueTicks)
		})
	})
}

func TestCheckPairCatchesWrongCostClaim(t *testing.T) {
	// The claimed cost no longer matches the mode's simulator.
	catchesInEveryMode(t, "sim-verify", false, func(mode machine.SchedMode) Candidate {
		return tampered("inflated", mode, core.Options{}, func(s *core.Schedule) {
			s.TotalNOPs++
			s.Ticks++
		})
	})
}

func TestCheckPairCatchesOptimalBeaten(t *testing.T) {
	// A curtailed candidate claiming a cost below the proven optimum is
	// impossible; either the claim or the optimality proof is broken.
	catchesInEveryMode(t, "optimal-beaten", true, func(mode machine.SchedMode) Candidate {
		return tampered("underclaims", mode, core.Options{}, func(s *core.Schedule) {
			s.TotalNOPs--
			s.Ticks--
			s.Optimal, s.Stopped = false, errors.New("fake curtailment")
		})
	})
}

func TestCheckPairCatchesUpperBoundViolation(t *testing.T) {
	// Claim a schedule costlier than the seed. The simulator rejects the
	// claim too, but the upper-bound check must flag it independently.
	catchesInEveryMode(t, "upper-bound", false, func(mode machine.SchedMode) Candidate {
		return tampered("costlier", mode, seedSearch, func(s *core.Schedule) {
			s.TotalNOPs += 2
			s.Ticks += 2
		})
	})
}

func TestCheckPairCatchesInadmissibleBound(t *testing.T) {
	// An honest schedule with a lying root bound: the claimed lower bound
	// sits above the proven optimum, so it cannot be admissible.
	catchesInEveryMode(t, "bound-admissible", true, func(mode machine.SchedMode) Candidate {
		return tampered("overbounds", mode, core.Options{}, func(s *core.Schedule) {
			s.RootLB = s.TotalNOPs + 1
		})
	})
}

func TestCheckPairCatchesUnsoundGap(t *testing.T) {
	// A curtailed candidate pricing the (suboptimal) seed but attaching a
	// gap-0 certificate claims the seed is optimal without saying so in
	// Optimal — the gap-soundness check must see through it.
	catchesInEveryMode(t, "gap-sound", true, func(mode machine.SchedMode) Candidate {
		return tampered("fake-certificate", mode, seedSearch, func(s *core.Schedule) {
			s.Gap = 0
		})
	})

	// A nonzero gap that brackets the optimum too high is just as unsound.
	g, m := suboptimalSeedPair(t)
	catchesInEveryMode(t, "gap-sound", true, func(mode machine.SchedMode) Candidate {
		opt, err := core.Find(g, m, core.Options{Sched: mode})
		if err != nil {
			t.Fatal(err)
		}
		return tampered("too-tight", mode, seedSearch, func(s *core.Schedule) {
			s.Gap = s.TotalNOPs - opt.TotalNOPs - 1 // excludes the true optimum
			s.RootLB = s.TotalNOPs - s.Gap
		})
	})
}

func TestCheckPairReportsCandidateError(t *testing.T) {
	catchesInEveryMode(t, "candidate-error", false, func(machine.SchedMode) Candidate {
		return Candidate{Name: "failing", Run: func(*dag.Graph, *machine.Machine) (*core.Schedule, error) {
			return nil, errors.New("boom")
		}}
	})

	// Only minreg-k may end a search without a schedule; a curtailed
	// search that found none abstains there and is an error elsewhere.
	g, m := suboptimalSeedPair(t)
	budget := Candidate{Name: "budget", Run: func(*dag.Graph, *machine.Machine) (*core.Schedule, error) {
		return nil, core.ErrBudget
	}}
	for _, mode := range lieModes {
		divs := CheckPair(g, m, mode, Config{Candidates: []Candidate{findCandidate(mode), budget}})
		if got, want := hasCheck(divs, "candidate-error", "budget"), mode.Kind != machine.SchedMinRegK; got != want {
			t.Errorf("%v: candidate-error for ErrBudget = %t, want %t: %v", mode, got, want, divs)
		}
	}
}

func TestRunCleanSoak(t *testing.T) {
	var buf bytes.Buffer
	sum, err := Run(RunConfig{Blocks: 25, Machines: 4, Seed: 11, Artifacts: &buf})
	if err != nil {
		t.Fatal(err)
	}
	if sum.Pairs != 25 {
		t.Errorf("pairs = %d, want 25", sum.Pairs)
	}
	if sum.Tuples == 0 {
		t.Error("no tuples counted")
	}
	if sum.Divergences != 0 {
		t.Errorf("unexpected divergences: %s", sum.Checks())
	}
	if buf.Len() != 0 {
		t.Errorf("clean run wrote artifacts: %q", buf.String())
	}
	if got := sum.Checks(); got != "none" {
		t.Errorf("Checks() = %q, want none", got)
	}
}

func TestRunDeterministic(t *testing.T) {
	run := func() *Summary {
		sum, err := Run(RunConfig{Blocks: 10, Machines: 3, Seed: 99, Workers: 4})
		if err != nil {
			t.Fatal(err)
		}
		return sum
	}
	a, b := run(), run()
	if a.Pairs != b.Pairs || a.Tuples != b.Tuples || a.Divergences != b.Divergences {
		t.Errorf("two runs with the same seed disagree: %+v vs %+v", a, b)
	}
}

func TestRunCatchesBrokenSchedulerAndEmitsArtifacts(t *testing.T) {
	var buf bytes.Buffer
	cfg := RunConfig{
		Blocks: 30, Machines: 2, Seed: 5,
		DisableMetamorphic: true,
		Artifacts:          &buf,
		Check: Config{
			DisableExhaustive: true,
			Candidates: []Candidate{
				findCandidate(machine.SchedMode{}),
				{Name: "seed-claims-optimal",
					Run: func(g *dag.Graph, m *machine.Machine) (*core.Schedule, error) {
						order := listsched.Schedule(g, listsched.ByHeight)
						r, err := nopins.NewEvaluator(g, m, nopins.AssignFixed).EvaluateOrder(order)
						if err != nil {
							return nil, err
						}
						return &core.Schedule{
							Order: r.Order, Eta: r.Eta, Pipes: r.Pipes,
							TotalNOPs: r.TotalNOPs, Ticks: r.Ticks, Optimal: true,
						}, nil
					}},
			},
		},
	}
	sum, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if sum.Divergences == 0 {
		t.Fatal("broken scheduler survived the soak")
	}
	if len(sum.Artifacts) != sum.Divergences {
		t.Errorf("artifacts %d != divergences %d", len(sum.Artifacts), sum.Divergences)
	}

	// Every artifact line must be a self-contained JSON repro.
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != sum.Divergences {
		t.Fatalf("JSONL lines %d != divergences %d", len(lines), sum.Divergences)
	}
	for _, line := range lines {
		var a Artifact
		if err := json.Unmarshal([]byte(line), &a); err != nil {
			t.Fatalf("artifact line does not parse: %v\n%s", err, line)
		}
		if a.Seed != 5 {
			t.Errorf("artifact seed = %d, want 5", a.Seed)
		}
		full, err := ir.ParseBlock(a.BlockText)
		if err != nil {
			t.Fatalf("artifact block text does not parse: %v", err)
		}
		shrunk, err := ir.ParseBlock(a.ShrunkText)
		if err != nil {
			t.Fatalf("artifact shrunk text does not parse: %v", err)
		}
		if shrunk.Len() > full.Len() {
			t.Errorf("shrunk block (%d tuples) larger than original (%d)", shrunk.Len(), full.Len())
		}
		var m machine.Machine
		if err := json.Unmarshal(a.MachineJSON, &m); err != nil {
			t.Fatalf("artifact machine JSON does not parse: %v", err)
		}

		// The shrunken counterexample must still trigger the same check.
		g, err := dag.Build(shrunk)
		if err != nil {
			t.Fatalf("shrunk block does not build: %v", err)
		}
		if !hasCheck(CheckPair(g, &m, machine.SchedMode{}, cfg.Check), a.Check, "") {
			t.Errorf("shrunk repro no longer triggers %s:\n%s", a.Check, a.ShrunkText)
		}
	}
}
