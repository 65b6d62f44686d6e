package oracle

import (
	"encoding/json"
	"errors"
	"math/rand"
	"testing"

	"pipesched/internal/core"
	"pipesched/internal/machine"
)

// soakModes is the mode matrix the oracle must keep clean: both
// register-pressure objectives (a tight and a loose k) and several
// scoreboard geometries including the degenerate in-order one.
var soakModes = []string{"minreg-lex", "minreg-k=2", "minreg-k=4", "scoreboard=1x1", "scoreboard=4x2"}

// TestCheckPairModeCleanOnPresets: every mode must come back clean on
// the hand-written blocks the paper suite uses, on the paper's own
// simulation machine.
func TestCheckPairModeCleanOnPresets(t *testing.T) {
	blocks := []string{
		`chain:
  1: Load #a
  2: Mul @1, @1
  3: Add @2, 4
  4: Store #b, @3`,
		`wide:
  1: Load #a
  2: Load #b
  3: Mul @1, @1
  4: Add @2, 7
  5: Sub @3, @4
  6: Store #c, @5`,
	}
	m := machine.SimulationMachine()
	for _, text := range blocks {
		g := mustGraph(t, text)
		for _, ms := range soakModes {
			mode, err := machine.ParseSchedMode(ms)
			if err != nil {
				t.Fatal(err)
			}
			if divs := CheckPair(g, m, mode, Config{}); len(divs) > 0 {
				t.Errorf("%s on %q: unexpected divergences: %v", ms, g.Block.Label, divs)
			}
			if divs := CheckMetamorphic(g, m, mode, Config{}, rand.New(rand.NewSource(1))); len(divs) > 0 {
				t.Errorf("%s on %q: metamorphic divergences: %v", ms, g.Block.Label, divs)
			}
		}
	}
}

// TestCheckPairModeInfeasible: a chain that needs MAXLIVE 2 must be
// proven infeasible at k=1 by every candidate, with no divergence — the
// infeasibility agreement is itself a check.
func TestCheckPairModeInfeasible(t *testing.T) {
	g := mustGraph(t, `pressure:
  1: Load #a
  2: Load #b
  3: Add @1, @2
  4: Store #c, @3`)
	m := machine.SimulationMachine()
	if divs := CheckPair(g, m, machine.MinRegK(1), Config{}); len(divs) > 0 {
		t.Fatalf("infeasible pair reported divergences: %v", divs)
	}
	if _, err := core.Find(g, m, core.Options{Sched: machine.MinRegK(1)}); !errors.Is(err, core.ErrInfeasible) {
		t.Fatalf("expected ErrInfeasible at k=1, got %v", err)
	}
	if divs := CheckMetamorphic(g, m, machine.MinRegK(1), Config{}, rand.New(rand.NewSource(2))); len(divs) > 0 {
		t.Fatalf("infeasible metamorphic divergences: %v", divs)
	}
}

// TestCheckPressureScheduleCatchesLies: tampering with a pressure-mode
// schedule's claims must trip the independent re-derivations.
func TestCheckPressureScheduleCatchesLies(t *testing.T) {
	g := mustGraph(t, `lie:
  1: Load #a
  2: Mul @1, @1
  3: Load #b
  4: Add @2, @3
  5: Store #c, @4`)
	m := machine.SimulationMachine()
	honest, err := core.Find(g, m, core.Options{Sched: machine.MinRegLex()})
	if err != nil {
		t.Fatal(err)
	}
	if divs := checkSchedule(g, m, machine.MinRegLex(), "honest", honest); len(divs) > 0 {
		t.Fatalf("honest schedule reported: %v", divs)
	}
	lied := *honest
	lied.MaxLive++
	if divs := checkSchedule(g, m, machine.MinRegLex(), "liar", &lied); !hasCheck(divs, "pressure-verify", "liar") {
		t.Fatalf("inflated MAXLIVE claim not caught: %v", divs)
	}
	// A schedule whose true pressure violates the mode bound must trip
	// pressure-bound even when the MaxLive field is honest.
	k := honest.MaxLive - 1
	if k >= 1 {
		if divs := checkSchedule(g, m, machine.MinRegK(k), "overk", honest); !hasCheck(divs, "pressure-bound", "overk") {
			t.Fatalf("bound violation not caught at k=%d: %v", k, divs)
		}
	}
}

// TestCheckScoreboardScheduleCatchesLies: tampering with a
// scoreboard-mode schedule must trip the forward simulator replay and
// the shape checks.
func TestCheckScoreboardScheduleCatchesLies(t *testing.T) {
	g := mustGraph(t, `lie:
  1: Load #a
  2: Mul @1, @1
  3: Load #b
  4: Add @2, @3
  5: Store #c, @4`)
	m := machine.SimulationMachine()
	mode := machine.Scoreboard(4, 2)
	honest, err := core.Find(g, m, core.Options{Sched: mode})
	if err != nil {
		t.Fatal(err)
	}
	if divs := checkSchedule(g, m, mode, "honest", honest); len(divs) > 0 {
		t.Fatalf("honest schedule reported: %v", divs)
	}

	ticks := *honest
	ticks.IssueTicks = append([]int(nil), honest.IssueTicks...)
	ticks.IssueTicks[len(ticks.IssueTicks)-1]++
	if divs := checkSchedule(g, m, mode, "ticks", &ticks); !hasCheck(divs, "sim-verify", "ticks") {
		t.Fatalf("perturbed issue ticks not caught: %v", divs)
	}

	stalls := *honest
	stalls.TotalNOPs++
	if divs := checkSchedule(g, m, mode, "stalls", &stalls); !hasCheck(divs, "sim-verify", "stalls") {
		t.Fatalf("inflated stall claim not caught: %v", divs)
	}

	padded := *honest
	padded.Eta = append([]int(nil), honest.Eta...)
	padded.Eta[0] = 1
	if divs := checkSchedule(g, m, mode, "padded", &padded); !hasCheck(divs, "schedule-legal", "padded") {
		t.Fatalf("NOP padding not caught: %v", divs)
	}
}

// TestRunModeSmoke: the Run driver must come back clean for every mode
// in the matrix on a seeded batch of generated blocks, and artifacts (if
// any) must carry the canonical mode. This is the PR-gating slice of the
// nightly per-mode soak.
func TestRunModeSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("mode soak smoke skipped in -short")
	}
	for _, ms := range soakModes {
		ms := ms
		t.Run(ms, func(t *testing.T) {
			t.Parallel()
			sum, err := Run(RunConfig{
				Blocks:        12,
				Machines:      4,
				Seed:          97,
				MaxStatements: 5,
				Mode:          ms,
				MachineParams: machine.Params{SingleAssignment: true},
			})
			if err != nil {
				t.Fatalf("run: %v", err)
			}
			if sum.Divergences != 0 {
				for _, a := range sum.Artifacts {
					t.Errorf("artifact: %s (mode %q)\n%s", a.Divergence, a.Mode, a.ShrunkText)
				}
				t.Fatalf("%d divergences: %s", sum.Divergences, sum.Checks())
			}
			if sum.Pairs != 12 {
				t.Fatalf("checked %d pairs, want 12", sum.Pairs)
			}
		})
	}
}

// TestRunRejectsBadMode: a hostile mode string is an infrastructure
// error classified under the machine-description error family, not a
// silent fallback to the paper mode.
func TestRunRejectsBadMode(t *testing.T) {
	_, err := Run(RunConfig{Blocks: 1, Mode: "minreg-k=banana"})
	if !errors.Is(err, machine.ErrInvalid) {
		t.Fatalf("got %v, want machine.ErrInvalid", err)
	}
}

// TestModeMetamorphicRandom: the metamorphic invariants must hold on
// randomly generated pairs for every mode, under the same generators the
// soak uses. Run with -race in CI.
func TestModeMetamorphicRandom(t *testing.T) {
	if testing.Short() {
		t.Skip("metamorphic sweep skipped in -short")
	}
	for _, ms := range soakModes {
		for i := 0; i < 6; i++ {
			sum, runErr := Run(RunConfig{
				Blocks:        1,
				Machines:      1,
				Seed:          int64(1000 + i),
				MaxStatements: 4,
				Mode:          ms,
				Check:         Config{DisableExhaustive: true},
			})
			if runErr != nil {
				t.Fatalf("%s seed %d: %v", ms, i, runErr)
			}
			if sum.Divergences != 0 {
				t.Fatalf("%s seed %d: %s", ms, i, sum.Checks())
			}
		}
	}
}

// TestModeArtifactModeField: a divergence planted under a non-paper
// mode must reach the artifact path end to end. Every artifact carries
// the canonical mode, and its shrunk repro re-triggers its check when
// replayed under that mode.
func TestModeArtifactModeField(t *testing.T) {
	mode := machine.Scoreboard(8, 2)
	cfg := RunConfig{
		Blocks:             2,
		Machines:           1,
		Seed:               5,
		MaxStatements:      3,
		Mode:               "scoreboard", // default geometry, canonicalizes to 8x2
		DisableMetamorphic: true,
		Check: Config{Candidates: []Candidate{
			tampered("inflated", mode, core.Options{}, func(s *core.Schedule) { s.TotalNOPs++ }),
		}},
	}
	sum, err := Run(cfg)
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	if sum.Divergences == 0 || len(sum.Artifacts) != sum.Divergences {
		t.Fatalf("planted lie produced %d divergences, %d artifacts", sum.Divergences, len(sum.Artifacts))
	}
	for _, a := range sum.Artifacts {
		if a.Mode != "scoreboard=8x2" {
			t.Errorf("artifact mode %q, want scoreboard=8x2", a.Mode)
		}
		replay, err := machine.ParseSchedMode(a.Mode)
		if err != nil {
			t.Fatal(err)
		}
		var m machine.Machine
		if err := json.Unmarshal(a.MachineJSON, &m); err != nil {
			t.Fatal(err)
		}
		if !hasCheck(CheckPair(mustGraph(t, a.ShrunkText), &m, replay, cfg.Check), a.Check, "") {
			t.Errorf("shrunk repro no longer triggers %s under %s:\n%s", a.Check, a.Mode, a.ShrunkText)
		}
	}
}
