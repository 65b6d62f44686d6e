package pipesched

import (
	"context"
	"errors"
	"math/rand"
	"testing"

	"pipesched/internal/faultinject"
	"pipesched/internal/synth"
)

// scoreboardCorpus rebuilds the scoreboard bench corpus: the first 200
// blocks of TestAssemblyGolden's paper-sim stream (synth.Generate, seed
// 1990, the Figure 5 size distribution over 8 variables and 6 constants).
func scoreboardCorpus(t *testing.T) []string {
	t.Helper()
	rng := rand.New(rand.NewSource(1990))
	srcs := make([]string, 200)
	for i := range srcs {
		b, err := synth.Generate(rng, synth.Params{
			Statements: synth.SizeDistribution(rng, 1)[0], Variables: 8, Constants: 6,
		})
		if err != nil {
			t.Fatal(err)
		}
		srcs[i] = b.Source
	}
	return srcs
}

// TestScoreboardHeavyBlocksProven pins the proofs the root refutation
// closes on the scoreboard corpus under scoreboard=8x2 and λ = 1M. Blocks
// 43 and 149 seed at their optimum, 7 and 3 stalls, 2 stalls above the
// release-sweep root bound, and block 43's proof used to run past λ. Every
// block must now prove optimal, within 20,000 Ω-calls for the whole pass,
// and at least 40 blocks by the refutation's window order alone: no
// Ω-call, and fewer stalls than the seed.
func TestScoreboardHeavyBlocksProven(t *testing.T) {
	if testing.Short() {
		t.Skip("compiles the 200-block scoreboard corpus")
	}
	m, opts := SimulationMachine(), Options{Optimize: true, Sched: Scoreboard(8, 2), Lambda: 1_000_000}
	want := map[int]int{43: 7, 149: 3}
	var omega int64
	optimal, byWindow := 0, 0
	for i, src := range scoreboardCorpus(t) {
		c, err := CompileCtx(context.Background(), src, m, opts)
		if err != nil {
			t.Fatalf("block %d: %v", i, err)
		}
		omega += c.Stats.OmegaCalls
		if c.Optimal {
			optimal++
			if c.Stats.OmegaCalls == 0 && c.TotalNOPs < c.InitialNOPs {
				byWindow++
			}
		}
		if stalls, ok := want[i]; ok && (!c.Optimal || c.TotalNOPs != stalls || c.RootLB != stalls) {
			t.Errorf("block %d: optimal=%v stalls=%d root bound %d, want proven at %d (Ω=%d)",
				i, c.Optimal, c.TotalNOPs, c.RootLB, stalls, c.Stats.OmegaCalls)
		}
	}
	if optimal != 200 || omega > 20_000 || byWindow < 40 {
		t.Fatalf("%d of 200 blocks optimal over %d Ω-calls, %d by the window order; want all within 20,000, at least 40",
			optimal, omega, byWindow)
	}
	t.Logf("%d Ω-calls per corpus pass, %d blocks proven by the window order", omega, byWindow)
}

// TestScoreboardForcedCurtailment: the fault injector's forced curtail
// point still bites in scoreboard mode on a block whose proof the root
// refutation closes before any budget is spent. The refutation runs
// before the search, so without the injector block 43 proves optimal in
// zero Ω-calls.
func TestScoreboardForcedCurtailment(t *testing.T) {
	src := scoreboardCorpus(t)[43]
	opts := Options{Optimize: true, Sched: Scoreboard(8, 2), Workers: 2}
	c, err := CompileCtx(context.Background(), src, SimulationMachine(), opts)
	if err != nil || !c.Optimal || c.Stats.OmegaCalls != 0 {
		t.Fatalf("err=%v optimal=%v Ω=%d, want a proof by refutation alone", err, c.Optimal, c.Stats.OmegaCalls)
	}
	defer faultinject.Activate(faultinject.New().
		Plan(faultinject.Search, faultinject.Plan{CurtailLambda: 5}))()
	c, err = CompileCtx(context.Background(), src, SimulationMachine(), opts)
	if !errors.Is(err, ErrCurtailed) {
		t.Fatalf("err = %v, want ErrCurtailed", err)
	}
	if c.Optimal || !c.Stats.Curtailed {
		t.Errorf("optimal=%v curtailed=%v, want a forced curtailment", c.Optimal, c.Stats.Curtailed)
	}
}
