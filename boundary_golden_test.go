package pipesched

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"hash"
	"math/rand"
	"testing"

	"pipesched/internal/core"
	"pipesched/internal/dag"
	"pipesched/internal/ir"
	"pipesched/internal/listsched"
	"pipesched/internal/nopins"
	"pipesched/internal/seqsched"
	"pipesched/internal/synth"
)

// Digests of the exact outputs of the footnote-1 boundary paths: every
// piece after the first starts from the pipeline state the pieces before
// it left. A change here is a change in the delivered schedules.
const (
	windowsDigest  = "1b15e924274dd133dd7d2312490baaea13b6e3faf8c4132c9e41c74655117827"
	sequenceDigest = "f0d5b3333006e9506ed330c4d659674d46df41e6a9fe3d789b6075979135269c"
)

// goldenBlocks is a fixed synth corpus: count blocks of 1..statements
// statements each, drawn from seed.
func goldenBlocks(t *testing.T, seed int64, count, statements int) []*ir.Block {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	var blocks []*ir.Block
	for i := 0; i < count; i++ {
		b, err := synth.Generate(rng, synth.Params{Statements: 1 + rng.Intn(statements), Variables: 6, Constants: 4})
		if err != nil {
			t.Fatal(err)
		}
		blocks = append(blocks, b.IR)
	}
	return blocks
}

func digestCompiled(h hash.Hash, name string, c *Compiled) {
	fmt.Fprintf(h, "%s order=%v eta=%v pipes=%v nops=%d init=%d ticks=%d q=%s lb=%d gap=%d omega=%d\n",
		name, c.Order, c.Eta, c.Pipes, c.TotalNOPs, c.InitialNOPs, c.Ticks, c.Quality, c.RootLB, c.Gap, c.Stats.OmegaCalls)
}

func digestSequence(h hash.Hash, name string, r *seqsched.Result) {
	fmt.Fprintf(h, "%s nops=%d ticks=%d optimal=%v\n", name, r.TotalNOPs, r.TotalTicks, r.Optimal)
	for i, bs := range r.Blocks {
		s := bs.Sched
		fmt.Fprintf(h, " %d [%d,%d] order=%v eta=%v pipes=%v nops=%d init=%d ticks=%d lb=%d gap=%d omega=%d\n",
			i, bs.StartTick, bs.EndTick, s.Order, s.Eta, s.Pipes, s.TotalNOPs, s.InitialNOPs, s.Ticks, s.RootLB, s.Gap, s.Stats.OmegaCalls)
	}
}

func checkDigest(t *testing.T, what string, h hash.Hash, want string) {
	t.Helper()
	if got := hex.EncodeToString(h.Sum(nil)); got != want {
		t.Errorf("%s digest = %s, want %s", what, got, want)
	}
}

// TestBoundaryGolden pins the schedules, costs and search effort of the
// section 5.3 windows (ScheduleLarge at windows 5, 8 and 20 on both
// presets, once with pipeline assignment) and of block sequences
// (seqsched's Schedule, ScheduleSeed and Price, and ScheduleSequence).
// The sequences open with two single multiplies, so the second block
// starts with the multiplier still busy; every later block starts warm.
func TestBoundaryGolden(t *testing.T) {
	presets := []*Machine{SimulationMachine(), ExampleMachine()}

	h := sha256.New()
	large := goldenBlocks(t, 7, 3, 30)
	for _, m := range presets {
		for _, w := range []int{5, 8, 20} {
			for i, b := range large {
				c, err := ScheduleLarge(b, m, w, Options{Lambda: 20000})
				if err != nil {
					t.Fatal(err)
				}
				digestCompiled(h, fmt.Sprintf("%s w%d b%d", m.Name, w, i), c)
			}
		}
	}
	for i, b := range large {
		c, err := ScheduleLarge(b, ExampleMachine(), 8, Options{Lambda: 20000, AssignPipelines: true})
		if err != nil {
			t.Fatal(err)
		}
		digestCompiled(h, fmt.Sprintf("assign b%d", i), c)
	}
	// A tangle under a small λ curtails some windows.
	for _, m := range presets {
		for _, w := range []int{5, 8, 20} {
			c, err := ScheduleLarge(tangleBlock(6), m, w, Options{Lambda: 40})
			if err != nil {
				t.Fatal(err)
			}
			digestCompiled(h, fmt.Sprintf("%s tangle w%d", m.Name, w), c)
		}
	}
	checkDigest(t, "windows", h, windowsDigest)

	h = sha256.New()
	warm := []*ir.Block{mustGoldenBlock(t, "one:\n  1: Mul 2, 3"), mustGoldenBlock(t, "two:\n  1: Mul 4, 5")}
	sequences := [][]*ir.Block{
		append(warm, goldenBlocks(t, 3, 4, 5)...),
		goldenBlocks(t, 9, 5, 6),
	}
	for si, blocks := range sequences {
		for _, m := range presets {
			name := fmt.Sprintf("%s s%d", m.Name, si)
			r, err := seqsched.Schedule(blocks, m, core.Options{Lambda: 50000})
			if err != nil {
				t.Fatal(err)
			}
			digestSequence(h, name+" schedule", r)

			r, err = seqsched.ScheduleSeed(blocks, m, core.Options{})
			if err != nil {
				t.Fatal(err)
			}
			digestSequence(h, name+" seed", r)

			// Price program order and each block's list schedule.
			program := make([][]int, len(blocks))
			seeds := make([][]int, len(blocks))
			for i, b := range blocks {
				g, err := dag.Build(b)
				if err != nil {
					t.Fatal(err)
				}
				for u := 0; u < g.N; u++ {
					program[i] = append(program[i], u)
				}
				seeds[i] = listsched.Schedule(g, listsched.ByDescendants)
			}
			for _, mode := range []nopins.AssignMode{nopins.AssignFixed, nopins.AssignGreedy} {
				r, err = seqsched.Price(blocks, program, m, mode)
				if err != nil {
					t.Fatal(err)
				}
				digestSequence(h, fmt.Sprintf("%s price-program %d", name, mode), r)
				r, err = seqsched.Price(blocks, seeds, m, mode)
				if err != nil {
					t.Fatal(err)
				}
				digestSequence(h, fmt.Sprintf("%s price-seed %d", name, mode), r)
			}

			sr, err := ScheduleSequence(blocks, m, Options{Lambda: 50000})
			if err != nil {
				t.Fatal(err)
			}
			fmt.Fprintf(h, "%s sequence nops=%d ticks=%d optimal=%v q=%s\n", name, sr.TotalNOPs, sr.TotalTicks, sr.Optimal, sr.Quality)
			for i, c := range sr.Blocks {
				digestCompiled(h, fmt.Sprintf(" %d", i), c)
				fmt.Fprintf(h, "%s", c.Assembly)
			}
		}
	}
	checkDigest(t, "sequences", h, sequenceDigest)
}

func mustGoldenBlock(t *testing.T, src string) *ir.Block {
	t.Helper()
	b, err := ir.ParseBlock(src)
	if err != nil {
		t.Fatal(err)
	}
	return b
}
