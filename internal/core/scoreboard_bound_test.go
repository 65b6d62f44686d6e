package core

import (
	"context"
	"math"
	"math/rand"
	"testing"

	"pipesched/internal/exhaustive"
	"pipesched/internal/machine"
)

// TestScoreboardBoundsAdmissible: the scoreboard lower bounds never
// exceed what they bound. On random blocks and machine.Random machines
// with W ∈ 1..8 and I ∈ 1..3, root never exceeds the exhaustive
// reference's optimum, and at every prefix of every legal order, lower's
// cp and res never exceed the least stall count among that prefix's
// completions. It also counts the prefixes where each term is exact, so
// a bound that went slack everywhere would fail too.
func TestScoreboardBoundsAdmissible(t *testing.T) {
	rng := rand.New(rand.NewSource(97))
	blocks, prefixes, exactCP, exactRes, exactRoot, rootAboveCP, refutedAbove := 0, 0, 0, 0, 0, 0, 0
	for i := 0; blocks < 300 && i < 5000; i++ {
		g := randomGraph(t, rng, 7, 5000)
		if g == nil {
			continue
		}
		m := machine.Random(rng, machine.Params{SingleAssignment: true})
		window, width := 1+rng.Intn(8), 1+rng.Intn(3)
		ev, err := newScoreboardEval(newProblem(g, m, Options{Sched: machine.Scoreboard(window, width)}))
		if err != nil {
			t.Fatal(err)
		}
		// least returns the least stall count among the current prefix's
		// completions, checking lower after every placement below it.
		var least func() int
		least = func() int {
			if len(ev.order) == g.N {
				return ev.cost()
			}
			lo := math.MaxInt
			for x := 0; x < g.N; x++ {
				if ev.scheduled(x) || !ev.ready(x, ev.sched) {
					continue
				}
				ev.push(x, anyPipe)
				cp, res := ev.lower()
				sub := least()
				if cp > sub || res > sub {
					t.Fatalf("block %d W=%d I=%d prefix %v: lower cp=%d res=%d, but its best completion stalls %d\n%s",
						i, window, width, ev.order, cp, res, sub, g.Block)
				}
				if len(ev.order) < g.N {
					prefixes++
					if sub > 0 && cp == sub {
						exactCP++
					}
					if sub > 0 && res == sub {
						exactRes++
					}
				}
				ev.pop(x)
				lo = min(lo, sub)
			}
			return lo
		}
		opt := least()
		ref := exhaustive.SearchScoreboard(context.Background(), g, m, window, width, 0)
		if !ref.Found || ref.Exhausted || ref.Stalls != opt {
			t.Fatalf("block %d W=%d I=%d: prefix walk finds %d stalls, reference %+v", i, window, width, opt, ref)
		}
		root, _ := ev.root()
		if root > ref.Stalls {
			t.Fatalf("block %d W=%d I=%d: root bound %d exceeds the optimum %d\n%s", i, window, width, root, ref.Stalls, g.Block)
		}
		if root > 0 && root == ref.Stalls {
			exactRoot++
		}
		// refute's bound, asked to refute every stall count up to a few
		// past the optimum, must stop at or below it.
		if lb, _ := ev.refute(root, ref.Stalls+3); lb > ref.Stalls {
			t.Fatalf("block %d W=%d I=%d: refuted bound %d exceeds the optimum %d (root %d)\n%s",
				i, window, width, lb, ref.Stalls, root, g.Block)
		} else if lb > root {
			refutedAbove++
		}
		critPath := 0
		for _, h := range ev.heightTicks {
			critPath = max(critPath, h+1)
		}
		if root > max(critPath-ev.minTicks, 0) {
			rootAboveCP++
		}
		blocks++
	}
	if blocks < 250 || exactCP < 10_000 || exactRes < 5000 || exactRoot < 100 || rootAboveCP < 30 || refutedAbove == 0 {
		t.Fatalf("only %d blocks; over %d prefixes cp exact %d times, res %d; root exact on %d blocks, above the critical path on %d; refute above root on %d",
			blocks, prefixes, exactCP, exactRes, exactRoot, rootAboveCP, refutedAbove)
	}
	t.Logf("%d blocks, %d prefixes: cp exact %d times, res %d; root exact on %d blocks, above the critical path on %d; refute above root on %d",
		blocks, prefixes, exactCP, exactRes, exactRoot, rootAboveCP, refutedAbove)
}
