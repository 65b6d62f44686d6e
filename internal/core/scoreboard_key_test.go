package core

import (
	"encoding/binary"
	"fmt"
	"math/bits"
	"math/rand"
	"slices"
	"testing"

	"pipesched/internal/dag"
	"pipesched/internal/machine"
	"pipesched/internal/memo"
	"pipesched/internal/sim"
)

// sbPrefix is one search prefix of the admissibility test: its order and
// the cost its key is stored under.
type sbPrefix struct {
	order   []int
	keyCost int
}

// randomCompletion draws a legal order of the nodes not in prefix.
func randomCompletion(g *dag.Graph, prefix []int, rng *rand.Rand) []int {
	done := make([]bool, g.N)
	for _, u := range prefix {
		done[u] = true
	}
	var rest []int
	for len(prefix)+len(rest) < g.N {
		var ready []int
		for u := 0; u < g.N; u++ {
			if !done[u] && !slices.ContainsFunc(g.Preds[u], func(d dag.Dep) bool { return !done[d.Node] }) {
				ready = append(ready, u)
			}
		}
		u := ready[rng.Intn(len(ready))]
		done[u] = true
		rest = append(rest, u)
	}
	return rest
}

// TestScoreboardKeyAdmissible: two prefixes reached by different orders
// that get equal dominance keys must price every completion to the same
// issue ticks shifted by Δb, the difference of their key costs. That is
// what lets the table prune the later visit when its key cost is no
// lower. It also pins the clamp case: prefixes whose clamped stall floors
// are both 0 while their key costs differ, where comparing the clamped
// floors would let the later visit dominate a strictly better one.
func TestScoreboardKeyAdmissible(t *testing.T) {
	rng := rand.New(rand.NewSource(83))
	pairs, shifted, clamped := 0, 0, 0
	for trial := 0; trial < 200; trial++ {
		g := randomGraph(t, rng, 7, 0)
		if g == nil || g.N < 3 {
			continue
		}
		m := machine.Random(rng, machine.Params{SingleAssignment: true})
		mode := machine.Scoreboard(1+rng.Intn(8), 1+rng.Intn(3))
		p := newProblem(g, m, Options{Sched: mode})
		ev, err := newScoreboardEval(p)
		if err != nil {
			t.Fatal(err)
		}
		pricer, _ := newScoreboardEval(p)

		check := func(a, b sbPrefix) {
			pairs++
			delta := b.keyCost - a.keyCost
			if delta != 0 {
				shifted++
			}
			if delta != 0 && max(a.keyCost, 0) == max(b.keyCost, 0) {
				clamped++
				lo, hi := a, b
				if delta < 0 {
					lo, hi = b, a
				}
				tb := memo.NewTable(0, 0)
				key, _ := ev.key(make([]uint64, 0, ev.keyWords()))
				tb.Store(key, hi.keyCost, 0, 1)
				if tb.Dominated(key, lo.keyCost, 0) {
					t.Fatalf("trial %d: a visit at key cost %d dominated one at %d", trial, hi.keyCost, lo.keyCost)
				}
			}
			for c := 0; c < 2; c++ {
				rest := randomCompletion(g, a.order, rng)
				sa, _ := pricer.price(append(slices.Clone(a.order), rest...))
				sb, _ := pricer.price(append(slices.Clone(b.order), rest...))
				for j := len(a.order); j < g.N; j++ {
					if sb.IssueTicks[j] != sa.IssueTicks[j]+delta {
						t.Fatalf("trial %d %s: prefixes %v and %v share a key, but completion %v issues position %d at %d and %d (Δ %d)\n%s",
							trial, mode, a.order, b.order, rest, j, sa.IssueTicks[j], sb.IssueTicks[j], delta, g.Block)
					}
				}
				if sb.Ticks != sa.Ticks+delta {
					t.Fatalf("trial %d %s: prefixes %v and %v share a key, but completion %v ends at %d and %d (Δ %d)",
						trial, mode, a.order, b.order, rest, sa.Ticks, sb.Ticks, delta)
				}
			}
		}

		seen := map[string]sbPrefix{}
		var order []int
		budget := 4000
		var walk func()
		walk = func() {
			for x := 0; x < g.N && budget > 0; x++ {
				if ev.scheduled(x) || !ev.ready(x, ev.sched) {
					continue
				}
				budget--
				ev.push(x, anyPipe)
				order = append(order, x)
				if len(order) < g.N {
					key, keyCost := ev.key(make([]uint64, 0, ev.keyWords()))
					id := fmt.Sprint(key)
					cur := sbPrefix{order: slices.Clone(order), keyCost: keyCost}
					if first, ok := seen[id]; ok {
						check(first, cur)
					} else {
						seen[id] = cur
					}
					walk()
				}
				order = order[:len(order)-1]
				ev.pop(x)
			}
		}
		walk()
	}
	if pairs < 500 || shifted < 50 || clamped < 10 {
		t.Fatalf("only %d equal-key pairs, %d with Δb ≠ 0, %d in the clamp case", pairs, shifted, clamped)
	}
	t.Logf("%d equal-key pairs, %d with Δb ≠ 0, %d in the clamp case", pairs, shifted, clamped)
}

// TestScoreboardMemoMatchesNoMemo: the dominance table only prunes, so
// on every block both searches complete, memo on and off must agree on
// the optimal stall count, and the memo-on schedule must pass the
// forward simulator.
func TestScoreboardMemoMatchesNoMemo(t *testing.T) {
	rng := rand.New(rand.NewSource(89))
	compared, hits := 0, int64(0)
	for i := 0; compared < 120 && i < 600; i++ {
		g := randomGraph(t, rng, 7, 0)
		if g == nil {
			continue
		}
		m := machine.Random(rng, machine.Params{SingleAssignment: true})
		window, width := 1+rng.Intn(8), 1+rng.Intn(3)
		opts := Options{Sched: machine.Scoreboard(window, width), Lambda: 300_000}
		on, err := Find(g, m, opts)
		if err != nil {
			t.Fatalf("block %d: %v", i, err)
		}
		opts.DisableMemo = true
		off, err := Find(g, m, opts)
		if err != nil {
			t.Fatalf("block %d: %v", i, err)
		}
		if off.Optimal && !on.Optimal {
			t.Fatalf("block %d W=%d I=%d: memo-off search completed, memo-on did not", i, window, width)
		}
		if !on.Optimal || !off.Optimal {
			continue
		}
		if on.TotalNOPs != off.TotalNOPs {
			t.Fatalf("block %d W=%d I=%d: memo on %d stalls, off %d\n%s", i, window, width, on.TotalNOPs, off.TotalNOPs, g.Block)
		}
		if err := sim.VerifyScoreboard(sim.ScoreboardInput{
			Input:  sim.Input{Graph: g, M: m, Order: on.Order, Pipes: on.Pipes},
			Window: window,
			Width:  width,
		}, on.IssueTicks, on.TotalNOPs); err != nil {
			t.Fatalf("block %d: memo-on schedule fails verification: %v", i, err)
		}
		hits += on.Stats.MemoHits
		compared++
	}
	if compared < 100 || hits == 0 {
		t.Fatalf("only %d blocks compared, %d memo hits", compared, hits)
	}
}

// FuzzScoreboardKey builds a scoreboard prefix from the input — a block,
// a machine, a window geometry and an order of ready nodes — and checks
// the window section of its key: it decodes back to exactly the prefix's
// state relative to the base tick, and a one-tick bump of any live field
// (a top window tick, a pipeline or a frontier residual) changes it.
func FuzzScoreboardKey(f *testing.F) {
	f.Add([]byte{1, 0, 0, 0, 0, 0, 0, 0, 8, 2, 9, 3, 1, 4, 1, 5, 9, 2, 6})
	f.Add([]byte{7, 7, 0, 0, 0, 0, 0, 0, 1, 1, 5, 0, 0, 0, 0, 0})
	f.Add([]byte{42, 0, 0, 0, 0, 0, 0, 0, 3, 3, 30, 7, 7, 7, 7, 7, 7, 7, 7})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 11 {
			return
		}
		rng := rand.New(rand.NewSource(int64(binary.LittleEndian.Uint64(data))))
		g := randomGraph(t, rng, 8, 0)
		if g == nil {
			return
		}
		m := machine.Random(rng, machine.Params{SingleAssignment: true})
		mode := machine.Scoreboard(1+int(data[8])%8, 1+int(data[9])%3)
		ev, err := newScoreboardEval(newProblem(g, m, Options{Sched: mode}))
		if err != nil {
			t.Fatal(err)
		}
		k := 1 + int(data[10])%g.N
		for i := 0; i < k; i++ {
			var ready []int
			for u := 0; u < g.N; u++ {
				if !ev.scheduled(u) && ev.ready(u, ev.sched) {
					ready = append(ready, u)
				}
			}
			pick := 0
			if 11+i < len(data) {
				pick = int(data[11+i])
			}
			ev.push(ready[pick%len(ready)], anyPipe)
		}
		key := func() []uint64 {
			kw, _ := ev.key(make([]uint64, 0, ev.keyWords()))
			return slices.Clone(kw)
		}
		base := key()

		// Round trip.
		b, top := 0, ev.sorted
		if k >= ev.window {
			b, top = ev.sorted[k-ev.window], ev.sorted[k-ev.window+1:]
		}
		var want []int
		for _, tick := range top {
			want = append(want, tick-b)
		}
		for _, free := range ev.pipeFree {
			want = append(want, memo.Residual(free, b))
		}
		var frontier []int
		for u := 0; u < g.N; u++ {
			if ev.scheduled(u) && slices.ContainsFunc(g.Succs[u], func(d dag.Dep) bool { return !ev.scheduled(d.Node) }) {
				frontier = append(frontier, u)
				want = append(want, memo.Residual(ev.tickOf[u]+ev.flowLat[u], b))
			}
		}
		sched, fields := decodeScoreboardKey(base, g.N, len(want), uint(bits.Len(uint(ev.maxResidual()))))
		for u := 0; u < g.N; u++ {
			if sched[u] != ev.scheduled(u) {
				t.Fatalf("node %d: decoded scheduled=%v", u, sched[u])
			}
		}
		if !slices.Equal(fields, want) {
			t.Fatalf("%s k=%d: key decodes to fields %v, want %v", mode, k, fields, want)
		}

		// Distinctness: bump each live field by one tick, up, or down where
		// up would leave the layout or the sorted order.
		maxRes := ev.maxResidual()
		bumped := func(what string, d int, bump func(d int)) {
			bump(d)
			if slices.Equal(key(), base) {
				t.Fatalf("%s k=%d: bumping %s by %d did not change the key", mode, k, what, d)
			}
			bump(-d)
		}
		lo := len(ev.sorted) - len(top)
		for i := lo; i < len(ev.sorted); i++ {
			bump := func(d int) { ev.sorted[i] += d }
			if ev.sorted[i]-b < maxRes && (i+1 == len(ev.sorted) || ev.sorted[i] < ev.sorted[i+1]) {
				bumped(fmt.Sprintf("top tick %d", i), 1, bump)
			} else if ev.sorted[i] > b && (i == 0 || ev.sorted[i-1] < ev.sorted[i]) {
				bumped(fmt.Sprintf("top tick %d", i), -1, bump)
			}
		}
		step := func(r int) int { // a live residual's bump direction
			if r == maxRes {
				return -1
			}
			return 1
		}
		for sl, free := range ev.pipeFree {
			if r := memo.Residual(free, b); r > 0 {
				bumped(fmt.Sprintf("pipeline slot %d", sl), step(r), func(d int) { ev.pipeFree[sl] += d })
			}
		}
		for _, u := range frontier {
			if r := memo.Residual(ev.tickOf[u]+ev.flowLat[u], b); r > 0 {
				bumped(fmt.Sprintf("frontier node %d", u), step(r), func(d int) { ev.tickOf[u] += d })
			}
		}
		if !slices.Equal(key(), base) {
			t.Fatal("restoring every bump did not restore the key")
		}
	})
}

// decodeScoreboardKey reads a scoreboard key back: n scheduled bits, then
// fields residuals of width w. It panics on trailing words.
func decodeScoreboardKey(key []uint64, n, fields int, w uint) (sched []bool, vals []int) {
	bit := uint(0)
	get := func(width uint) int {
		v := 0
		for i := uint(0); i < width; i++ {
			if key[(bit+i)/64]>>((bit+i)%64)&1 != 0 {
				v |= 1 << i
			}
		}
		bit += width
		return v
	}
	for u := 0; u < n; u++ {
		sched = append(sched, get(1) == 1)
	}
	for i := 0; i < fields; i++ {
		vals = append(vals, get(w))
	}
	if int((bit+63)/64) != len(key) {
		panic(fmt.Sprintf("key of %d words holds %d bits", len(key), bit))
	}
	return sched, vals
}
