package core

import (
	"errors"
	"fmt"
	"math"
	"math/bits"
	"slices"

	"pipesched/internal/dag"
	"pipesched/internal/machine"
	"pipesched/internal/memo"
	"pipesched/internal/nopins"
)

// Scoreboard mode (machine.SchedScoreboard) replaces the paper's in-order
// NOP-padded machine with a simple out-of-order approximation and
// searches for the order minimizing stall ticks instead of NOPs.
//
// # Machine model
//
// Instructions are fetched in program (π) order into a window of W
// entries. Each tick, up to I instructions issue from the window,
// oldest-π-first; the window refills on the NEXT tick (membership is
// snapshotted at tick start). An instruction is issuable at tick t when
//
//   - every flow predecessor p issued at least max(1, latency(pipe(p)))
//     ticks earlier: t ≥ t_p + max(1, lat_p) — a result cannot be
//     bypassed in its own issue cycle;
//   - every ordering (memory / register anti/output) predecessor issued
//     strictly earlier: t ≥ t_p + 1;
//   - its pipeline's dispatch queue — a FIFO fed in π order, so
//     same-pipe instructions issue in program order — has this
//     instruction at its head and last accepted an enqueue at least
//     enqueue(pipe) ticks earlier: t ≥ lastEnq(pipe) + enq(pipe)
//     (instructions using no pipeline skip this);
//   - an issue slot remains: fewer than I instructions issue at t.
//
// The schedule's cost is its stall count: the final issue tick minus the
// width-limited minimum ⌈N/I⌉. With W = 1 and I = 1 the model
// degenerates exactly to the paper's machine — the single-entry window
// forces in-order single issue, making the stall count equal the NOP
// count — which the oracle's metamorphic suite checks.
//
// # Incremental exactness
//
// The search appends instructions in π order, giving each the smallest
// tick satisfying the four rules above. Appending a π-later instruction
// never perturbs an earlier instruction's tick: window membership of
// position j counts only positions before j; width slots go to the
// π-oldest contenders first, so a later instruction only takes leftover
// capacity; and per-pipe FIFO order means a later instruction cannot
// occupy a pipe before an earlier same-pipe one. Push/Pop is therefore
// an exact O(deg + log n) evaluation step, and the resulting ticks equal
// the forward simulation of the whole order (internal/sim's scoreboard
// simulator re-derives them independently; the oracle compares).
//
// # Search
//
// The mode runs under the shared branch-and-bound skeleton (core.go) as
// the scoreboardEval evaluator: [5a]/[5b]/[5c] and the strong-equivalence
// filter apply unchanged, because all four are order-structural. α–β
// prunes on the prefix's stall floor (the running makespan never
// decreases along a branch), strengthened by the mode's own lower
// bounds: latency-weighted critical paths, issue width and per-pipeline
// occupancy, all from the window's base tick and kept incrementally by
// push and pop (lower), and a release-time bound at the root that
// certifies a seed without search (rootTicks). A search the root bound
// cannot certify is raised once by refutation (refute) before the search
// starts, by Find and FindParallel alike: each stall count below the
// incumbent is tested by resource-aware windows, interval overload and
// shaving, and the first one that survives becomes the root bound, which
// proves the incumbent when none does. The windows that count's test left
// then give one more seed, their earliest-deadline list schedule
// (windowOrder), which proves the block without search when it meets the
// raised bound. FindParallel otherwise fans the search out like any other
// mode. The paper's bound engine stays OFF: its NOP arithmetic assumes
// in-order issue and is inadmissible here. The dominance table runs,
// under a key of the window state relative to the window's base tick (see
// key) and a byte-bounded table that evicts its lighter half, by subtree
// Ω-calls, when full (scoreboardMemoBytes).
//
// Unsupported options (ErrScoreboardOption): Entry state — the window
// model has no cross-block reservation semantics yet — and any pipeline
// assignment mode beyond nopins.AssignFixed.

// ErrScoreboardOption reports an Options combination the scoreboard mode
// does not support.
var ErrScoreboardOption = errors.New("core: option not supported in scoreboard mode")

// scoreboardEval is the scoreboard mode's evaluator: the window tick
// model of one search prefix. The per-node machine facts are resolved
// once, so push and pop touch no map.
type scoreboardEval struct {
	*problem

	window, width int
	minTicks      int   // ⌈N/width⌉: the width-limited minimum makespan
	pipeOf        []int // node -> fixed pipeline (machine.NoPipeline for none)
	slot          []int // node -> index of its pipeline in m.Pipelines, or -1
	flowLat       []int // node -> issue separation its flow consumers need: max(1, latency)
	heightTicks   []int // node -> latency-weighted longest downstream chain
	rootLB        int   // root's stall bound (0 when the lower bound is off)
	byHeight      []int // nodes by falling heightTicks (nil when the lower bound is off)

	// Per pipeline slot: its enqueue time, the smallest heightTicks among
	// its nodes, and how many of them are unscheduled.
	slotEnq []int
	minH    []int
	rem     []int

	tickOf []int // node -> issue tick, while scheduled
	order  []int // prefix node order
	ticks  []int // prefix issue ticks, by position (NOT monotone: OoO)

	cnt       []int // tick -> instructions issued (width accounting)
	sorted    []int // prefix ticks, ascending (window threshold)
	pipeFree  []int // pipeline slot -> earliest tick of its next enqueue (0: no enqueue yet)
	savedFree []int // position -> the pipeFree entry its push replaced
	maxTick   int
	savedMax  []int // position -> maxTick before its push

	// lower's incremental state: drain is the largest tick+heightTicks of
	// a scheduled node, tallest the index in byHeight of the tallest
	// unscheduled node.
	drain        int
	savedDrain   []int // position -> drain before its push
	tallest      int
	savedTallest []int // position -> tallest before its push

	// The scheduled set and its frontier — the scheduled nodes that still
	// have an unscheduled successor — as bitsets of sw words, beside each
	// node's successor set in the same form. push and pop keep them; [5b]
	// and the dominance key read them.
	sched         []uint64
	frontier      []uint64
	savedFrontier []uint64 // position -> the frontier before its push
	succSet       []uint64 // node -> its successors
	enc           *memo.Encoder

	// refute's scratch, carved from one slab when the lower bound is on
	// (nil otherwise), so a refutation allocates nothing. rel starts as
	// rootTicks' release pass; refute sharpens it and tail in place. lo
	// and hi are the issue windows under a target makespan, tlo and thi a
	// trial copy; byLo and byHi order the nodes by window start and end;
	// dist and related serve sharpen, then windowOrder; sweep holds
	// 2·(pipelines+1) counters.
	rel, tail, lo, hi, tlo, thi []int
	byLo, byHi, dist, related   []int
	sweep                       []int
	tests                       int  // overload tests the last refute ran
	maxTests                    int  // the block's share of refuteWork, in tests
	spent                       bool // the last refute ran out of budget or time
}

func newScoreboardEval(p *problem) (*scoreboardEval, error) {
	if p.opts.Entry != nil {
		return nil, fmt.Errorf("%w: entry state", ErrScoreboardOption)
	}
	if p.opts.Assign != nopins.AssignFixed || p.opts.AssignSearch {
		return nil, fmt.Errorf("%w: pipeline assignment beyond AssignFixed", ErrScoreboardOption)
	}
	g, m, n := p.g, p.m, p.g.N
	width, sw := p.opts.Sched.Width, p.sw
	e := &scoreboardEval{
		problem:       p,
		window:        p.opts.Sched.Window,
		width:         width,
		minTicks:      (n + width - 1) / width,
		pipeOf:        make([]int, n),
		slot:          make([]int, n),
		flowLat:       make([]int, n),
		heightTicks:   make([]int, n),
		tickOf:        make([]int, n),
		order:         make([]int, 0, n),
		ticks:         make([]int, 0, n),
		sorted:        make([]int, 0, n),
		slotEnq:       make([]int, len(m.Pipelines)),
		minH:          make([]int, len(m.Pipelines)),
		rem:           make([]int, len(m.Pipelines)),
		pipeFree:      make([]int, len(m.Pipelines)),
		savedFree:     make([]int, n),
		savedMax:      make([]int, n),
		savedDrain:    make([]int, n),
		savedTallest:  make([]int, n),
		sched:         make([]uint64, sw),
		frontier:      make([]uint64, sw),
		savedFrontier: make([]uint64, n*sw),
		succSet:       make([]uint64, n*sw),
	}
	if !p.opts.DisableMemo {
		e.enc = memo.NewEncoder(n, e.keyFields(), 0, e.maxResidual())
	}
	for s, q := range m.Pipelines {
		e.slotEnq[s], e.minH[s] = q.Enqueue, math.MaxInt
	}
	for u := 0; u < n; u++ {
		e.pipeOf[u], e.slot[u] = machine.NoPipeline, -1
		if set := p.pipeSets()[u]; len(set) > 0 {
			e.pipeOf[u] = set[0]
			e.slot[u] = m.PipelineIndex(set[0])
		}
		e.flowLat[u] = max(1, m.Latency(e.pipeOf[u]))
		for _, d := range g.Preds[u] {
			e.succSet[d.Node*sw+u>>6] |= 1 << (u & 63)
		}
	}
	// heightTicks[u]: the longest chain of issue separations forced below
	// u — flow edges carry flowLat(u), ordering edges carry 1.
	// Admissible: every descendant chain issues at those separations or
	// later in every order. Nodes are numbered in program order, which is
	// topological, so a single reverse sweep suffices.
	for u := n - 1; u >= 0; u-- {
		for _, d := range g.Succs[u] {
			e.heightTicks[u] = max(e.heightTicks[u], e.sep(u, d)+e.heightTicks[d.Node])
		}
		if s := e.slot[u]; s >= 0 {
			e.rem[s]++
			e.minH[s] = min(e.minH[s], e.heightTicks[u])
		}
	}
	if !p.opts.DisableLowerBound {
		slab := make([]int, 10*n+2*(len(m.Pipelines)+1))
		for _, f := range []*[]int{&e.rel, &e.tail, &e.lo, &e.hi, &e.tlo, &e.thi, &e.byLo, &e.byHi, &e.dist, &e.related} {
			*f, slab = slab[:n:n], slab[n:]
		}
		e.sweep = slab
		e.maxTests = refuteWork / (max(n, 32) * max(n, 32))
		for u := range e.byHi {
			e.byHi[u] = u
		}
		e.rootLB = e.rootTicks() - e.minTicks
		e.byHeight = make([]int, n)
		for u := range e.byHeight {
			e.byHeight[u] = u
		}
		slices.SortFunc(e.byHeight, func(u, v int) int { return e.heightTicks[v] - e.heightTicks[u] })
	}
	return e, nil
}

// rootTicks bounds the makespan of every order from below. A forward
// pass gives each node its release r(v), the earliest tick any order can
// issue it: 1, or a predecessor's release plus the edge's separation.
// Each node's r(v) + heightTicks(v) is a critical path. For any set S of
// nodes on one pipeline, the last of them to issue does so at
// min r(S) + (|S|−1)·enqueue or later, and its chain below adds at least
// min heightTicks(S); for any set S of nodes at all, they fill ⌈|S|/I⌉
// distinct ticks from min r(S) on. Taking S as every node (of a
// pipeline) released at or after each threshold, in one sweep over the
// nodes by falling release, is the single-machine bound with release
// dates; ⌈N/I⌉ is its last step.
//
// The release pass stays in rel, where refute starts from it.
func (e *scoreboardEval) rootTicks() int {
	n, slots := e.g.N, len(e.rem)
	release, byRelease := e.rel, e.byLo
	for v := 0; v < n; v++ {
		release[v], byRelease[v] = 1, v
		for _, d := range e.g.Preds[v] {
			release[v] = max(release[v], release[d.Node]+e.sep(d.Node, d))
		}
	}
	slices.SortFunc(byRelease, func(u, v int) int { return release[v] - release[u] })
	// Index slots counts every node, for the width term.
	cnt, minH := e.sweep[:slots+1], e.sweep[slots+1:]
	for i := range minH {
		cnt[i], minH[i] = 0, math.MaxInt
	}
	lb := e.minTicks
	for _, v := range byRelease {
		r, h := release[v], e.heightTicks[v]
		lb = max(lb, r+h)
		cnt[slots]++
		minH[slots] = min(minH[slots], h)
		lb = max(lb, r-1+(cnt[slots]+e.width-1)/e.width+minH[slots])
		if s := e.slot[v]; s >= 0 {
			cnt[s]++
			minH[s] = min(minH[s], h)
			lb = max(lb, r+(cnt[s]-1)*e.slotEnq[s]+minH[s])
		}
	}
	return lb
}

// refuteWork caps the work one refute does. An overload test over n nodes
// costs O(n²), so each test charges max(n, 32)² against it: a block of up
// to 32 nodes runs at most 2,048 tests, a 128-node block 128. Past the
// cap, refute stops raising the bound. On the scoreboard bench corpus
// (scoreboard=8x2, simulation machine) a refutation runs 20–210 tests.
const refuteWork = 2048 * 32 * 32

// refute is destructive lower bounding at the root: it returns the least
// stall count c in [lb, incumbent) that its relaxation cannot refute, or
// incumbent when it refutes them all, which proves the incumbent optimal.
// lb must be a proven bound. A target makespan T = ⌈N/I⌉ + c is refuted
// when no assignment of issue ticks meets every precedence separation,
// at most I issues per tick and each pipeline's enqueue spacing with
// every tick at most T. That relaxation drops the window W and the FIFO
// π-order, which every legal order obeys besides, so a refuted T bounds
// every order (DESIGN.md §11). The test, per T:
//
//   - each node issues in [rel(v), T − tail(v)], where rel and tail are
//     the resource-aware release and tail sharpen computes once;
//   - an overload test over every window pair fails T (overloaded);
//   - precedence tightens the windows to a fixpoint, and shaving removes
//     a window's end tick whenever fixing the node there is refuted, until
//     no end moves; an empty window fails T.
//
// Refuting T refutes every smaller T (its windows only shrink), so c
// rises one at a time. Past refuteWork, or once Options.Ctx is done, every
// further test answers "not refuted", so refute returns the bound it
// proved so far.
//
// When c stays below the incumbent, refute also returns windowOrder's list
// schedule of the windows the test of T = ⌈N/I⌉ + c left, a candidate
// incumbent; it is nil when refute proves the incumbent, and when the
// budget or the context stopped it, since those windows may be only partly
// tightened. It allocates nothing: the order lives in refute's slab until
// the next refute.
func (e *scoreboardEval) refute(lb, incumbent int) (int, []int) {
	e.tests, e.spent = 0, false
	copy(e.tail, e.heightTicks)
	e.sharpen(e.rel, true)
	e.sharpen(e.tail, false)
	c := lb
	for c < incumbent && e.refuted(e.minTicks+c) {
		c++
	}
	if c == incumbent || e.spent {
		return c, nil
	}
	return c, e.windowOrder()
}

// windowOrder list-schedules the windows [lo, hi] an unrefuted test left:
// it repeatedly takes the ready node whose window ends first, then the one
// that starts first, then the lowest-numbered. Those windows are
// precedence-tight and shaved, so their ends are deadlines every order
// meeting T keeps, and earliest deadline first is the list rule for
// deadlines (DESIGN.md §11, "Window seed"). It builds the order in
// related, counting each node's unplaced predecessors in dist (−1 once
// placed).
func (e *scoreboardEval) windowOrder() []int {
	lo, hi, left, order := e.lo, e.hi, e.dist, e.related[:0]
	for v := range left {
		left[v] = len(e.g.Preds[v])
	}
	for range left {
		x := -1
		for v, k := range left {
			if k == 0 && (x < 0 || hi[v] < hi[x] || hi[v] == hi[x] && lo[v] < lo[x]) {
				x = v
			}
		}
		order, left[x] = append(order, x), -1
		for _, d := range e.g.Succs[x] {
			left[d.Node]--
		}
	}
	return order
}

// spend charges one overload test against refute's budget, polling
// Options.Ctx every ctxCheckEvery tests. Once the budget is spent or the
// context is done it reports false from then on, and every test answers
// "not refuted", which is always sound.
func (e *scoreboardEval) spend() bool {
	if !e.spent && (e.tests == e.maxTests ||
		e.opts.Ctx != nil && e.tests%ctxCheckEvery == 0 && e.opts.Ctx.Err() != nil) {
		e.spent = true
	}
	if e.spent {
		return false
	}
	e.tests++
	return true
}

// sharpen raises b — each node's release (forward) or tail (backward) —
// to the first tick at which the node's ancestors (descendants) still fit
// their windows. With v at tick t, an ancestor u at chain distance
// dist(u) issues in [b(u), t − dist(u)]. For each threshold a, take the
// related nodes with b ≥ a by falling dist: the first j, and v with dist
// 0 last, all issue in [a, t − dist_j], so t ≥ a + dist_j + ⌈j/I⌉ − 1,
// and the j_p of them on pipeline p, enqueue(p) apart, give t ≥ a +
// dist_j + (j_p − 1)·enqueue(p). Tails are the mirror image, in ticks
// counted back from the makespan. Nodes are numbered topologically, so
// one pass in (reverse) node order sees every related node's b final.
// Each node costs one overload test against the budget.
func (e *scoreboardEval) sharpen(b []int, forward bool) {
	n, slots := e.g.N, len(e.slotEnq)
	load := e.sweep[:slots]
	for i := 0; i < n; i++ {
		v := i
		if !forward {
			v = n - 1 - i
		}
		if !e.spend() {
			return
		}
		e.chains(v, forward)
		rel := e.related[:0]
		for u, d := range e.dist {
			if d > 0 {
				rel = append(rel, u)
			}
		}
		insertionSort(rel, func(u, w int) bool { return e.dist[u] > e.dist[w] })
		rel = append(rel, v) // dist 0: last
		lb := b[v]
		for k, x := range rel[:len(rel)-1] {
			a := b[x]
			if slices.ContainsFunc(rel[:k], func(y int) bool { return b[y] == a }) {
				continue // threshold already swept
			}
			clear(load)
			j := 0
			for _, u := range rel {
				if u != v && b[u] < a {
					continue
				}
				j++
				d := e.dist[u]
				lb = max(lb, a+d+(j+e.width-1)/e.width-1)
				if s := e.slot[u]; s >= 0 {
					load[s]++
					lb = max(lb, a+d+(load[s]-1)*e.slotEnq[s])
				}
			}
		}
		b[v] = lb
	}
}

// chains fills dist with the longest chain of issue separations from each
// ancestor of v to v (forward) or from v to each descendant (backward):
// 0 for v itself and -1 for every unrelated node.
func (e *scoreboardEval) chains(v int, forward bool) {
	dist := e.dist
	for u := range dist {
		dist[u] = -1
	}
	dist[v] = 0
	if forward {
		for u := v - 1; u >= 0; u-- {
			for _, d := range e.g.Succs[u] {
				if d.Node <= v && dist[d.Node] >= 0 {
					dist[u] = max(dist[u], e.sep(u, d)+dist[d.Node])
				}
			}
		}
		return
	}
	for w := v + 1; w < e.g.N; w++ {
		for _, d := range e.g.Preds[w] {
			if d.Node >= v && dist[d.Node] >= 0 {
				dist[w] = max(dist[w], e.sep(d.Node, d)+dist[d.Node])
			}
		}
	}
}

// refuted runs the windowed test for target makespan T.
func (e *scoreboardEval) refuted(T int) bool {
	lo, hi := e.lo, e.hi
	copy(lo, e.rel)
	for v, q := range e.tail {
		hi[v] = T - q
	}
	for moved := true; moved; {
		if !e.tighten(lo, hi) {
			return true
		}
		if !e.spend() {
			return false
		}
		if e.overloaded(lo, hi) {
			return true
		}
		moved = false
		for v := range lo {
			for ; lo[v] <= hi[v] && e.refutedAt(v, lo[v]); lo[v]++ {
				moved = true
			}
			for ; lo[v] <= hi[v] && e.refutedAt(v, hi[v]); hi[v]-- {
				moved = true
			}
			if lo[v] > hi[v] {
				return true
			}
		}
	}
	return false
}

// refutedAt reports whether fixing v at tick t, inside the current
// windows, is refuted by precedence and the overload test.
func (e *scoreboardEval) refutedAt(v, t int) bool {
	if !e.spend() {
		return false
	}
	copy(e.tlo, e.lo)
	copy(e.thi, e.hi)
	e.tlo[v], e.thi[v] = t, t
	return !e.tighten(e.tlo, e.thi) || e.overloaded(e.tlo, e.thi)
}

// tighten closes the windows under precedence — a node issues no earlier
// than each predecessor's earliest tick plus the edge's separation, and no
// later than each successor's latest tick minus it — and reports whether
// every window is still non-empty. One forward and one backward pass in
// node order reach the fixpoint.
func (e *scoreboardEval) tighten(lo, hi []int) bool {
	for v := range lo {
		for _, d := range e.g.Preds[v] {
			lo[v] = max(lo[v], lo[d.Node]+e.sep(d.Node, d))
		}
	}
	for u := len(hi) - 1; u >= 0; u-- {
		for _, d := range e.g.Succs[u] {
			hi[u] = min(hi[u], hi[d.Node]-e.sep(u, d))
		}
		if lo[u] > hi[u] {
			return false
		}
	}
	return true
}

// overloaded is the interval-overload test: for every pair a ≤ b of a
// window start and a window end, the nodes whose windows lie inside
// [a, b] must fit in it — at most I per tick, and at most
// ⌊(b−a)/enqueue(p)⌋ + 1 on each pipeline p. One sweep per distinct start
// over the nodes by rising end: O(n·(n + pipelines)).
func (e *scoreboardEval) overloaded(lo, hi []int) bool {
	insertionSort(e.byLo, func(u, w int) bool { return lo[u] > lo[w] })
	insertionSort(e.byHi, func(u, w int) bool { return hi[u] < hi[w] })
	load := e.sweep[:len(e.slotEnq)]
	for k, x := range e.byLo {
		a := lo[x]
		if k > 0 && lo[e.byLo[k-1]] == a {
			continue
		}
		clear(load)
		j := 0
		for _, u := range e.byHi {
			if lo[u] < a {
				continue
			}
			b := hi[u]
			j++
			if b < a || j > e.width*(b-a+1) {
				return true
			}
			if s := e.slot[u]; s >= 0 {
				load[s]++
				if load[s] > (b-a)/e.slotEnq[s]+1 {
					return true
				}
			}
		}
	}
	return false
}

// insertionSort sorts s by less, stably. The overload test re-sorts
// windows that moved a little since the last call, where it runs in
// near-linear time, and it allocates nothing.
func insertionSort(s []int, less func(u, w int) bool) {
	for i := 1; i < len(s); i++ {
		x, j := s[i], i
		for ; j > 0 && less(x, s[j-1]); j-- {
			s[j] = s[j-1]
		}
		s[j] = x
	}
}

// sep is the issue separation edge u→d forces: a flow consumer waits
// for the result (it cannot be bypassed in its producer's own issue
// cycle); an ordering successor issues strictly later.
func (e *scoreboardEval) sep(u int, d dag.Dep) int {
	if d.Kind.CarriesLatency() {
		return e.flowLat[u]
	}
	return 1
}

// push appends node x to the prefix, assigns its issue tick per the
// machine model, and returns the tick. The pipeline is always x's fixed
// one (AssignSearch is rejected in this mode).
func (e *scoreboardEval) push(x, _ int) int {
	k := len(e.order)
	for i, w := range e.frontier {
		e.savedFrontier[k*e.sw+i] = w
	}
	e.sched[x>>6] |= 1 << (x & 63)
	lo := 1
	for _, d := range e.g.Preds[x] {
		u := d.Node
		lo = max(lo, e.tickOf[u]+e.sep(u, d))
		if !e.waits(u) {
			e.frontier[u>>6] &^= 1 << (u & 63)
		}
	}
	if len(e.g.Succs[x]) > 0 {
		e.frontier[x>>6] |= 1 << (x & 63)
	}
	sl := e.slot[x]
	if sl >= 0 {
		lo = max(lo, e.pipeFree[sl])
		e.rem[sl]--
	}
	if k >= e.window {
		// x enters the window only after the (k−window+1)-th smallest
		// prefix tick: at tick t the window holds the first `window`
		// un-issued instructions, so at most window−1 of x's predecessors
		// in π may still be waiting.
		lo = max(lo, e.sorted[k-e.window]+1)
	}
	t := lo
	for t < len(e.cnt) && e.cnt[t] >= e.width {
		t++
	}
	for len(e.cnt) <= t {
		e.cnt = append(e.cnt, 0)
	}
	e.cnt[t]++
	if sl >= 0 {
		e.savedFree[k], e.pipeFree[sl] = e.pipeFree[sl], t+e.slotEnq[sl]
	}
	e.order = append(e.order, x)
	e.ticks = append(e.ticks, t)
	e.tickOf[x] = t
	// Insert t into sorted from the top: new ticks land near the makespan.
	i := len(e.sorted)
	e.sorted = append(e.sorted, t)
	for ; i > 0 && e.sorted[i-1] > t; i-- {
		e.sorted[i] = e.sorted[i-1]
	}
	e.sorted[i] = t
	e.savedMax[k], e.maxTick = e.maxTick, max(e.maxTick, t)
	e.savedDrain[k], e.drain = e.drain, max(e.drain, t+e.heightTicks[x])
	e.savedTallest[k] = e.tallest
	for e.tallest < len(e.byHeight) && e.scheduled(e.byHeight[e.tallest]) {
		e.tallest++
	}
	return t
}

// pop undoes the most recent push of node x.
func (e *scoreboardEval) pop(x int) {
	k := len(e.order) - 1
	t := e.ticks[k]
	e.order = e.order[:k]
	e.ticks = e.ticks[:k]
	e.cnt[t]--
	e.sched[x>>6] &^= 1 << (x & 63)
	for i := range e.frontier {
		e.frontier[i] = e.savedFrontier[k*e.sw+i]
	}
	if sl := e.slot[x]; sl >= 0 {
		e.pipeFree[sl] = e.savedFree[k]
		e.rem[sl]++
	}
	i := len(e.sorted) - 1
	for e.sorted[i] != t {
		i--
	}
	for ; i+1 < len(e.sorted); i++ {
		e.sorted[i] = e.sorted[i+1]
	}
	e.sorted = e.sorted[:len(e.sorted)-1]
	e.maxTick = e.savedMax[k]
	e.drain = e.savedDrain[k]
	e.tallest = e.savedTallest[k]
}

// waits reports whether scheduled node u still has an unscheduled
// successor.
func (e *scoreboardEval) waits(u int) bool {
	for i, w := range e.succSet[u*e.sw : (u+1)*e.sw] {
		if w&^e.sched[i] != 0 {
			return true
		}
	}
	return false
}

func (e *scoreboardEval) scheduled(u int) bool    { return e.sched[u>>6]&(1<<(u&63)) != 0 }
func (e *scoreboardEval) placed() []uint64        { return e.sched }
func (e *scoreboardEval) pipeChoices(x int) []int { return e.pipeOf[x : x+1] }

// cost returns the prefix's stall floor: the running makespan never
// decreases along a branch, so this is an admissible lower bound on any
// completion's stall count (and equals it on a complete schedule).
func (e *scoreboardEval) cost() int { return max(e.maxTick-e.minTicks, 0) }

// lower bounds the stalls of every completion from the window's base
// tick b, after which every future instruction issues (see base). cp is
// the larger of two critical-path terms:
//
//   - every scheduled node's downstream chain: its tick + heightTicks
//     (drain);
//   - the tallest unscheduled node's: it issues at b+1 or later.
//
// res is the larger of two resource terms:
//
//   - issue width: the unscheduled nodes and the prefix ticks above b
//     all fall in ticks after b, at most I per tick;
//   - per-pipeline occupancy: the rem unscheduled nodes of a pipeline
//     enqueue in FIFO order, the first at max(pipeFree, b+1) or later and
//     each next one enqueue ticks after, and the last of them adds its
//     chain, at least minH.
//
// push and pop keep every input, so a call is O(width + pipelines).
// DESIGN.md §11 carries the admissibility argument.
func (e *scoreboardEval) lower() (cp, res int) {
	k := len(e.order)
	b, above := e.base()
	cp = e.drain
	if e.tallest < len(e.byHeight) {
		cp = max(cp, b+1+e.heightTicks[e.byHeight[e.tallest]])
	}
	res = b + (e.g.N-k+above+e.width-1)/e.width
	for s, r := range e.rem {
		if r > 0 {
			res = max(res, max(e.pipeFree[s], b+1)+(r-1)*e.slotEnq[s]+e.minH[s])
		}
	}
	return cp - e.minTicks, res - e.minTicks
}

// base returns the window's base tick b — sorted[k−W] once k ≥ W
// instructions are placed, 0 before — and how many prefix ticks lie above
// it. The window admits position j ≥ k only after sorted[j−W] ≥ b, so
// every future instruction issues after b. At most I prefix ticks equal
// b, so the scan past sorted[k−W] is O(I).
func (e *scoreboardEval) base() (b, above int) {
	k := len(e.order)
	if k < e.window {
		return 0, k
	}
	i := k - e.window
	b = e.sorted[i]
	for i++; i < k && e.sorted[i] == b; i++ {
	}
	return b, k - i
}

// root is rootTicks against the width floor, computed once; 0 when the
// lower bound is disabled. Stall counts are never negative, so even the
// trivial 0 certifies.
func (e *scoreboardEval) root() (int, bool) { return e.rootLB, true }

func (e *scoreboardEval) snapshot() Schedule {
	n := len(e.order)
	s := Schedule{
		Order:      append([]int(nil), e.order...),
		Eta:        make([]int, n), // no NOP padding: hardware interlocks
		Pipes:      make([]int, n),
		TotalNOPs:  e.cost(),
		Ticks:      e.maxTick,
		IssueTicks: append([]int(nil), e.ticks...),
	}
	for i, u := range e.order {
		s.Pipes[i] = e.pipeOf[u]
	}
	return s
}

func (e *scoreboardEval) price(order []int) (Schedule, error) {
	for _, u := range order {
		e.push(u, anyPipe)
	}
	s := e.snapshot()
	for i := len(order) - 1; i >= 0; i-- {
		e.pop(order[i])
	}
	return s, nil
}

// scoreboardMemoBytes bounds the scoreboard dominance table's storage.
// The table fills on large blocks and then evicts its lighter half, so
// its size trades memo hits against peak memory. On the scoreboard bench
// workload (2 vCPUs, medians of three runs each) a 768 KiB table gained
// nothing within noise, 360 against 353 blocks/s and a p95 block latency
// of 9.7 against 9.3 ms, and took 15.6 against 14.7 MiB of peak RSS.
const scoreboardMemoBytes = 384 << 10

// keyFields bounds the residual fields of a key: the top window ticks,
// one per pipeline, and one per frontier node.
func (e *scoreboardEval) keyFields() int {
	return e.window - 1 + len(e.pipeFree) + e.g.N
}

// maxResidual bounds every value a key holds. One push issues at most
// D = max(1, the largest latency) past the running makespan (enqueue
// times never exceed latencies), and only the fewer than min(W, N+1)
// prefix ticks above the base b can raise the makespan past b, so the
// top window ticks lie within min(W−1, N)·D of b; a pipeline or in-flight
// residual, measured past b+1, adds at most D−1.
func (e *scoreboardEval) maxResidual() int {
	return (min(e.window-1, e.g.N)+1)*max(1, e.m.MaxLatency()) - 1
}

func (e *scoreboardEval) keyWords() int { return e.enc.Words() }
func (e *scoreboardEval) memoBound() (entries, words int) {
	return memo.SplitBytes(scoreboardMemoBytes)
}

// key writes the window state's dominance key into dst, relative to the
// window's base tick b: the (k−W+1)-th smallest prefix tick once k ≥ W
// instructions are placed, 0 before. Every later instruction issues
// after b — the window admits position j ≥ k only after sorted[j−W] ≥ b —
// so a completion reads only
//
//   - the scheduled set;
//   - the prefix ticks above sorted[k−W], which with the future ticks
//     fix every later window threshold and every width count past b (the
//     ticks at or below b sort below every future tick);
//   - each pipeline's next enqueue tick, as its residual past b+1;
//   - each frontier node — scheduled, with an unscheduled successor — as
//     the residual of tick+flowLat past b+1: a flow edge needs that tick,
//     an ordering edge tick+1 ≤ it (flowLat ≥ 1), so a zero residual
//     means neither binds and a positive one recovers the tick. The
//     frontier follows from the scheduled set, so its residuals go in
//     node order with no node numbers, zeros included.
//
// All of these are relative to b, so two prefixes with equal keys have
// the same completions with every tick shifted by the difference Δb of
// their bases, and so does their makespan so far. The table therefore
// compares the unclamped maxTick − ⌈N/I⌉: a visit at least as high has
// Δb ≥ 0, and each of its completions costs at least as much as the
// recorded visit's. (The clamped stall floor cost returns would equate
// two short prefixes with different bases.)
func (e *scoreboardEval) key(dst []uint64) ([]uint64, int) {
	c := e.enc
	c.Begin(dst, e.sched)
	k, b, top := len(e.order), 0, e.sorted
	if k >= e.window {
		b, top = e.sorted[k-e.window], e.sorted[k-e.window+1:]
	}
	for _, t := range top {
		c.Value(t - b)
	}
	for _, f := range e.pipeFree {
		c.Value(memo.Residual(f, b))
	}
	for w, rest := range e.frontier {
		for ; rest != 0; rest &= rest - 1 {
			u := w<<6 | bits.TrailingZeros64(rest)
			c.Value(memo.Residual(e.tickOf[u]+e.flowLat[u], b))
		}
	}
	return c.Key(), e.maxTick - e.minTicks
}
