// Package core implements the paper's optimal pipeline scheduling search
// (section 4.2.3): a heavily-pruned depth-first branch-and-bound over
// instruction orderings that finds the minimum-NOP schedule of a basic
// block for a machine with multiple pipelines, each with its own latency
// and enqueue time.
//
// The search maintains the paper's Π as a mutable permutation. At depth i
// the prefix Φ = Π[0:i] is committed; candidates for position i are drawn
// from the suffix Ψ by swapping. A candidate survives:
//
//	[5a] the quick approximate legality check — earliest(ξ) ≤ i and, for a
//	     genuine swap, latest(κ) ≥ the position κ would move to;
//	[5b] the real legality check — every immediate predecessor of ξ is
//	     already in Φ;
//	[5c] the equivalence filter — a swap of two instructions that both
//	     use no pipeline and have no predecessors can only produce a
//	     schedule provably equivalent to one already considered, so it
//	     is skipped.
//
// After a candidate is placed, the NOP-insertion procedure Ω
// (internal/nopins) prices the new position and α–β pruning abandons the
// branch unless μ(Φ) < μ(π), the best complete schedule found so far.
// Every Ω invocation counts toward the curtail point λ; if λ is reached
// the search stops with the best schedule found, which may then be
// suboptimal (the paper's rule [2]).
//
// None of the pruning rules can remove all optimal schedules: [5b] removes
// only illegal orders, [5a] removes only orders that [5b] would reject at
// a deeper level, [5c] removes only cost-equal duplicates, and α–β removes
// only prefixes already at least as expensive as a known complete
// schedule (η is non-negative, so a prefix's cost never decreases).
//
// Every sched mode runs this one skeleton (searcher); what differs is the
// evaluator that prices placements — the paper's in-order machine or the
// scoreboard window — so Find and FindParallel serve every mode.
package core

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"sync/atomic"
	"time"

	"pipesched/internal/bound"
	"pipesched/internal/dag"
	"pipesched/internal/gross"
	"pipesched/internal/listsched"
	"pipesched/internal/machine"
	"pipesched/internal/memo"
	"pipesched/internal/nopins"
)

// ErrBudget is the stop reason when the search is curtailed by the λ
// budget (the paper's rule [2]).
var ErrBudget = errors.New("core: search budget λ exhausted")

// ErrInfeasible reports that the minreg-k mode's register-pressure
// constraint admits NO legal schedule of the block: the search (or the
// root pressure floor) proved that every topological order needs more
// than k simultaneously live values. It is returned only with a
// completed proof — a curtailed search that merely failed to find a
// feasible schedule wraps its stop reason (ErrBudget or the context
// error) instead.
var ErrInfeasible = errors.New("core: register-pressure bound admits no legal schedule")

// Options configures the search.
type Options struct {
	// Sched selects the scheduler machine model (DESIGN.md §15) and so
	// the search's evaluator; every mode runs the same branch-and-bound
	// skeleton, sequential or parallel. The zero value is the paper's
	// model: minimize total NOPs on the in-order multi-pipeline machine.
	// machine.SchedMinRegLex minimizes (NOPs, MAXLIVE) lexicographically;
	// machine.SchedMinRegK minimizes NOPs subject to MAXLIVE ≤ K (Find
	// returns ErrInfeasible when the constraint is proven unsatisfiable);
	// machine.SchedScoreboard schedules for an out-of-order issue window
	// and minimizes stall ticks (see scoreboard.go for its conventions).
	Sched machine.SchedMode

	// Lambda is the curtail point λ: the maximum number of Ω invocations
	// (search steps) before the search gives up optimality and returns
	// the best schedule found. Zero or negative means unlimited.
	Lambda int64

	// Ctx, when non-nil, is polled inside the branch-and-bound inner
	// loop (every ctxCheckEvery Ω invocations, alongside the λ budget).
	// When it is done, the search stops exactly like a curtailment and
	// returns the best incumbent found so far; Schedule.Stopped records
	// the context's error. λ bounds search *work*, Ctx bounds
	// *wall-clock time* — a deadline holds even when individual Ω
	// invocations are slow or λ is unlimited.
	Ctx context.Context

	// Assign selects pipeline binding when op→pipeline sets are not
	// singletons: nopins.AssignFixed reproduces the paper's core model,
	// nopins.AssignGreedy the greedy extension.
	Assign nopins.AssignMode

	// AssignSearch additionally branches the search over every allowed
	// pipeline for each placement (exact assignment extension). It
	// implies per-placement exploration beyond the paper's algorithm and
	// is off by default.
	AssignSearch bool

	// DisableEquivalence turns off the paper's [5c] filter (ablation).
	DisableEquivalence bool

	// DisableBoundsCheck turns off the paper's [5a] quick check
	// (ablation; [5b] still guarantees correctness).
	DisableBoundsCheck bool

	// StrongEquivalence enables the extension filter: among unscheduled
	// instructions that are provably interchangeable (same pipeline set,
	// identical predecessor and successor dependence structure), only the
	// lowest-numbered may be placed first. It supersedes the paper's [5c]
	// swap filter, which is disabled while this is on: [5c]-equivalent
	// pairs always share a class, and running both rules lets each defer
	// to a subtree the other pruned (see the dfs candidate loop). Off by
	// default for fidelity.
	StrongEquivalence bool

	// SeedPriority picks the list-scheduling discipline for the initial
	// schedule when InitialOrder is nil.
	SeedPriority listsched.Priority

	// DisableLowerBound turns off the lower-bound engine's per-state
	// pruning — the critical-path/height bound and the per-pipeline
	// enqueue-occupancy bound (internal/bound, or the scoreboard mode's
	// own in scoreboard.go) used to strengthen α–β (an
	// optimality-preserving extension: both bounds are admissible, so
	// only branches provably unable to beat the incumbent are cut).
	// Disable for a paper-faithful search (ablation).
	DisableLowerBound bool

	// DisableMemo turns off the dominance/transposition table
	// (internal/memo) in every mode: revisited search states whose
	// recorded cost-so-far dominates are no longer pruned. Disable for a
	// paper-faithful search (ablation).
	DisableMemo bool

	// DisableGreedySeed stops the search from also pricing the
	// Gross-style greedy schedule and seeding with the cheaper of the two
	// candidates. The paper notes any scheduling technique may provide
	// the initial schedule (section 3.2); taking the better of both makes
	// the curtailed search never lose to the greedy baseline and
	// tightens α–β from the first node. Disable for a paper-faithful
	// list-schedule-only seed (ablation).
	DisableGreedySeed bool

	// InitialOrder, when non-nil, seeds the search with this order
	// instead of running the list scheduler. It must be a legal
	// topological order of the block's DAG.
	InitialOrder []int

	// Trace, when non-nil, is called with every search event (debugging
	// and teaching); it does not affect the search. A parallel search
	// calls it from all of its workers at once.
	Trace func(TraceEvent)

	// Entry, when non-nil, supplies cross-block initial conditions
	// (pipeline reservations and in-flight values from preceding code) —
	// the paper's footnote 1 extension, also used by the block splitter.
	Entry *nopins.EntryState
}

// Stats records how hard the search worked.
type Stats struct {
	OmegaCalls        int64 // Ω invocations during the search (Λ)
	SeedOmegaCalls    int64 // Ω invocations pricing the initial schedule
	SchedulesExamined int64 // complete schedules reached (incl. the seed)
	Improvements      int64 // times the incumbent best was replaced
	PrunedBounds      int64 // candidates removed by [5a]
	PrunedIllegal     int64 // candidates removed by [5b]
	PrunedEquivalence int64 // candidates removed by [5c]
	PrunedStrongEquiv int64 // candidates removed by the extension filter
	PrunedAlphaBeta   int64 // placements abandoned by α–β
	PrunedLowerBound  int64 // placements abandoned by the critical-path bound
	PrunedResource    int64 // placements abandoned by the resource bound (enqueue occupancy; issue width too on the scoreboard)
	PrunedPressure    int64 // placements abandoned by the MAXLIVE ≤ k constraint
	MemoHits          int64 // placements abandoned by dominance (revisited state)
	Curtailed         bool  // search stopped early (λ, deadline or cancellation)
	Elapsed           time.Duration
}

// Schedule is the search result.
type Schedule struct {
	Order       []int // execution order, as nodes of the DAG
	Eta         []int // NOPs inserted immediately before each position
	Pipes       []int // pipeline assignment per position
	TotalNOPs   int   // μ(π): the schedule's cost
	Ticks       int   // total issue ticks (instructions + NOPs)
	InitialNOPs int   // μ of the seed schedule, before searching
	Optimal     bool  // true iff the search ran to completion (rule [1])
	// RootLB is the admissible root lower bound on TotalNOPs computed by
	// internal/bound before the search (0 when the bound engine is fully
	// disabled — then it is the trivial bound).
	RootLB int
	// Gap is the certified optimality gap: 0 when the result is proven
	// optimal, otherwise TotalNOPs − RootLB — a proof that the true
	// optimum lies within Gap NOPs of the returned schedule, attached to
	// every curtailed result.
	Gap int
	// Stopped records why the search ended early: nil when it ran to
	// completion, ErrBudget when λ was exhausted, or the context's
	// error (context.Canceled / context.DeadlineExceeded) when
	// Options.Ctx ended it. Optimal == (Stopped == nil).
	Stopped error
	Stats   Stats

	// MaxLive is the schedule's peak register pressure, filled by the
	// register-pressure modes (machine.SchedMinRegLex / SchedMinRegK);
	// 0 in the other modes. It always equals regalloc.Pressure of the
	// scheduled block — the oracle enforces that.
	MaxLive int

	// IssueTicks, filled by the scoreboard mode only, gives the absolute
	// issue tick of each position of Order (ticks start at 1; several
	// positions may share a tick up to the issue width). In that mode
	// TotalNOPs holds the schedule's stall count — the final issue tick
	// minus the width-limited minimum ⌈N/width⌉ — and Eta is all zeros
	// (an out-of-order core interlocks in hardware; no NOP padding is
	// emitted).
	IssueTicks []int
}

// evaluator is the one part of the search that differs between sched
// modes: the cost model the skeleton prices placements with, following
// its Push/Pop discipline. inOrderEval implements it for the paper's
// machine (paper, minreg-lex, minreg-k); scoreboardEval for the
// out-of-order window (scoreboard.go). cost must never decrease along a
// branch — it is then an admissible bound on every completion, exact on
// a complete schedule — and lower/root must be admissible too.
type evaluator interface {
	push(x, pipe int) int                // place x next (pipe, or the mode's choice for anyPipe); returns η or the issue tick, for tracing
	pop(x int)                           // undo the most recent push, of x, exactly
	placed() []uint64                    // the prefix's node set, one bit per node
	cost() int                           // prefix cost: μ(Φ), or the stall floor
	lower() (cp, res int)                // critical-path and resource bounds after the last push (0 = none)
	root() (lb int, certify bool)        // root bound; certify: an incumbent meeting it is optimal
	snapshot() Schedule                  // the complete prefix: Order, Eta, Pipes, TotalNOPs, Ticks, IssueTicks
	price(order []int) (Schedule, error) // price one legal order, leaving the prefix empty
	pipeChoices(x int) []int             // the pipelines AssignSearch branches over
}

// stateKeyer is the optional part of the evaluator contract: a mode that
// can name its residual scheduling problem gets the dominance table. The
// key must be admissible: when two prefixes have equal keys, every
// completion of the one whose returned cost is no higher must cost no
// more than the same completion of the other. The in-order key is
// relative to the last issue tick (internal/memo), the scoreboard key
// to the window's base tick (scoreboard.go).
type stateKeyer interface {
	// key writes the current state's key into dst and returns it with the
	// cost-so-far the table compares under it.
	key(dst []uint64) ([]uint64, int)
	keyWords() int                   // the longest key, in words
	memoBound() (entries, words int) // the table's bound, per searcher
}

// newTable builds each searcher's dominance table; a test swaps in a
// constant hash to force every key into one probe chain.
var newTable = memo.NewTable

// refuter is the optional part of the evaluator contract: a mode that can
// raise its root bound by refutation (scoreboard.go). refute returns a
// proven bound in [lb, incumbent], lb itself when it proves nothing more,
// and must leave the evaluator's prefix state as it found it.
type refuter interface {
	refute(lb, incumbent int) int
}

// refuteRoot lets find ask a refuter to raise the root bound; a test
// clears it to compare against a search that never refutes.
var refuteRoot = true

// anyPipe asks evaluator.push for the mode's own pipeline choice.
const anyPipe = -1

// problem is the read-only state of one search, shared by every worker
// of a parallel search: the inputs, the mode's cost packing and root
// certificate, and per-node facts computed once.
type problem struct {
	g    *dag.Graph
	m    *machine.Machine
	opts Options

	// pipes[u] is machine.PipelinesFor(u's op), empty when u uses no
	// pipeline, filled by pipeSets; [5c] and the scoreboard model read it.
	pipes      [][]int
	equivClass []int // StrongEquivalence: canonical representative per node

	// predSet holds each node's immediate predecessors as a bitset of sw
	// words (node u at u*sw); [5b] reads it.
	sw      int
	predSet []uint64

	// The incumbent is compared in the mode's packed order: plain NOPs
	// for paper/minreg-k/scoreboard, (NOPs, MAXLIVE) packed
	// lexicographically for minreg-lex. rootCost is the same packing of
	// the root lower bounds; when certify holds, incumbent ≤ rootCost is
	// the mode-aware optimality certificate. raiseRoot may raise rootLB
	// and rootCost once, before the search starts.
	lex      bool // minreg-lex: lexicographic (NOPs, MAXLIVE)
	kBound   int  // minreg-k: MAXLIVE bound (0 = unconstrained)
	rootLB   int  // admissible lower bound of the empty schedule
	rootCost int64
	certify  bool
}

func newProblem(g *dag.Graph, m *machine.Machine, opts Options) *problem {
	p := &problem{g: g, m: m, opts: opts, sw: memo.SchedWords(g.N)}
	p.predSet = make([]uint64, g.N*p.sw)
	for u, preds := range g.Preds {
		for _, d := range preds {
			p.predSet[u*p.sw+d.Node>>6] |= 1 << (d.Node & 63)
		}
	}
	p.lex = opts.Sched.Kind == machine.SchedMinRegLex
	if opts.Sched.Kind == machine.SchedMinRegK {
		p.kBound = opts.Sched.K
	}
	if opts.StrongEquivalence {
		p.equivClass = equivalenceClasses(g, p.pipeSets())
	}
	return p
}

// pipeSets fills pipes on first use, once per search: a seed the root
// bound certifies never needs them, and every caller runs before any
// parallel worker starts.
func (p *problem) pipeSets() [][]int {
	if p.pipes == nil {
		p.pipes = make([][]int, p.g.N)
		for u := range p.pipes {
			p.pipes[u] = p.m.PipelinesFor(p.g.Block.Tuples[u].Op)
		}
	}
	return p.pipes
}

// ready is [5b]: every immediate predecessor of x is in placed, the
// prefix's node set — one word compare per 64 nodes.
func (p *problem) ready(x int, placed []uint64) bool {
	for i, w := range p.predSet[x*p.sw : (x+1)*p.sw] {
		if w&^placed[i] != 0 {
			return false
		}
	}
	return true
}

// newEvaluator builds the mode's evaluator (one per parallel worker).
func (p *problem) newEvaluator() (evaluator, error) {
	if p.opts.Sched.Kind == machine.SchedScoreboard {
		return newScoreboardEval(p)
	}
	return newInOrderEval(p), nil
}

// searcher carries the mutable state of one search (or one worker of a
// parallel search): the branch-and-bound skeleton every mode runs.
type searcher struct {
	*problem
	ev    evaluator
	keyer stateKeyer  // ev's state key, when the dominance table is on
	table *memo.Table // dominance table (nil when disabled or keyless)
	keys  []uint64    // per-depth lookup keys, kw words apart (made on first use)
	kw    int
	lt    *liveTracker // non-nil in the register-pressure modes

	perm     []int    // the paper's Π: current complete ordering
	best     Schedule // incumbent (Order is empty while there is none)
	bestCost int64    // packed incumbent cost (noIncumbent = none yet)
	stats    Stats
	curtail  bool
	stopErr  error // why the search stopped early (ErrBudget or ctx error)

	shared *sharedBound // non-nil when part of a parallel search
	worker int          // parallel-search worker index, stamped on trace events
}

// newSearcher builds a searcher over a fresh evaluator at Π = perm.
func (p *problem) newSearcher(ev evaluator, perm []int) *searcher {
	s := &searcher{problem: p, ev: ev, perm: append([]int(nil), perm...), bestCost: noIncumbent}
	if k, ok := ev.(stateKeyer); ok && !p.opts.DisableMemo {
		s.keyer, s.table, s.kw = k, newTable(k.memoBound()), k.keyWords()
	}
	if p.opts.Sched.NeedsPressure() {
		s.lt = newLiveTracker(p.g)
	}
	return s
}

// noIncumbent is bestCost before any feasible schedule is known (only
// reachable in minreg-k mode, whose seed may violate the constraint).
const noIncumbent = int64(1) << 62

// sharedBound is the cross-worker state of a parallel search: the best
// complete-schedule packed cost seen anywhere (for α–β) and the global
// Ω-call budget.
type sharedBound struct {
	best   atomic.Int64 // packed cost (mode's order), noIncumbent when empty
	omega  atomic.Int64
	lambda int64
}

// bound returns the α–β cutoff in the mode's packed cost order: the
// cheapest complete schedule known to this searcher or, in a parallel
// search, to any worker.
func (s *searcher) bound() int64 {
	if s.shared != nil {
		return min(s.bestCost, s.shared.best.Load())
	}
	return s.bestCost
}

// publish makes a new incumbent packed cost visible to sibling workers.
func (s *searcher) publish(cost int64) {
	if s.shared == nil {
		return
	}
	for {
		cur := s.shared.best.Load()
		if cost >= cur || s.shared.best.CompareAndSwap(cur, cost) {
			return
		}
	}
}

// ctxCheckEvery is how many Ω invocations pass between cooperative
// cancellation checks: frequent enough that a deadline stops the search
// within microseconds, rare enough that ctx.Err's mutex stays off the
// hot path. The first check fires on the very first invocation so an
// already-expired context never starts a descent.
const ctxCheckEvery = 64

// chargeOmega counts one Ω invocation against the (possibly shared)
// curtail budget and polls the context, reporting whether the search
// must stop. The stop reason is recorded in stopErr.
func (s *searcher) chargeOmega() bool {
	s.stats.OmegaCalls++
	if s.opts.Ctx != nil && s.stats.OmegaCalls%ctxCheckEvery == 1 {
		if err := s.opts.Ctx.Err(); err != nil {
			return s.stop(err)
		}
	}
	n, lambda := s.stats.OmegaCalls, s.opts.Lambda
	if s.shared != nil {
		n, lambda = s.shared.omega.Add(1), s.shared.lambda
	}
	return lambda > 0 && n >= lambda && s.stop(ErrBudget)
}

// stop records the first reason the search stopped early.
func (s *searcher) stop(err error) bool {
	if s.stopErr == nil {
		s.stopErr = err
	}
	return true
}

// errIllegalSeed reports an InitialOrder that breaks dependences.
var errIllegalSeed = fmt.Errorf("core: initial order violates dependences")

// Find runs the search and returns the best schedule discovered.
func Find(g *dag.Graph, m *machine.Machine, opts Options) (*Schedule, error) {
	return find(g, m, opts, 0)
}

// find is the one setup and finish path behind Find and FindParallel:
// seeding, the pressure floor, the root certificate and the result. With
// workers == 0 it runs the sequential dfs(0); otherwise the depth-0 fan-out.
func find(g *dag.Graph, m *machine.Machine, opts Options, workers int) (*Schedule, error) {
	if err := opts.Sched.Validate(); err != nil {
		return nil, err
	}
	p := newProblem(g, m, opts)
	ev, err := p.newEvaluator()
	if err != nil {
		return nil, err
	}
	if g.N == 0 {
		empty := &Schedule{Optimal: true, Order: []int{}, Eta: []int{}, Pipes: []int{}}
		if opts.Sched.Kind == machine.SchedScoreboard {
			empty.IssueTicks = []int{}
		}
		return empty, nil
	}
	seed := opts.InitialOrder
	if seed == nil {
		seed = listsched.Schedule(g, opts.SeedPriority)
	}
	if !g.IsLegalOrder(seed) {
		return nil, errIllegalSeed
	}
	peakFloor := 0
	if opts.Sched.NeedsPressure() {
		peakFloor = bound.PressureFloor(g)
		if p.kBound > 0 && peakFloor > p.kBound {
			// The static pressure floor already exceeds k: every legal
			// order is infeasible, no search needed.
			return nil, fmt.Errorf("%w: every legal order of block %q needs MAXLIVE ≥ %d, bound is %d",
				ErrInfeasible, g.Block.Label, peakFloor, p.kBound)
		}
	}
	p.rootLB, p.certify = ev.root()
	p.rootCost = p.packCost(p.rootLB, peakFloor)
	s := p.newSearcher(ev, seed)
	start := time.Now()

	// Step [1]: price the initial schedule; it becomes π, the incumbent —
	// unless minreg-k rejects its pressure, in which case the search
	// starts with no incumbent at all (α–β against noIncumbent).
	initial, err := s.offerSeed(seed)
	if err != nil {
		return nil, err
	}

	// Optionally also price the greedy baseline's order and keep the
	// cheaper incumbent (the search explores the same space either way;
	// a tighter incumbent only prunes more).
	if opts.InitialOrder == nil && !opts.DisableGreedySeed && s.bestCost > 0 {
		_, _ = s.offerSeed(gross.Schedule(g, m, opts.Assign).Order) // an order that fails to price is not offered
	}
	if len(s.best.Order) == g.N {
		initial = s.best.TotalNOPs // the seed cost the search starts from
	}

	// Steps [2]–[8]: depth-first search over swaps, unless the seed is
	// already provably optimal — packed cost zero cannot be beaten, and a
	// seed matching the packed root lower bound cannot be beaten either
	// (the bound engine's optimality certificate; skipping the search
	// costs nothing). In minreg-lex the certificate needs BOTH floors:
	// NOP-optimality alone does not prove pressure-optimality.
	//
	// A refuter may raise the root bound first, the same way for a
	// sequential search and a parallel one (no worker shares the problem
	// yet); a raised bound the incumbent meets proves it optimal.
	if s.bestCost > 0 && (!p.certify || s.bestCost > p.rootCost) {
		p.pipeSets()
		if !s.raiseRoot() {
			if workers == 0 {
				s.dfs(0)
			} else {
				s.fanOut(workers)
			}
		}
	}
	s.stats.Elapsed = time.Since(start)
	s.stats.Curtailed = s.curtail

	if len(s.best.Order) != g.N {
		// minreg-k only: no feasible schedule was ever found. A completed
		// search is a proof of infeasibility; a curtailed one is not.
		if s.curtail {
			return nil, fmt.Errorf("core: no schedule with MAXLIVE ≤ %d found before the search stopped: %w",
				p.kBound, s.stopErr)
		}
		return nil, fmt.Errorf("%w: exhausted search found no order of block %q with MAXLIVE ≤ %d",
			ErrInfeasible, g.Block.Label, p.kBound)
	}
	res := s.best
	res.InitialNOPs = initial
	res.Optimal = !s.curtail
	res.RootLB = p.rootLB
	if s.curtail && res.TotalNOPs > p.rootLB {
		// The certified gap of a curtailed result. The root bound is
		// admissible, so it is never negative; the guard only keeps a
		// future bound bug from turning into a negative user-facing gap.
		res.Gap = res.TotalNOPs - p.rootLB
	}
	res.Stopped = s.stopErr
	res.Stats = s.stats
	return &res, nil
}

// offerSeed prices one complete order before the search, makes it the
// incumbent when feasible and strictly cheaper, and returns its cost.
func (s *searcher) offerSeed(order []int) (int, error) {
	sched, err := s.ev.price(order)
	if err != nil {
		return 0, err
	}
	s.stats.SeedOmegaCalls += int64(s.g.N)
	s.stats.SchedulesExamined++
	peak := 0
	if s.lt != nil {
		peak = peakOf(s.g, order)
	}
	// In minreg-k an order over the pressure bound is no incumbent.
	if c := s.packCost(sched.TotalNOPs, peak); (s.kBound == 0 || peak <= s.kBound) && c < s.bestCost {
		s.best, s.bestCost = sched, c
		s.best.MaxLive = peak
	}
	return sched.TotalNOPs, nil
}

// trace reports a search event, reading μ only when a hook is attached.
func (s *searcher) trace(a TraceAction, depth, node, eta int) {
	if s.opts.Trace != nil {
		s.opts.Trace(TraceEvent{Action: a, Depth: depth, Node: node, Eta: eta, Mu: s.ev.cost(), Worker: s.worker})
	}
}

// dfs fills position i of the schedule. It returns false when the search
// has been curtailed (or certified optimal) and must unwind.
func (s *searcher) dfs(i int) bool {
	for k := i; k < s.g.N; k++ {
		if !s.admit(i, k) {
			continue
		}
		xi := s.perm[k]
		s.perm[i], s.perm[k] = s.perm[k], s.perm[i]
		ok := s.place(i, xi)
		s.perm[i], s.perm[k] = s.perm[k], s.perm[i]
		if !ok {
			return false
		}
	}
	return true
}

// admit is the candidate filter of dfs: whether ξ = Π[k] may be tried at
// position i, counting and tracing the rule that rejects it. All four
// rules are order-structural, so they apply unchanged in every mode —
// [5c] and strong equivalence exchange instructions with identical
// dependence structure and pipeline sets, which leaves the cost of every
// completion unchanged under any of the evaluators.
func (s *searcher) admit(i, k int) bool {
	xi := s.perm[k]
	if k > i {
		kappa := s.perm[i]
		if !s.opts.DisableBoundsCheck {
			// [5a] quick approximate legality: ξ needs at most i
			// ancestors to sit at position i, and κ must still have a
			// legal position after i. (The paper writes the second
			// clause as latest(κ) ≥ Π⁻¹(ξ); requiring κ to be legal at
			// ξ's old slot specifically would prune real schedules in
			// this DFS realization — κ may move again at deeper
			// levels — so we use the necessary condition instead.)
			if s.g.Earliest(xi) > i || s.g.Latest(kappa) <= i {
				s.stats.PrunedBounds++
				s.trace(TraceBounds, i, xi, 0)
				return false
			}
		}
		// [5c] is suppressed when the strong-equivalence filter is
		// active: every [5c]-equivalent pair (no pipes, no preds,
		// identical successors) necessarily shares a strong-equivalence
		// class, and the class's canonical within-class ordering
		// already deduplicates those swaps. Running both rules is
		// unsound, not merely redundant — [5c]'s witness is "κ at this
		// position was explored", but the strong filter may have
		// blocked κ here (deferring to lower-numbered-twin-first
		// orders), so each rule defers to a subtree the other pruned
		// and the whole class vanishes from this position. Caught by
		// the differential oracle as a claimed-optimal schedule one
		// NOP above the true optimum.
		if !s.opts.StrongEquivalence && !s.opts.DisableEquivalence && s.equivalentSwap(kappa, xi) {
			s.stats.PrunedEquivalence++
			s.trace(TraceEquiv, i, xi, 0)
			return false
		}
	}
	if !s.ready(xi, s.ev.placed()) { // [5b]
		s.stats.PrunedIllegal++
		s.trace(TraceIllegal, i, xi, 0)
		return false
	}
	if s.opts.StrongEquivalence && s.strongEquivBlocked(xi) {
		s.stats.PrunedStrongEquiv++
		s.trace(TraceStrong, i, xi, 0)
		return false
	}
	return true
}

// place prices ξ at position i (over one or all allowed pipelines,
// depending on AssignSearch), applies α–β, and recurses. It returns false
// when the search must unwind.
func (s *searcher) place(i, xi int) bool {
	if s.opts.AssignSearch {
		for _, pipe := range s.ev.pipeChoices(xi) {
			if !s.placeOnPipe(i, xi, pipe) {
				return false
			}
		}
		return true
	}
	return s.placeOnPipe(i, xi, anyPipe)
}

func (s *searcher) placeOnPipe(i, xi, pipe int) bool {
	// Step [4]: the curtail point counts Ω invocations.
	if s.chargeOmega() {
		s.curtail = true
		s.trace(TraceCurtail, i, xi, 0)
	}
	eta := s.ev.push(xi, pipe)
	if s.lt != nil {
		s.lt.push(xi)
	}
	s.trace(TracePlace, i, xi, eta)
	ok := s.expand(i, xi, eta)
	if s.lt != nil {
		s.lt.pop(xi)
	}
	s.ev.pop(xi)
	return ok
}

// expand prunes or descends from the prefix that ends with ξ at position
// i. Each abandoned placement is attributed to exactly one prune class.
func (s *searcher) expand(i, xi, eta int) bool {
	cost, peak := s.ev.cost(), s.livePeak()

	// minreg-k feasibility: the running MAXLIVE never decreases along a
	// branch, so a prefix already over the bound has no feasible
	// completion — an exact prune, not a heuristic.
	if s.kBound > 0 && peak > s.kBound {
		s.stats.PrunedPressure++
		s.trace(TracePressure, i, xi, 0)
		return !s.curtail
	}

	// Step [6]: α–β — descend only while strictly cheaper than the best
	// complete schedule. curCost is the prefix's packed cost: both
	// components (the mode's cost and, in minreg-lex, MAXLIVE) are
	// non-decreasing along a branch, so it is an admissible lower bound
	// on any completion's packed cost.
	curCost, b := s.packCost(cost, peak), s.bound()
	if b <= s.rootCost && s.certify {
		// Only in a parallel search: a sibling worker's incumbent meets
		// the root bound, so it is proven optimal. Unwind, as on a
		// certified improvement, rather than search this subtree out.
		return false
	}
	if curCost >= b {
		s.stats.PrunedAlphaBeta++
		s.trace(TraceAlphaBeta, i, xi, eta)
		return !s.curtail
	}

	// Lower bounds: the schedule cannot finish before the longest
	// dependent chain has drained (critical-path bound) nor before every
	// pipeline has accepted its remaining forced instructions and, on the
	// scoreboard, the issue width has let every instruction out
	// (resource bound). If even an admissible bound cannot beat the incumbent, the
	// branch is hopeless. (In minreg-lex each NOP bound is packed with
	// the current peak — admissible because packing is monotone in both
	// components.)
	if !s.opts.DisableLowerBound {
		cp, res := s.ev.lower()
		if s.packCost(cp, peak) >= b {
			s.stats.PrunedLowerBound++
			s.trace(TraceLowerBound, i, xi, 0)
			return !s.curtail
		}
		if s.packCost(res, peak) >= b {
			s.stats.PrunedResource++
			s.trace(TraceResource, i, xi, 0)
			return !s.curtail
		}
	}

	if i+1 == s.g.N {
		// Step [3]: complete and strictly better.
		s.stats.SchedulesExamined++
		s.stats.Improvements++
		s.best, s.bestCost = s.ev.snapshot(), curCost
		s.best.MaxLive = peak
		s.publish(curCost)
		s.trace(TraceImprove, i, xi, eta)
		if s.certify && curCost <= s.rootCost {
			// The incumbent meets the packed root lower bound: provably
			// optimal, nothing left to search. Unwind without marking a
			// curtailment.
			return false
		}
		return !s.curtail
	}
	if s.curtail {
		return false
	}
	// Dominance: if this exact residual scheduling problem was already
	// fully explored at a component-wise equal-or-lower (cost-so-far,
	// peak-so-far), this visit cannot improve on what that one saw (or
	// pruned against a then-no-tighter incumbent).
	var key []uint64
	var keyCost int
	if s.table != nil {
		if s.keys == nil {
			s.keys = make([]uint64, s.g.N*s.kw)
		}
		key, keyCost = s.keyer.key(s.keys[i*s.kw : i*s.kw : (i+1)*s.kw])
		if s.table.Dominated(key, keyCost, peak) {
			s.stats.MemoHits++
			s.trace(TraceMemo, i, xi, 0)
			return !s.curtail
		}
	}
	omega := s.stats.OmegaCalls
	if !s.dfs(i + 1) {
		return false
	}
	// Record only FULLY explored subtrees (a curtailed or stopped
	// subtree returned false above): dominance from a partially searched
	// state could prune the only optimum. The subtree's Ω-calls weigh
	// the entry against eviction from a full table.
	if s.table != nil {
		s.table.Store(key, keyCost, peak, s.stats.OmegaCalls-omega)
	}
	return !s.curtail
}

// raiseRoot asks a refuter evaluator to refute its root bound, makes a
// raised bound the root bound (so the result's RootLB and Gap carry it),
// and reports whether the incumbent now meets it, which proves it optimal.
// It never runs under DisableLowerBound, so forced curtailment still bites.
func (s *searcher) raiseRoot() bool {
	r, ok := s.ev.(refuter)
	if !ok || !refuteRoot || s.opts.DisableLowerBound {
		return false
	}
	if lb := r.refute(s.rootLB, int(s.bestCost)); lb > s.rootLB {
		s.rootLB, s.rootCost = lb, s.packCost(lb, 0)
	}
	return s.certify && s.bestCost <= s.rootCost
}

// equivalentSwap implements the paper's [5c]: the swap is skipped when
// σ(ξ) = ∅ ∧ ρ(ξ) = ∅ ∧ σ(κ) = ∅ ∧ ρ(κ) = ∅ — both instructions use no
// pipeline and depend on nothing, so exchanging them cannot change any
// NOP count (nor, on the scoreboard, any window threshold, width
// contention or dependence tick).
//
// (The bare paper condition is not sound in this DFS realization: the
// cost-equivalence witness is "the same completion with κ and ξ
// exchanged", and when the two instructions feed *different* consumers
// that witness can violate a flow edge — a consumer of ξ may sit between
// the two positions — so it was never explored and the skipped subtree
// can hold the only optimum. Requiring identical immediate-successor
// structure restores the bijection: the exchanged completion satisfies
// exactly the same ordering constraints, and since neither instruction
// occupies a pipeline the exchange perturbs no issue tick. Identical
// successor structure also preserves the MAXLIVE of the exchanged
// completion, so the filter stays exact in the pressure modes.
// Differential soaking against the exhaustive reference caught the
// unstrengthened rule claiming optimality one to two NOPs above the true
// optimum. Succs lists are kept sorted by dag.Build, so element-wise
// comparison decides identical successor structure.)
func (s *searcher) equivalentSwap(kappa, xi int) bool {
	return len(s.pipes[xi]) == 0 && len(s.g.Preds[xi]) == 0 &&
		len(s.pipes[kappa]) == 0 && len(s.g.Preds[kappa]) == 0 &&
		slices.Equal(s.g.Succs[kappa], s.g.Succs[xi])
}

// strongEquivBlocked reports whether an unscheduled interchangeable twin
// with a smaller node number exists; if so, placing xi now would duplicate
// a schedule reachable by placing the twin first.
func (s *searcher) strongEquivBlocked(xi int) bool {
	rep, placed := s.equivClass[xi], s.ev.placed()
	for u := rep; u < xi; u++ {
		if s.equivClass[u] == rep && placed[u>>6]&(1<<(u&63)) == 0 {
			return true
		}
	}
	return false
}

// equivalenceClasses groups nodes that are provably interchangeable in
// any schedule: identical pipeline sets and identical immediate
// predecessor and successor dependence structure (nodes and edge kinds).
// Each node maps to the smallest node number in its class.
func equivalenceClasses(g *dag.Graph, pipes [][]int) []int {
	rep := map[string]int{}
	class := make([]int, g.N)
	for u := 0; u < g.N; u++ {
		k := fmt.Sprint(pipes[u], g.Preds[u], g.Succs[u])
		if _, ok := rep[k]; !ok {
			rep[k] = u
		}
		class[u] = rep[k]
	}
	return class
}

// TraceAction labels one search event.
type TraceAction string

// Search event kinds reported to Options.Trace.
const (
	TracePlace      TraceAction = "place"             // node priced at a position
	TraceImprove    TraceAction = "improve"           // new incumbent best schedule
	TraceBounds     TraceAction = "prune-bounds"      // [5a] rejected a candidate
	TraceIllegal    TraceAction = "prune-illegal"     // [5b] rejected a candidate
	TraceEquiv      TraceAction = "prune-equivalence" // [5c] rejected a swap
	TraceStrong     TraceAction = "prune-strong"      // extension filter rejected
	TraceAlphaBeta  TraceAction = "prune-alphabeta"   // cost cutoff after placement
	TraceLowerBound TraceAction = "prune-lowerbound"  // critical-path cutoff
	TraceResource   TraceAction = "prune-resource"    // enqueue-occupancy cutoff
	TracePressure   TraceAction = "prune-pressure"    // MAXLIVE ≤ k cutoff
	TraceMemo       TraceAction = "prune-memo"        // dominance table hit
	TraceCurtail    TraceAction = "curtail"           // λ reached
)

// TraceEvent is one search step, as reported to Options.Trace.
type TraceEvent struct {
	Action TraceAction
	Depth  int // schedule position being filled
	Node   int // candidate node (DAG numbering)
	Eta    int // NOPs priced for the placement (TracePlace/TraceImprove)
	Mu     int // μ(Φ) after the event, where meaningful
	Worker int // parallel-search worker that reported the event (0 for sequential)
}
