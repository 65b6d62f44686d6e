package core

import (
	"slices"

	"pipesched/internal/bound"
	"pipesched/internal/dag"
	"pipesched/internal/memo"
	"pipesched/internal/nopins"
)

// inOrderEval is the evaluator of the paper's in-order multi-pipeline
// machine, behind the paper, minreg-lex and minreg-k modes: Ω is
// internal/nopins' incremental NOP insertion, the lower bounds come from
// internal/bound, and the dominance key from internal/memo. (The live
// tracker the pressure modes add stays in the skeleton.)
type inOrderEval struct {
	*problem
	eval *nopins.Evaluator
	bnd  *bound.Engine // lower-bound engine (nil when fully disabled)

	enc     *memo.Encoder // key builder (nil when the memo is off)
	feeds   []bool        // node -> it has a flow (latency-carrying) successor
	sched   []uint64      // the scheduled set, one bit per node
	maxLat  int           // the machine's largest pipeline latency
	pipeRes []int         // scratch for per-pipeline residuals
}

// newInOrderEval builds the evaluator and the lower-bound engine the
// options ask for. The engine is needed by BOTH the bound and the
// dominance table (the table's canonical keys read its per-pipeline
// enqueue state), so it is built unless both are disabled — the pure
// paper-faithful configuration.
func newInOrderEval(p *problem) *inOrderEval {
	e := &inOrderEval{
		problem: p,
		eval:    nopins.NewEvaluator(p.g, p.m, p.opts.Assign),
		sched:   make([]uint64, memo.SchedWords(p.g.N)),
		maxLat:  p.m.MaxLatency(),
	}
	if p.opts.Entry != nil {
		e.eval.SetEntryState(p.opts.Entry)
	}
	if !p.opts.DisableMemo {
		e.enc = memo.NewEncoder(p.g.N, len(p.m.Pipelines), 2, e.maxResidual())
		e.feeds = make([]bool, p.g.N)
		for u, succs := range p.g.Succs {
			e.feeds[u] = slices.ContainsFunc(succs, func(d dag.Dep) bool { return d.Kind.CarriesLatency() })
		}
	}
	if p.opts.DisableLowerBound && p.opts.DisableMemo {
		return e
	}
	e.bnd = bound.New(p.g, p.m, bound.Config{FixedAssign: p.opts.Assign == nopins.AssignFixed}, p.opts.Entry)
	return e
}

func (e *inOrderEval) push(x, pipe int) int {
	var eta int
	if pipe == anyPipe {
		eta = e.eval.Push(x)
	} else {
		eta = e.eval.PushWithPipe(x, pipe)
	}
	if e.bnd != nil {
		pos := e.eval.Len() - 1
		e.bnd.Push(x, e.eval.PipeAt(pos), e.eval.IssueAt(pos))
	}
	e.sched[x>>6] |= 1 << (x & 63)
	return eta
}

func (e *inOrderEval) pop(x int) {
	if e.bnd != nil {
		e.bnd.Pop(x)
	}
	e.eval.Pop()
	e.sched[x>>6] &^= 1 << (x & 63)
}

func (e *inOrderEval) placed() []uint64        { return e.sched }
func (e *inOrderEval) cost() int               { return e.eval.TotalNOPs() }
func (e *inOrderEval) pipeChoices(x int) []int { return e.eval.PipeChoices(x) }

// lower: final NOPs = final issue tick − instructions − entry offset, so
// the engine's bounds on the final tick, taken from the just-issued
// tick, bound the final cost.
func (e *inOrderEval) lower() (cp, res int) {
	return e.bnd.Lower(e.eval.IssueAt(e.eval.Len() - 1))
}

// root is the bound engine's root bound. Without the engine the bound is
// the trivial 0, and the search does not stop on it.
func (e *inOrderEval) root() (int, bool) {
	if e.bnd == nil {
		return 0, false
	}
	return e.bnd.Root(), true
}

func (e *inOrderEval) snapshot() Schedule { return scheduleOf(e.eval.Snapshot()) }

func (e *inOrderEval) price(order []int) (Schedule, error) {
	r, err := e.eval.EvaluateOrder(order)
	e.eval.Reset()
	clear(e.sched)
	return scheduleOf(r), err
}

func scheduleOf(r nopins.Result) Schedule {
	return Schedule{Order: r.Order, Eta: r.Eta, Pipes: r.Pipes, TotalNOPs: r.TotalNOPs, Ticks: r.Ticks}
}

// maxResidual bounds every residual a key can hold, which fixes the
// encoder's residual width: an in-flight producer binds for less than
// its latency and a pipeline for less than its enqueue time, and an
// entry constraint for less than its distance past StartTick (keys are
// built after the first issue, at StartTick+1 or later).
func (e *inOrderEval) maxResidual() int {
	r := 0
	for _, p := range e.m.Pipelines {
		r = max(r, p.Latency, p.Enqueue)
	}
	if entry := e.opts.Entry; entry != nil {
		for s, last := range entry.PipeLast {
			r = max(r, last-entry.StartTick+e.m.Pipelines[s].Enqueue)
		}
		for _, t := range entry.ReadyTick {
			r = max(r, t-entry.StartTick)
		}
	}
	return r
}

func (e *inOrderEval) keyWords() int                   { return e.enc.Words() }
func (e *inOrderEval) memoBound() (entries, words int) { return memo.DefaultCap, 0 }

// key writes the canonical dominance key of the CURRENT evaluator state
// into dst: scheduled set, per-pipeline enqueue residuals, in-flight
// flow producers (issue + latency still binding a future consumer), and
// unsatisfied external ready times — everything Ω consults when pricing
// any completion, encoded relative to the last issue tick so revisits at
// different absolute times collide (internal/memo has the full argument).
// The table compares the NOPs so far.
func (e *inOrderEval) key(dst []uint64) ([]uint64, int) {
	c := e.enc
	c.Begin(dst, e.sched)
	n := e.eval.Len()
	last := e.eval.IssueAt(n - 1)
	e.pipeRes = e.bnd.PipeResiduals(last, e.pipeRes)
	c.Values(e.pipeRes)
	// Issue ticks fall going back, so once even the slowest pipeline's
	// result would have landed, every earlier producer's residual is 0.
	// A producer with a positive residual has no consumer scheduled yet
	// (a consumer issues at issue+latency or later, which is past last),
	// so the static feeds flag is enough to pick the pairs.
	for pos := n - 1; pos >= 0 && e.eval.IssueAt(pos)+e.maxLat > last+1; pos-- {
		if u := e.eval.NodeAt(pos); e.feeds[u] {
			c.Pair(u, memo.Residual(e.eval.IssueAt(pos)+e.eval.LatencyAt(pos), last))
		}
	}
	c.SealPairs()
	if e.opts.Entry != nil && e.opts.Entry.ReadyTick != nil {
		for v := 0; v < e.g.N; v++ {
			if !e.eval.Scheduled(v) {
				c.Pair(v, memo.Residual(e.opts.Entry.ReadyTick[v], last))
			}
		}
	}
	c.SealPairs()
	return c.Key(), e.eval.TotalNOPs()
}
