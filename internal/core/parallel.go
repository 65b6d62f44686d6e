package core

import (
	"runtime"
	"sync"

	"pipesched/internal/dag"
	"pipesched/internal/machine"
)

// FindParallel runs the branch-and-bound search with the first-level
// subtrees fanned out across workers. Every worker prunes against a
// shared atomic incumbent, so a cheap schedule found in one subtree
// immediately tightens α–β everywhere — parallel branch-and-bound in the
// classic style.
//
// The returned cost and the optimality verdict are deterministic (the
// search space is fixed; only its traversal interleaves), but WHICH
// optimal schedule is returned may differ between runs and from Find
// when several optima exist, and the Ω-call total varies with timing.
// Options.Trace is honored: every worker calls the hook, stamping its
// index on the event, so the hook must be safe for concurrent use.
// workers <= 0 selects GOMAXPROCS.
//
// Setup and result assembly are Find's (InitialNOPs and RootLB agree
// with it exactly), and every sched mode runs here through its
// evaluator. Each worker owns one searcher for its lifetime — its own
// evaluator, bound engine and dominance table — so no counter or table
// access crosses goroutines. Cross-subtree dominance within a worker is
// sound because the shared incumbent only tightens over time. Per-worker
// Stats are folded into the aggregate once, after the WaitGroup barrier.
func FindParallel(g *dag.Graph, m *machine.Machine, opts Options, workers int) (*Schedule, error) {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	return find(g, m, opts, workers)
}

// fanOut searches the depth-0 subtrees of s on parallel workers and
// folds their incumbents and stats back into s. The depth-0 candidates
// are exactly those dfs(0) would place: the same admit filter, counted
// in s's own stats.
func (s *searcher) fanOut(workers int) {
	var cands []int
	for k := 0; k < s.g.N; k++ {
		if s.admit(0, k) {
			cands = append(cands, k)
		}
	}
	shared := &sharedBound{lambda: s.opts.Lambda}
	shared.best.Store(s.bestCost)

	ws := make([]*searcher, workers)
	jobs := make(chan int)
	var wg sync.WaitGroup
	for i := range ws {
		ev, _ := s.newEvaluator() // the options were validated by find
		w := s.newSearcher(ev, s.perm)
		w.best, w.bestCost = s.best, s.bestCost
		w.shared, w.worker = shared, i
		ws[i] = w
		wg.Add(1)
		go func() {
			defer wg.Done()
			for k := range jobs {
				if w.curtail || (w.certify && shared.best.Load() <= w.rootCost) {
					// Out of budget, or a sibling already proved the
					// incumbent optimal: the remaining subtrees cannot
					// improve on it.
					continue
				}
				// Move the candidate to the front of Π, as dfs(0) does.
				xi := w.perm[k]
				w.perm[0], w.perm[k] = w.perm[k], w.perm[0]
				w.place(0, xi)
				w.perm[0], w.perm[k] = w.perm[k], w.perm[0]
			}
		}()
	}
	for _, k := range cands {
		jobs <- k
	}
	close(jobs)
	wg.Wait()

	for _, w := range ws {
		// Prefer a context stop reason over the λ budget: a deadline or
		// cancellation in any worker is the caller-visible cause.
		if w.stopErr != nil && (s.stopErr == nil || s.stopErr == ErrBudget) {
			s.stopErr = w.stopErr
		}
		s.stats.add(w.stats)
		s.curtail = s.curtail || w.curtail
		if w.bestCost < s.bestCost {
			s.best, s.bestCost = w.best, w.bestCost
		}
	}
}

// add folds a worker's search counters into the aggregate.
func (a *Stats) add(b Stats) {
	a.OmegaCalls += b.OmegaCalls
	a.SchedulesExamined += b.SchedulesExamined
	a.Improvements += b.Improvements
	a.PrunedBounds += b.PrunedBounds
	a.PrunedIllegal += b.PrunedIllegal
	a.PrunedEquivalence += b.PrunedEquivalence
	a.PrunedStrongEquiv += b.PrunedStrongEquiv
	a.PrunedAlphaBeta += b.PrunedAlphaBeta
	a.PrunedLowerBound += b.PrunedLowerBound
	a.PrunedResource += b.PrunedResource
	a.PrunedPressure += b.PrunedPressure
	a.MemoHits += b.MemoHits
}
