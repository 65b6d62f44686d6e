package sim

import "fmt"

// The Tera machine's explicit interlock (paper section 2.2, [Smi88])
// tags each instruction with "the number of instructions since the last
// instruction that this instruction depends on or conflicts with". The
// hardware holds issue until that instruction has completed. The count
// is a coarser encoding than per-tick wait counts: waiting for
// *completion* of the binding instruction can overshoot when the binding
// constraint was only an enqueue conflict (latency ≥ enqueue time), so a
// count-encoded schedule may legitimately run a few ticks slower than
// the same order under NOP padding — never faster, never hazardous.

// TeraCounts derives the per-position lookback counts for an instruction
// order (in.Eta is ignored — the counts depend only on the order and
// pipeline bindings). The derivation is a forward pass under the count
// mechanism's own timing: at each instruction the binding constraint
// (latest release among flow producers and the nearest same-pipeline
// conflict, ties to the nearest instruction) selects j*, the instruction
// issues once j* has completed, and the count is i−j*. Computing counts
// against the hardware's actual semantics makes the encoding
// self-consistent: RunTera reproduces exactly this timing, hazard-free
// by construction.
func TeraCounts(in Input) ([]int, error) {
	n := len(in.Order)
	if len(in.Pipes) != n {
		return nil, fmt.Errorf("sim: order/pipes lengths differ")
	}
	if !in.Graph.IsLegalOrder(in.Order) {
		return nil, fmt.Errorf("sim: order violates dependences")
	}
	pos := make([]int, in.Graph.N)
	for i, u := range in.Order {
		pos[u] = i
	}
	issue := make([]int, n)
	var buf [smallMachine]int
	lastOnPipe := buf[:0] // pipeline index -> most recent position, -1 for none
	for range in.M.Pipelines {
		lastOnPipe = append(lastOnPipe, -1)
	}
	counts := make([]int, n)
	tick := 0
	for i, u := range in.Order {
		bestRelease, bestJ := 0, -1
		consider := func(j, release int) {
			if release > bestRelease || (release == bestRelease && j > bestJ) {
				bestRelease, bestJ = release, j
			}
		}
		for _, d := range in.Graph.Preds[u] {
			if !d.Kind.CarriesLatency() {
				continue
			}
			jp := pos[d.Node]
			consider(jp, issue[jp]+in.M.Latency(in.Pipes[jp]))
		}
		k := in.M.PipelineIndex(in.Pipes[i])
		if k >= 0 && lastOnPipe[k] >= 0 {
			j := lastOnPipe[k]
			consider(j, issue[j]+in.M.Pipelines[k].Enqueue)
		}
		earliest := tick + 1
		if bestJ >= 0 && bestRelease > earliest {
			counts[i] = i - bestJ
			// Hardware waits for completion, which may overshoot the
			// release when the binding constraint was a conflict.
			if done := issue[bestJ] + in.M.Latency(in.Pipes[bestJ]); done > earliest {
				earliest = done
			}
		}
		tick = earliest
		issue[i] = tick
		if k >= 0 {
			lastOnPipe[k] = i
		}
	}
	return counts, nil
}

// RunTera simulates the order under Tera-style counts: instruction i
// with count k > 0 issues no earlier than the completion (issue +
// latency) of instruction i−k; all instructions issue at least one tick
// apart. The resulting timing is hazard-checked like any other
// mechanism.
func RunTera(in Input, counts []int) (*Trace, error) {
	n := len(in.Order)
	if len(counts) != n {
		return nil, fmt.Errorf("sim: counts length %d != %d instructions", len(counts), n)
	}
	if !in.Graph.IsLegalOrder(in.Order) {
		return nil, fmt.Errorf("sim: order violates dependences")
	}
	pos := make([]int, in.Graph.N)
	for i, u := range in.Order {
		pos[u] = i
	}
	tr := &Trace{IssueTick: make([]int, n), Mechanism: ExplicitInterlock}
	var buf [smallMachine]int
	lastEnqueue := pipeTicks(in.M, buf[:])
	tick := 0
	for i, u := range in.Order {
		earliest := tick + 1
		if k := counts[i]; k > 0 {
			j := i - k
			if j < 0 {
				return nil, fmt.Errorf("sim: count %d at position %d reaches before the block", k, i)
			}
			if done := tr.IssueTick[j] + in.M.Latency(in.Pipes[j]); done > earliest {
				earliest = done
			}
		}
		tr.Delays += earliest - tick - 1
		tick = earliest
		if err := checkHazards(in, pos, tr, i, u, tick, lastEnqueue); err != nil {
			return nil, err
		}
		tr.IssueTick[i] = tick
		if k := in.M.PipelineIndex(in.Pipes[i]); k >= 0 {
			lastEnqueue[k] = tick
		}
	}
	tr.TotalTicks = tick
	return tr, nil
}
