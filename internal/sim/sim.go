// Package sim is a cycle-accurate simulator of the paper's pipeline
// timing model. It executes a scheduled block under any of the three
// architectural delay mechanisms (section 2.2) and verifies that no
// dependence or conflict hazard occurs:
//
//   - NOPPadding / ExplicitInterlock: the compiler-specified delays (η)
//     are honored verbatim; the simulator *checks* every latency and
//     enqueue constraint and reports a hazard if the delays are too
//     small. This is how the repository proves schedules correct.
//   - ImplicitInterlock: the η values are ignored; the simulated hardware
//     stalls each instruction until its constraints are met, exactly as
//     a scoreboarding interlock would.
//
// For any fixed instruction order, the interlocked execution time equals
// the instruction count plus the minimum total NOPs for that order — the
// equivalence that makes the compiler's NOP-count objective identical to
// minimizing real execution time on interlocked hardware.
package sim

import (
	"fmt"
	"math"

	"pipesched/internal/dag"
	"pipesched/internal/machine"
)

// Mechanism selects the architectural delay implementation.
type Mechanism uint8

const (
	// NOPPadding fetches and executes the scheduled NOPs.
	NOPPadding Mechanism = iota
	// ExplicitInterlock holds issue for the instruction's wait count.
	ExplicitInterlock
	// ImplicitInterlock lets the hardware scoreboard insert stalls.
	ImplicitInterlock
)

// String names the mechanism.
func (m Mechanism) String() string {
	switch m {
	case NOPPadding:
		return "nop-padding"
	case ExplicitInterlock:
		return "explicit-interlock"
	case ImplicitInterlock:
		return "implicit-interlock"
	}
	return fmt.Sprintf("Mechanism(%d)", uint8(m))
}

// Input describes one scheduled block to execute.
type Input struct {
	Graph *dag.Graph       // dependence structure (original node numbering)
	M     *machine.Machine // pipeline description
	Order []int            // execution order (nodes)
	Eta   []int            // per-position delay (NOPs / wait counts)
	Pipes []int            // per-position pipeline binding
}

// Trace is the simulation outcome.
type Trace struct {
	IssueTick  []int // tick each position issued at (1-based)
	TotalTicks int   // tick of the last issue
	Delays     int   // total delay ticks (NOPs fetched or stall cycles)
	Mechanism  Mechanism
}

// HazardError describes a timing violation found while simulating
// compiler-specified delays.
type HazardError struct {
	Position int    // schedule position of the violating instruction
	Node     int    // DAG node at that position
	Kind     string // "dependence" or "conflict"
	Detail   string
}

// Error implements the error interface.
func (h *HazardError) Error() string {
	return fmt.Sprintf("sim: %s hazard at position %d (node %d): %s",
		h.Kind, h.Position, h.Node, h.Detail)
}

// Run simulates the block under the given mechanism. ImplicitInterlock
// is RunActual with every result arriving at its declared latency.
func Run(in Input, mech Mechanism) (*Trace, error) {
	n := len(in.Order)
	if len(in.Eta) != n || len(in.Pipes) != n {
		return nil, fmt.Errorf("sim: order/eta/pipes lengths differ: %d/%d/%d",
			n, len(in.Eta), len(in.Pipes))
	}
	switch mech {
	case NOPPadding, ExplicitInterlock:
	case ImplicitInterlock:
		lat := make([]int, n)
		for i, p := range in.Pipes {
			lat[i] = in.M.Latency(p)
		}
		return RunActual(in, mech, lat)
	default:
		return nil, fmt.Errorf("sim: unknown mechanism %d", mech)
	}
	if !in.Graph.IsLegalOrder(in.Order) {
		return nil, fmt.Errorf("sim: order violates dependences")
	}

	pos := make([]int, in.Graph.N)
	for i, u := range in.Order {
		pos[u] = i
	}
	tr := &Trace{IssueTick: make([]int, n), Mechanism: mech}
	var buf [smallMachine]int
	lastEnqueue := pipeTicks(in.M, buf[:])
	tick := 0
	for i, u := range in.Order {
		tick += in.Eta[i] + 1
		if err := checkHazards(in, pos, tr, i, u, tick, lastEnqueue); err != nil {
			return nil, err
		}
		tr.Delays += in.Eta[i]
		tr.IssueTick[i] = tick
		if k := in.M.PipelineIndex(in.Pipes[i]); k >= 0 {
			lastEnqueue[k] = tick
		}
	}
	tr.TotalTicks = tick
	return tr, nil
}

// noTick marks a pipeline that has not been enqueued yet in a table
// from pipeTicks.
const noTick = math.MinInt

// pipeTicks returns a table of one tick per pipeline of m, indexed by
// m.PipelineIndex, with every entry noTick. It reuses buf's storage, so
// a table over a caller's stack array stays off the heap.
func pipeTicks(m *machine.Machine, buf []int) []int {
	ticks := buf[:0]
	for range m.Pipelines {
		ticks = append(ticks, noTick)
	}
	return ticks
}

// smallMachine is the pipeline count that per-pipeline tables hold
// without a heap allocation.
const smallMachine = 8

// checkHazards verifies that issuing position i (node u) at the given
// tick violates no latency or enqueue constraint. lastEnqueue holds the
// tick of each pipeline's latest enqueue, as from pipeTicks.
func checkHazards(in Input, pos []int, tr *Trace, i, u, tick int, lastEnqueue []int) error {
	for _, d := range in.Graph.Preds[u] {
		if !d.Kind.CarriesLatency() {
			continue
		}
		jp := pos[d.Node]
		lat := in.M.Latency(in.Pipes[jp])
		if tick-tr.IssueTick[jp] < lat {
			return &HazardError{
				Position: i, Node: u, Kind: "dependence",
				Detail: fmt.Sprintf("needs %d ticks after node %d, got %d",
					lat, d.Node, tick-tr.IssueTick[jp]),
			}
		}
	}
	if k := in.M.PipelineIndex(in.Pipes[i]); k >= 0 && lastEnqueue[k] != noTick {
		last, enq := lastEnqueue[k], in.M.Pipelines[k].Enqueue
		if tick-last < enq {
			return &HazardError{
				Position: i, Node: u, Kind: "conflict",
				Detail: fmt.Sprintf("pipeline %d needs enqueue spacing %d, got %d",
					in.Pipes[i], enq, tick-last),
			}
		}
	}
	return nil
}

// RunAll executes the block under all three mechanisms and checks the
// paper's equivalence claim: every mechanism takes the same number of
// total ticks when the delays come from the NOP-insertion procedure.
func RunAll(in Input) (map[Mechanism]*Trace, error) {
	out := map[Mechanism]*Trace{}
	for _, mech := range []Mechanism{NOPPadding, ExplicitInterlock, ImplicitInterlock} {
		tr, err := Run(in, mech)
		if err != nil {
			return nil, err
		}
		out[mech] = tr
	}
	nop, il := out[NOPPadding].TotalTicks, out[ImplicitInterlock].TotalTicks
	if nop != il {
		return nil, fmt.Errorf("sim: mechanism mismatch: nop-padding %d ticks, interlock %d ticks", nop, il)
	}
	return out, nil
}

// RunActual simulates the schedule when operations complete with ACTUAL
// latencies that may undercut the machine description's worst case —
// the variable-latency situation (e.g. interconnection-network memory
// accesses) that motivates the CARP design the paper cites in section
// 2.2. actualLat gives, per schedule position, the effective latency of
// that instruction's result; every entry must be between 1 (or 0 for
// no-pipeline ops) and the declared worst case.
//
//   - Under NOPPadding / ExplicitInterlock the issue timing is fixed at
//     compile time against the worst case, so faster completions change
//     nothing: the trace equals Run's.
//   - Under ImplicitInterlock the hardware releases each stall as soon
//     as the ACTUAL producer completes, so the block speeds up — the
//     advantage interlocked (and explicitly-interlocked variable-wait)
//     hardware has on variable-latency resources.
func RunActual(in Input, mech Mechanism, actualLat []int) (*Trace, error) {
	n := len(in.Order)
	if len(actualLat) != n {
		return nil, fmt.Errorf("sim: actualLat length %d != %d instructions", len(actualLat), n)
	}
	for i := range actualLat {
		worst := in.M.Latency(in.Pipes[i])
		if actualLat[i] > worst || actualLat[i] < 0 {
			return nil, fmt.Errorf("sim: position %d actual latency %d outside [0,%d]",
				i, actualLat[i], worst)
		}
	}
	if mech != ImplicitInterlock {
		// Compile-time delay mechanisms cannot exploit early completion.
		return Run(in, mech)
	}
	if !in.Graph.IsLegalOrder(in.Order) {
		return nil, fmt.Errorf("sim: order violates dependences")
	}
	pos := make([]int, in.Graph.N)
	for i, u := range in.Order {
		pos[u] = i
	}
	tr := &Trace{IssueTick: make([]int, n), Mechanism: mech}
	var buf [smallMachine]int
	lastEnqueue := pipeTicks(in.M, buf[:])
	tick := 0
	for i, u := range in.Order {
		earliest := tick + 1
		for _, d := range in.Graph.Preds[u] {
			if !d.Kind.CarriesLatency() {
				continue
			}
			jp := pos[d.Node]
			if need := tr.IssueTick[jp] + actualLat[jp]; need > earliest {
				earliest = need
			}
		}
		k := in.M.PipelineIndex(in.Pipes[i])
		if k >= 0 && lastEnqueue[k] != noTick {
			if need := lastEnqueue[k] + in.M.Pipelines[k].Enqueue; need > earliest {
				earliest = need
			}
		}
		tr.Delays += earliest - tick - 1
		tick = earliest
		tr.IssueTick[i] = tick
		if k >= 0 {
			lastEnqueue[k] = tick
		}
	}
	tr.TotalTicks = tick
	return tr, nil
}

// DelayCause explains why a schedule position needs its delay.
type DelayCause struct {
	Position int    // schedule position whose η > 0
	Eta      int    // the delay size
	Kind     string // "dependence" or "conflict"
	Producer int    // schedule position of the binding instruction
	Detail   string // human-readable explanation
}

// ExplainDelays attributes every non-zero η in the schedule to its
// binding constraint: the flow dependence or enqueue conflict whose
// release time forces the delay. It is the "why is this NOP here"
// companion to the NOP-insertion algorithm, used for annotated assembly
// and diagnostics.
func ExplainDelays(in Input) ([]DelayCause, error) {
	n := len(in.Order)
	if len(in.Eta) != n || len(in.Pipes) != n {
		return nil, fmt.Errorf("sim: order/eta/pipes lengths differ")
	}
	if !in.Graph.IsLegalOrder(in.Order) {
		return nil, fmt.Errorf("sim: order violates dependences")
	}
	issue := make([]int, n)
	tick := 0
	for i := range in.Order {
		tick += in.Eta[i] + 1
		issue[i] = tick
	}
	pos := make([]int, in.Graph.N)
	for i, u := range in.Order {
		pos[u] = i
	}
	var causes []DelayCause
	for i, u := range in.Order {
		if in.Eta[i] == 0 {
			continue
		}
		// Find the constraint whose release equals this issue tick: that
		// is the binding one (η is minimal, so something must bind).
		best := DelayCause{Position: i, Eta: in.Eta[i], Producer: -1}
		bestRelease := 0
		for _, d := range in.Graph.Preds[u] {
			if !d.Kind.CarriesLatency() {
				continue
			}
			jp := pos[d.Node]
			release := issue[jp] + in.M.Latency(in.Pipes[jp])
			if release > bestRelease {
				bestRelease = release
				best.Kind = "dependence"
				best.Producer = jp
				best.Detail = fmt.Sprintf("waits %d ticks for %s (latency %d)",
					in.Eta[i], in.Graph.Block.Tuples[d.Node].String(),
					in.M.Latency(in.Pipes[jp]))
			}
		}
		if p := in.Pipes[i]; p != machine.NoPipeline {
			for j := i - 1; j >= 0; j-- {
				if in.Pipes[j] != p {
					continue
				}
				release := issue[j] + in.M.EnqueueTime(p)
				if release > bestRelease {
					bestRelease = release
					best.Kind = "conflict"
					best.Producer = j
					best.Detail = fmt.Sprintf("waits %d ticks for pipeline %d (enqueue time %d)",
						in.Eta[i], p, in.M.EnqueueTime(p))
				}
				break
			}
		}
		if best.Producer < 0 {
			return nil, fmt.Errorf("sim: position %d has %d NOPs but no binding constraint",
				i, in.Eta[i])
		}
		causes = append(causes, best)
	}
	return causes, nil
}
