package sim

import (
	"fmt"

	"pipesched/internal/machine"
)

// ScoreboardInput describes one scheduled block to execute under the
// out-of-order window model of the scoreboard scheduler mode
// (internal/core's scoreboard.go documents the machine): instructions
// are fetched in Order into a Window-entry issue window; each tick up to
// Width instructions issue oldest-first; flow results take
// max(1, latency) ticks to become usable, ordering edges one tick; each
// pipeline is a program-order FIFO that accepts one enqueue every
// enqueue-time ticks.
type ScoreboardInput struct {
	Input
	Window, Width int
}

// ScoreboardTrace is the forward simulation outcome.
type ScoreboardTrace struct {
	IssueTick  []int // tick each position of Order issued at (1-based)
	TotalTicks int   // tick of the last issue
	Stalls     int   // TotalTicks − ⌈N/Width⌉: ticks lost to hazards
}

// RunScoreboard executes the block tick by tick and returns the issue
// trace. It is deliberately independent of the scheduler's incremental
// tick computation — a literal simulation of the window machine: the
// window membership is snapshotted at the start of each tick (no
// same-tick refill), ready window instructions issue in program order up
// to the width, and an instruction whose pipeline FIFO head is an older
// un-issued instruction blocks. The differential oracle compares this
// trace against every scoreboard-mode schedule the search emits. A
// position bound to a pipeline the machine lacks is an error.
func RunScoreboard(in ScoreboardInput) (*ScoreboardTrace, error) {
	g, m, order := in.Graph, in.M, in.Order
	n := g.N
	if in.Window < 1 || in.Width < 1 {
		return nil, fmt.Errorf("sim: scoreboard window %d / width %d out of range", in.Window, in.Width)
	}
	if !g.IsLegalOrder(order) {
		return nil, fmt.Errorf("sim: order %v violates dependences", order)
	}
	if len(in.Pipes) != n {
		return nil, fmt.Errorf("sim: %d pipeline bindings for %d instructions", len(in.Pipes), n)
	}
	if n == 0 {
		return &ScoreboardTrace{IssueTick: []int{}}, nil
	}

	posOf := make([]int, n) // node -> position in order
	for i, u := range order {
		posOf[u] = i
	}
	issue := make([]int, n) // position -> tick, 0 while pending
	// Per-pipe FIFO, by pipeline index k: head[k] is the oldest
	// un-issued position on pipe k (-1 once none is left) and
	// nextOnPipe[i] the position after i on i's pipe; lastEnq[k] is the
	// tick of pipe k's latest enqueue (0 before any).
	np := len(m.Pipelines)
	ints := make([]int, 2*n+2*np)
	slot, nextOnPipe := ints[:n], ints[n:2*n] // slot: position -> pipeline index, -1 for none
	head, lastEnq := ints[2*n:2*n+np], ints[2*n+np:]
	for k := range head {
		head[k] = -1
	}
	for i := n - 1; i >= 0; i-- {
		slot[i] = -1
		p := in.Pipes[i]
		if p == machine.NoPipeline {
			continue
		}
		k := m.PipelineIndex(p)
		if k < 0 {
			return nil, fmt.Errorf("sim: position %d is bound to pipeline %d, which machine %s lacks", i, p, m.Name)
		}
		slot[i] = k
		nextOnPipe[i], head[k] = head[k], i
	}

	issued := 0
	next := 0 // first position not yet issued (window base)
	// Safety net: every tick at least one instruction is issuable once
	// its constraints expire, so n * (maxLatency + maxEnqueue + 2) ticks
	// always suffice; exceeding the cap means the model deadlocked.
	maxCost := 2
	for _, p := range m.Pipelines {
		if c := p.Latency + p.Enqueue + 2; c > maxCost {
			maxCost = c
		}
	}
	budget := n*maxCost + 1
	window := make([]int, 0, min(in.Window, n))
	for tick := 1; issued < n; tick++ {
		if tick > budget {
			return nil, fmt.Errorf("sim: scoreboard made no progress after %d ticks", budget)
		}
		// Window snapshot: the first Window un-issued positions at tick
		// start (instructions issuing this very tick do not free a slot
		// until the next).
		window = window[:0]
		for i := next; i < n && len(window) < in.Window; i++ {
			if issue[i] == 0 {
				window = append(window, i)
			}
		}
		slots := in.Width
		for _, i := range window {
			if slots == 0 {
				break
			}
			u := order[i]
			ready := true
			for _, d := range g.Preds[u] {
				j := posOf[d.Node]
				if issue[j] == 0 {
					ready = false
					break
				}
				w := 1
				if d.Kind.CarriesLatency() {
					if lat := m.Latency(in.Pipes[j]); lat > 1 {
						w = lat
					}
				}
				if tick < issue[j]+w {
					ready = false
					break
				}
			}
			if !ready {
				continue
			}
			if k := slot[i]; k >= 0 {
				if head[k] != i {
					continue // an older same-pipe instruction still waits
				}
				if last := lastEnq[k]; last > 0 && tick < last+m.Pipelines[k].Enqueue {
					continue
				}
			}
			issue[i] = tick
			issued++
			slots--
			if k := slot[i]; k >= 0 {
				head[k] = nextOnPipe[i]
				lastEnq[k] = tick
			}
		}
		for next < n && issue[next] != 0 {
			next++
		}
	}

	total := 0
	for _, t := range issue {
		if t > total {
			total = t
		}
	}
	return &ScoreboardTrace{
		IssueTick:  issue,
		TotalTicks: total,
		Stalls:     total - (n+in.Width-1)/in.Width,
	}, nil
}

// VerifyScoreboard proves one scoreboard-mode schedule correct against
// the window machine: the forward simulation of its order must issue at
// exactly the claimed ticks and lose exactly the claimed stalls. It is
// the scoreboard counterpart of Verify.
func VerifyScoreboard(in ScoreboardInput, claimedTicks []int, claimedStalls int) error {
	tr, err := RunScoreboard(in)
	if err != nil {
		return err
	}
	if len(claimedTicks) != len(tr.IssueTick) {
		return fmt.Errorf("sim: schedule claims %d issue ticks for %d instructions",
			len(claimedTicks), len(tr.IssueTick))
	}
	for i, t := range tr.IssueTick {
		if claimedTicks[i] != t {
			return fmt.Errorf("sim: position %d claims issue tick %d but simulates to %d",
				i, claimedTicks[i], t)
		}
	}
	if tr.Stalls != claimedStalls {
		return fmt.Errorf("sim: schedule claims %d stalls but simulates to %d",
			claimedStalls, tr.Stalls)
	}
	return nil
}
