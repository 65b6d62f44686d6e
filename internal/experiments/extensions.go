package experiments

import (
	"fmt"
	"math/rand"
	"strings"

	"pipesched/internal/core"
	"pipesched/internal/dag"
	"pipesched/internal/machine"
	"pipesched/internal/seqsched"
	"pipesched/internal/synth"
)

// LambdaSweepRow records schedule quality and proof rate at one curtail
// point.
type LambdaSweepRow struct {
	Lambda     int64
	MeanNOPs   float64
	PctOptimal float64
	MeanOmega  float64
}

// RunLambdaSweep schedules one shared pool of blocks at several curtail
// points, quantifying the paper's observation that the search "quickly
// converges to a near-optimal solution" long before the optimality proof
// completes.
func RunLambdaSweep(seed int64, blocks, statements int, m *machine.Machine,
	lambdas []int64) ([]LambdaSweepRow, error) {
	if m == nil {
		m = machine.DeepMachine() // deep pipelines stress the search most
	}
	if len(lambdas) == 0 {
		lambdas = []int64{50, 200, 1000, 5000, 50000, 500000}
	}
	pool, err := blockPool(seed, blocks, statements)
	if err != nil {
		return nil, err
	}
	rows := make([]LambdaSweepRow, 0, len(lambdas))
	for _, lambda := range lambdas {
		var nops, optimal, omega float64
		for _, g := range pool {
			sched, err := core.Find(g, m, core.Options{Lambda: lambda})
			if err != nil {
				return nil, err
			}
			nops += float64(sched.TotalNOPs)
			omega += float64(sched.Stats.OmegaCalls)
			if sched.Optimal {
				optimal++
			}
		}
		n := float64(len(pool))
		rows = append(rows, LambdaSweepRow{
			Lambda:     lambda,
			MeanNOPs:   nops / n,
			PctOptimal: 100 * optimal / n,
			MeanOmega:  omega / n,
		})
	}
	return rows, nil
}

// FormatLambdaSweep renders the sweep as a table.
func FormatLambdaSweep(rows []LambdaSweepRow) string {
	var sb strings.Builder
	sb.WriteString("Lambda sweep: schedule quality vs curtail point\n")
	sb.WriteString("lambda      mean-NOPs  pct-optimal  mean-omega\n")
	for _, r := range rows {
		fmt.Fprintf(&sb, "%-10d  %9.2f  %10.1f%%  %10.1f\n",
			r.Lambda, r.MeanNOPs, r.PctOptimal, r.MeanOmega)
	}
	return sb.String()
}

// WindowSweepRow compares split scheduling at one window size against
// the other strategies on the same large blocks.
type WindowSweepRow struct {
	Window     int
	MeanNOPs   float64
	MeanOmega  float64 // mean total search placements per block
	PctWindows float64 // percentage of windows proved optimal
}

// RunWindowSweep evaluates the section 5.3 splitting strategy on blocks
// too large for reliable whole-block search: quality (NOPs) and search
// cost as the window size varies.
func RunWindowSweep(seed int64, blocks, statements int, m *machine.Machine,
	windows []int) ([]WindowSweepRow, error) {
	if m == nil {
		m = machine.SimulationMachine()
	}
	if len(windows) == 0 {
		windows = []int{5, 10, 20, 40}
	}
	pool, err := blockPool(seed, blocks, statements)
	if err != nil {
		return nil, err
	}
	rows := make([]WindowSweepRow, 0, len(windows))
	for _, w := range windows {
		var nops, omega, optWins, wins float64
		for _, g := range pool {
			s, windows, optimal, err := seqsched.Windows(g, m, w, core.Options{Lambda: 20000})
			if err != nil {
				return nil, err
			}
			nops += float64(s.TotalNOPs)
			omega += float64(s.Stats.OmegaCalls)
			optWins += float64(optimal)
			wins += float64(windows)
		}
		n := float64(len(pool))
		row := WindowSweepRow{
			Window:    w,
			MeanNOPs:  nops / n,
			MeanOmega: omega / n,
		}
		if wins > 0 {
			row.PctWindows = 100 * optWins / wins
		}
		rows = append(rows, row)
	}
	return rows, nil
}

// FormatWindowSweep renders the sweep as a table.
func FormatWindowSweep(rows []WindowSweepRow) string {
	var sb strings.Builder
	sb.WriteString("Window sweep: split scheduling of large blocks (section 5.3)\n")
	sb.WriteString("window      mean-NOPs  mean-omega  pct-windows-optimal\n")
	for _, r := range rows {
		fmt.Fprintf(&sb, "%-10d  %9.2f  %10.1f  %18.1f%%\n",
			r.Window, r.MeanNOPs, r.MeanOmega, r.PctWindows)
	}
	return sb.String()
}

// blockPool builds a deterministic pool of synthetic block graphs.
func blockPool(seed int64, blocks, statements int) ([]*dag.Graph, error) {
	rng := rand.New(rand.NewSource(seed))
	var pool []*dag.Graph
	for len(pool) < blocks {
		b, err := synth.Generate(rng, synth.Params{
			Statements: statements, Variables: 8, Constants: 6,
		})
		if err != nil {
			return nil, err
		}
		g, err := dag.Build(b.IR)
		if err != nil {
			return nil, err
		}
		pool = append(pool, g)
	}
	return pool, nil
}
