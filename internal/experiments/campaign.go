// Package experiments reproduces the paper's evaluation: the 16,000-block
// scheduling campaign behind Table 7 and Figures 1 and 4-7, and the
// representative search-space comparison of Table 1. Every experiment is
// deterministic given its seed; campaigns fan out across goroutines with
// per-run derived seeds, so the parallel results are identical to the
// sequential ones.
package experiments

import (
	"fmt"
	"math/rand"
	"runtime"
	"strings"
	"sync"
	"time"

	"pipesched/internal/core"
	"pipesched/internal/dag"
	"pipesched/internal/listsched"
	"pipesched/internal/machine"
	"pipesched/internal/nopins"
	"pipesched/internal/stats"
	"pipesched/internal/synth"
)

// CampaignConfig configures a scheduling campaign.
type CampaignConfig struct {
	Runs      int              // number of blocks (paper: 16,000)
	Seed      int64            // master seed; run i uses Seed+i
	Lambda    int64            // curtail point λ (paper: large vs typical search)
	Machine   *machine.Machine // target (default: paper simulation machine)
	Variables int              // variable pool per block (default 8)
	Constants int              // constant pool per block (default 6)
	Optimize  bool             // run traditional optimizations before scheduling
	Workers   int              // goroutines (default GOMAXPROCS)
}

func (c *CampaignConfig) defaults() {
	if c.Runs <= 0 {
		c.Runs = 16000
	}
	if c.Lambda == 0 {
		c.Lambda = 100000
	}
	if c.Machine == nil {
		c.Machine = machine.SimulationMachine()
	}
	if c.Variables <= 0 {
		c.Variables = 8
	}
	if c.Constants <= 0 {
		c.Constants = 6
	}
	if c.Workers <= 0 {
		c.Workers = runtime.GOMAXPROCS(0)
	}
}

// Record is the outcome of scheduling one synthetic block.
type Record struct {
	Tuples      int
	InitialNOPs int   // NOPs of the naive program order (the paper's "initial")
	ListNOPs    int   // NOPs of the search seed (better of list schedule and greedy)
	FinalNOPs   int   // NOPs of the best schedule found
	OmegaCalls  int64 // search placements (Ω invocations)
	Completed   bool  // search ran to completion (provably optimal)
	Elapsed     time.Duration
}

// Campaign holds a full run's records.
type Campaign struct {
	Config  CampaignConfig
	Records []Record
}

// RunCampaign generates and schedules cfg.Runs synthetic blocks.
func RunCampaign(cfg CampaignConfig) (*Campaign, error) {
	cfg.defaults()
	records := make([]Record, cfg.Runs)
	errs := make([]error, cfg.Runs)

	var wg sync.WaitGroup
	jobs := make(chan int)
	for w := 0; w < cfg.Workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range jobs {
				records[i], errs[i] = runOne(cfg, i)
			}
		}()
	}
	for i := 0; i < cfg.Runs; i++ {
		jobs <- i
	}
	close(jobs)
	wg.Wait()

	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return &Campaign{Config: cfg, Records: records}, nil
}

// runOne generates and schedules the i-th block. Each run derives its own
// rand.Rand from the master seed, making results independent of worker
// interleaving.
func runOne(cfg CampaignConfig, i int) (Record, error) {
	rng := rand.New(rand.NewSource(cfg.Seed + int64(i)))
	stmts := synth.SizeDistribution(rng, 1)[0]
	blk, err := synth.Generate(rng, synth.Params{
		Statements: stmts,
		Variables:  cfg.Variables,
		Constants:  cfg.Constants,
		Optimize:   cfg.Optimize,
	})
	if err != nil {
		return Record{}, fmt.Errorf("experiments: run %d: %w", i, err)
	}
	g, err := dag.Build(blk.IR)
	if err != nil {
		return Record{}, fmt.Errorf("experiments: run %d: %w", i, err)
	}
	// The paper's "initial NOPs" are those of the code as generated
	// (naive program order), before any scheduling.
	programOrder := make([]int, g.N)
	for k := range programOrder {
		programOrder[k] = k
	}
	naive, err := nopins.NewEvaluator(g, cfg.Machine, nopins.AssignFixed).EvaluateOrder(programOrder)
	if err != nil {
		return Record{}, fmt.Errorf("experiments: run %d: %w", i, err)
	}
	sched, err := core.Find(g, cfg.Machine, core.Options{
		Lambda:       cfg.Lambda,
		SeedPriority: listsched.ByHeight,
		Assign:       nopins.AssignFixed,
	})
	if err != nil {
		return Record{}, fmt.Errorf("experiments: run %d: %w", i, err)
	}
	return Record{
		Tuples:      g.N,
		InitialNOPs: naive.TotalNOPs,
		ListNOPs:    sched.InitialNOPs,
		FinalNOPs:   sched.TotalNOPs,
		OmegaCalls:  sched.Stats.OmegaCalls,
		Completed:   sched.Optimal,
		Elapsed:     sched.Stats.Elapsed,
	}, nil
}

// Split partitions records into completed (optimal) and truncated runs.
func (c *Campaign) Split() (completed, truncated []Record) {
	for _, r := range c.Records {
		if r.Completed {
			completed = append(completed, r)
		} else {
			truncated = append(truncated, r)
		}
	}
	return completed, truncated
}

// summarize computes the per-column averages of Table 7.
type summary struct {
	n           int
	pct         float64
	avgTuples   float64
	avgInitNOPs float64
	avgListNOPs float64
	avgFinNOPs  float64
	avgOmega    float64
	avgTime     time.Duration
}

func summarize(records []Record, total int) summary {
	s := summary{n: len(records)}
	if total > 0 {
		s.pct = 100 * float64(len(records)) / float64(total)
	}
	if len(records) == 0 {
		return s
	}
	var tuples, init, list, fin, omega float64
	var elapsed time.Duration
	for _, r := range records {
		tuples += float64(r.Tuples)
		init += float64(r.InitialNOPs)
		list += float64(r.ListNOPs)
		fin += float64(r.FinalNOPs)
		omega += float64(r.OmegaCalls)
		elapsed += r.Elapsed
	}
	n := float64(len(records))
	s.avgTuples = tuples / n
	s.avgInitNOPs = init / n
	s.avgListNOPs = list / n
	s.avgFinNOPs = fin / n
	s.avgOmega = omega / n
	s.avgTime = elapsed / time.Duration(len(records))
	return s
}

// Table7 renders the campaign the way the paper's Table 7 does:
// completed vs truncated columns plus totals.
func (c *Campaign) Table7() string {
	completed, truncated := c.Split()
	sc := summarize(completed, len(c.Records))
	st := summarize(truncated, len(c.Records))
	sa := summarize(c.Records, len(c.Records))

	var sb strings.Builder
	fmt.Fprintf(&sb, "Table 7: Statistics for Scheduling %d Blocks (λ=%d, machine=%s)\n",
		len(c.Records), c.Config.Lambda, c.Config.Machine.Name)
	fmt.Fprintf(&sb, "%-28s %18s %18s %14s\n", "", "Search Completed", "Search Truncated", "Totals")
	fmt.Fprintf(&sb, "%-28s %18s %18s %14s\n", "", "(Optimal)", "(Suboptimal?)", "")
	row := func(label, a, b, t string) {
		fmt.Fprintf(&sb, "%-28s %18s %18s %14s\n", label, a, b, t)
	}
	row("Number of Runs", fmt.Sprintf("%d", sc.n), fmt.Sprintf("%d", st.n), fmt.Sprintf("%d", sa.n))
	row("Percentage of Runs",
		fmt.Sprintf("%.2f%%", sc.pct), fmt.Sprintf("%.2f%%", st.pct), "100%")
	row("Avg. Instructions/Block",
		fmt.Sprintf("%.2f", sc.avgTuples), fmt.Sprintf("%.2f", st.avgTuples), fmt.Sprintf("%.2f", sa.avgTuples))
	row("Avg. Initial NOPs",
		fmt.Sprintf("%.2f", sc.avgInitNOPs), fmt.Sprintf("%.2f", st.avgInitNOPs), fmt.Sprintf("%.2f", sa.avgInitNOPs))
	row("Avg. Seed NOPs",
		fmt.Sprintf("%.2f", sc.avgListNOPs), fmt.Sprintf("%.2f", st.avgListNOPs), fmt.Sprintf("%.2f", sa.avgListNOPs))
	row("Avg. Final NOPs",
		fmt.Sprintf("%.2f", sc.avgFinNOPs), fmt.Sprintf("%.2f", st.avgFinNOPs), fmt.Sprintf("%.2f", sa.avgFinNOPs))
	row("Avg. Ω Calls",
		fmt.Sprintf("%.1f", sc.avgOmega), fmt.Sprintf("%.1f", st.avgOmega), fmt.Sprintf("%.1f", sa.avgOmega))
	row("Avg. Search Time",
		fmtDur(sc.avgTime), fmtDur(st.avgTime), fmtDur(sa.avgTime))
	return sb.String()
}

func fmtDur(d time.Duration) string {
	switch {
	case d == 0:
		return "-"
	case d < time.Millisecond:
		return fmt.Sprintf("%.1fµs", float64(d.Nanoseconds())/1e3)
	case d < time.Second:
		return fmt.Sprintf("%.2fms", float64(d.Nanoseconds())/1e6)
	default:
		return fmt.Sprintf("%.2fs", d.Seconds())
	}
}

// CSV renders all records as comma-separated values with a header, for
// external plotting.
func (c *Campaign) CSV() string {
	var sb strings.Builder
	sb.WriteString("tuples,initial_nops,list_nops,final_nops,omega_calls,completed,elapsed_ns\n")
	for _, r := range c.Records {
		fmt.Fprintf(&sb, "%d,%d,%d,%d,%d,%t,%d\n",
			r.Tuples, r.InitialNOPs, r.ListNOPs, r.FinalNOPs, r.OmegaCalls, r.Completed, r.Elapsed.Nanoseconds())
	}
	return sb.String()
}

// DetailTable renders distribution detail beyond the paper's Table 7:
// percentiles of search effort and the NOPs removed by scheduling.
func (c *Campaign) DetailTable() string {
	omega := make([]float64, len(c.Records))
	saved := make([]float64, len(c.Records))
	for i, r := range c.Records {
		omega[i] = float64(r.OmegaCalls)
		saved[i] = float64(r.InitialNOPs - r.FinalNOPs)
	}
	var sb strings.Builder
	sb.WriteString("Campaign detail (distributions)\n")
	row := func(label string, xs []float64) {
		fmt.Fprintf(&sb, "%-22s p50=%-9.1f p90=%-9.1f p99=%-9.1f max=%-9.1f\n",
			label,
			stats.Percentile(xs, 50), stats.Percentile(xs, 90),
			stats.Percentile(xs, 99), stats.Percentile(xs, 100))
	}
	row("Ω calls", omega)
	row("NOPs removed", saved)
	return sb.String()
}
