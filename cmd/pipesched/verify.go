// The verify subcommand: a differential-testing soak that cross-checks
// the schedulers against the exhaustive references, the hazard
// simulator, the list-scheduling upper bound and the metamorphic
// invariants, over fuzzed blocks and machine models.
//
//	pipesched verify -blocks 2000 -machines 50 -seed 1 -out failures.jsonl
//
// Exit status: 0 when every pair is clean, 1 when any divergence was
// found (repro artifacts go to -out as JSON lines) or on hard failure.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"pipesched/internal/machine"
	"pipesched/internal/oracle"
)

// runVerify is the testable body of `pipesched verify`.
func runVerify(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("pipesched verify", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		blocks    = fs.Int("blocks", 500, "synthetic blocks to generate and check")
		machines  = fs.Int("machines", 20, "machine models (index 0 is the simulation preset, the rest are fuzzed)")
		seed      = fs.Int64("seed", 1, "master seed; every block, machine and transformation derives from it")
		workers   = fs.Int("workers", 0, "concurrent pairs (0 = GOMAXPROCS)")
		lambda    = fs.Int64("lambda", 0, "per-candidate search budget (0 = oracle default)")
		maxStmts  = fs.Int("max-statements", 0, "max source statements per block (0 = default 7)")
		out       = fs.String("out", "", "write failure-repro JSONL artifacts to this file")
		noMeta    = fs.Bool("no-metamorphic", false, "skip the metamorphic invariants")
		noExh     = fs.Bool("no-exhaustive", false, "skip the exhaustive reference enumerations")
		exhOrders = fs.Int64("exhaustive-orders", 0, "legal-order cap for the exhaustive reference (0 = default 20000)")
		mode      = fs.String("mode", "", "scheduler mode to soak: paper|minreg-lex|minreg-k=<k>|scoreboard[=<window>x<width>] (empty = paper)")
		progress  = fs.Bool("progress", false, "report progress to stderr every 10% of blocks")
	)
	if !parseFlags(fs, args, stderr) {
		return 1
	}

	cfg := oracle.RunConfig{
		Blocks:        *blocks,
		Machines:      *machines,
		Seed:          *seed,
		Workers:       *workers,
		MaxStatements: *maxStmts,
		Mode:          *mode,
		MachineParams: machine.Params{},
		Check: oracle.Config{
			Lambda:            *lambda,
			ExhaustiveOrders:  *exhOrders,
			DisableExhaustive: *noExh,
		},
		DisableMetamorphic: *noMeta,
	}
	if *out != "" {
		f, err := os.Create(*out)
		if err != nil {
			fmt.Fprintf(stderr, "pipesched verify: %v\n", err)
			return 1
		}
		defer f.Close()
		cfg.Artifacts = f
	}
	if *progress {
		step := *blocks / 10
		if step < 1 {
			step = 1
		}
		cfg.Progress = func(done, total int) {
			if done%step == 0 || done == total {
				fmt.Fprintf(stderr, "verify: %d/%d blocks checked\n", done, total)
			}
		}
	}

	sum, err := oracle.Run(cfg)
	if err != nil {
		fmt.Fprintf(stderr, "pipesched verify: %v\n", err)
		return 1
	}
	// Run validated the mode string; render its canonical form.
	sm, _ := machine.ParseSchedMode(cfg.Mode)
	modeLabel := sm.String()
	fmt.Fprintf(stdout, "verify: mode=%s seed=%d pairs=%d tuples=%d divergences=%d checks: %s\n",
		modeLabel, *seed, sum.Pairs, sum.Tuples, sum.Divergences, sum.Checks())
	if sum.Divergences > 0 {
		for i, a := range sum.Artifacts {
			if i >= 10 {
				fmt.Fprintf(stderr, "verify: ... %d more divergences\n", len(sum.Artifacts)-i)
				break
			}
			fmt.Fprintf(stderr, "verify: block=%d machine=%d %s\n  shrunk repro:\n%s",
				a.BlockIndex, a.MachineIndex, a.Divergence, indent(a.ShrunkText))
		}
		if *out != "" {
			fmt.Fprintf(stderr, "verify: full repro artifacts written to %s\n", *out)
		}
		return 1
	}
	return 0
}

// indent prefixes every line of s for readable stderr nesting.
func indent(s string) string {
	out := ""
	start := 0
	for i := 0; i <= len(s); i++ {
		if i == len(s) || s[i] == '\n' {
			if i > start {
				out += "    " + s[start:i] + "\n"
			}
			start = i + 1
		}
	}
	return out
}
