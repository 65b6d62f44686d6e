// The campaign subcommand: whole-program compilation campaigns. It
// loads every *.psrc program under a directory, forms superblock
// traces over each program's block graph, and streams the compiles
// through the in-process scheduler or a service/fleet front door, with
// optional incremental recompilation against a durable manifest.
//
//	pipesched campaign -dir examples/kernels/programs
//	pipesched campaign -dir src -manifest .pipesched-manifest -sched minreg-k=3
//	pipesched campaign -dir src -http http://127.0.0.1:8080 -json
//
// Exit status: 0 when every trace compiled and verified; 2 when the
// campaign finished but some programs failed (their errors are in the
// report); 1 on configuration or I/O failure.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"

	"pipesched"
	"pipesched/internal/campaign"
	"pipesched/internal/server"
)

// runCampaign is the testable body of `pipesched campaign`.
func runCampaign(ctx context.Context, args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("pipesched campaign", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		dir         = fs.String("dir", "", "directory of *.psrc program files (required)")
		manifestDir = fs.String("manifest", "", "manifest directory for incremental recompilation (empty = cold run)")
		preset      = fs.String("preset", "simulation", "machine preset: simulation|example|unpipelined|deep|r3000|m88k|carp")
		machFile    = fs.String("machine", "", "machine description file")
		schedName   = fs.String("sched", "", "scheduler mode: paper|minreg-lex|minreg-k=<k>|scoreboard[=<window>x<width>]")
		lambda      = fs.Int64("lambda", 0, "curtail point (0 = default, <0 = unlimited)")
		optimize    = fs.Bool("O", false, "optimize blocks before scheduling")
		concurrency = fs.Int("concurrency", 0, "traces compiled at once (0 = default)")
		splitOver   = fs.Int("split-over", 0, "split merged traces larger than this many tuples (0 = never split)")
		window      = fs.Int("window", 0, "splitter window size (0 = splitter default)")
		httpURL     = fs.String("http", "", "compile via this service/fleet front door instead of in-process")
		timeoutMS   = fs.Int64("timeout-ms", 0, "per-compile budget in ms for the front door (0 = server default)")
		jsonOut     = fs.Bool("json", false, "print the report as JSON instead of a table")
	)
	if !parseFlags(fs, args, stderr) {
		return 1
	}
	fail := func(err error) int {
		fmt.Fprintf(stderr, "pipesched campaign: %v\n", err)
		return 1
	}
	if *dir == "" {
		return fail(fmt.Errorf("-dir is required"))
	}

	m, err := pickMachine(*preset, *machFile)
	if err != nil {
		return fail(err)
	}
	mode, err := pipesched.ParseSchedMode(*schedName)
	if err != nil {
		return fail(err)
	}
	inputs, err := campaign.LoadDir(*dir)
	if err != nil {
		return fail(err)
	}

	var comp campaign.Compiler
	if *httpURL != "" {
		// The front door compiles on ITS machine model; ship the same
		// model we price baselines and verify schedules against, so the
		// two can never diverge.
		spec := server.MachineSpec{Preset: *preset}
		if *machFile != "" {
			text, err := os.ReadFile(*machFile)
			if err != nil {
				return fail(err)
			}
			spec = server.MachineSpec{Text: string(text)}
		}
		comp = &campaign.SubmitCompiler{
			Sub:     &server.Client{URL: *httpURL},
			Machine: spec,
			Options: server.RequestOptions{
				Lambda: *lambda, Optimize: *optimize, Sched: *schedName,
			},
			TimeoutMS: *timeoutMS,
		}
	} else {
		comp = &campaign.LocalCompiler{
			M: m,
			Options: pipesched.Options{
				Sched: mode, Lambda: *lambda, Optimize: *optimize,
			},
			SplitOver: *splitOver, Window: *window,
		}
	}

	cfg := campaign.Config{
		Machine: m, Mode: mode, Compiler: comp,
		Concurrency: *concurrency, Optimize: *optimize,
	}
	if *manifestDir != "" {
		mf, rec, err := campaign.OpenManifest(*manifestDir, m, mode)
		if err != nil {
			return fail(err)
		}
		defer mf.Close()
		if rec.Quarantined > 0 {
			fmt.Fprintf(stderr, "pipesched campaign: manifest recovery quarantined %d entries\n", rec.Quarantined)
		}
		cfg.Manifest = mf
	}

	runner, err := campaign.NewRunner(cfg)
	if err != nil {
		return fail(err)
	}
	rep, err := runner.Run(ctx, inputs)
	if err != nil {
		return fail(err)
	}

	if *jsonOut {
		enc := json.NewEncoder(stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(rep); err != nil {
			return fail(err)
		}
	} else {
		fmt.Fprint(stdout, rep.Table())
	}
	if rep.Failed > 0 {
		return 2
	}
	return 0
}
