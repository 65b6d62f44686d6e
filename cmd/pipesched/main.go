// Command pipesched is the compiler driver: it reads a source program
// (or tuple code with -tuples), schedules it optimally for the selected
// machine and prints the resulting assembly.
//
// Usage:
//
//	pipesched [flags] [file]           # default input: stdin
//	pipesched serve [flags]            # long-running compile service (see serve.go)
//	pipesched verify [flags]           # differential-oracle soak (see verify.go)
//	pipesched fleet [flags]            # multi-node fault-tolerant fleet (see fleet.go)
//	pipesched worker [flags]           # one out-of-process fleet backend (see worker.go)
//	pipesched trace [flags] file.jsonl # render recorded distributed traces (see trace.go)
//	pipesched campaign [flags]         # whole-program campaign over *.psrc programs (see campaign.go)
//
//	-preset name     machine preset: simulation | example | unpipelined | deep |
//	                 r3000 | m88k | carp
//	-machine file    machine description file (overrides -preset)
//	-tuples          input is tuple code, not source
//	-O               run the traditional optimizations before scheduling
//	-mode m          delay mechanism: nop | explicit | implicit | tera
//	-sched m         scheduler mode: paper | minreg-lex | minreg-k=<k> |
//	                 scoreboard[=<window>x<width>]
//	-lambda n        curtail point (0 = library default, <0 = unlimited)
//	-timeout d       wall-clock compile budget, e.g. 500ms (0 = none)
//	-registers n     architectural registers (0 = unlimited)
//	-assign          enable the pipeline-assignment extension
//	-workers n       parallel search workers (0/1 = sequential)
//	-prove           demand a proof: degraded results whose certified
//	                 optimality gap is not 0 exit 3 instead of 2
//	-stats           print search statistics (with per-prune breakdown,
//	                 the certified gap, per-stage timings and the
//	                 degradation reason)
//	-stats-json f    write structured telemetry events as JSONL to f
//	-metrics-addr a  serve /metrics, /debug/vars, /debug/pprof on a
//	-trace-out f     write the compile's trace (stages + search events) as Chrome trace_event JSON
//
// Exit status: 0 when the emitted schedule is provably optimal and no
// stage failed; 2 when a legal schedule was emitted but degraded (the
// curtail point λ or the -timeout budget cut the search short, or a
// stage failure was recovered — the reason is printed to stderr); 3
// instead of 2 when -prove is set and the degraded result's certified
// optimality gap is nonzero or unknown (the schedule may genuinely be
// suboptimal); 1 on hard failure with nothing emitted.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"time"

	"pipesched"
	"pipesched/internal/dag"
	"pipesched/internal/machine"
	"pipesched/internal/sim"
	"pipesched/internal/telemetry"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is the testable driver body; it returns the process exit status.
func run(args []string, stdout, stderr io.Writer) int {
	if len(args) > 0 && args[0] == "serve" {
		return runServe(context.Background(), args[1:], stdout, stderr)
	}
	if len(args) > 0 && args[0] == "verify" {
		return runVerify(args[1:], stdout, stderr)
	}
	if len(args) > 0 && args[0] == "fleet" {
		return runFleet(context.Background(), args[1:], stdout, stderr)
	}
	if len(args) > 0 && args[0] == "worker" {
		return runWorker(context.Background(), args[1:], stdout, stderr)
	}
	if len(args) > 0 && args[0] == "trace" {
		return runTrace(args[1:], stdout, stderr)
	}
	if len(args) > 0 && args[0] == "campaign" {
		return runCampaign(context.Background(), args[1:], stdout, stderr)
	}
	fs := flag.NewFlagSet("pipesched", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		preset    = fs.String("preset", "simulation", "machine preset: simulation|example|unpipelined|deep|r3000|m88k|carp")
		machFile  = fs.String("machine", "", "machine description file")
		tuples    = fs.Bool("tuples", false, "input is tuple code instead of source")
		optimize  = fs.Bool("O", false, "optimize before scheduling")
		modeName  = fs.String("mode", "nop", "delay mechanism: nop|explicit|implicit|tera")
		schedName = fs.String("sched", "", "scheduler mode: paper|minreg-lex|minreg-k=<k>|scoreboard[=<window>x<width>]")
		lambda    = fs.Int64("lambda", 0, "curtail point (0 = default, <0 = unlimited)")
		timeout   = fs.Duration("timeout", 0, "wall-clock compile budget (0 = none); on expiry the best schedule found so far is emitted with exit status 2")
		registers = fs.Int("registers", 0, "architectural registers (0 = unlimited)")
		assign    = fs.Bool("assign", false, "enable pipeline-assignment extension")
		workers   = fs.Int("workers", 0, "parallel search workers (0 or 1 = sequential)")
		prove     = fs.Bool("prove", false, "exit 3 on degraded results without a gap=0 optimality certificate")
		stats     = fs.Bool("stats", false, "print search statistics")
		statsJSON = fs.String("stats-json", "", "write telemetry events as JSON lines to this file")
		metrics   = fs.String("metrics-addr", "", "serve /metrics, /debug/vars and /debug/pprof on this address (e.g. :9090)")
		traceOut  = fs.String("trace-out", "", "write the compile's trace (stage slices, search events) as Chrome trace_event JSON to this file")
		timeline  = fs.Bool("timeline", false, "print a tick-by-tick pipeline occupancy timeline")
		explain   = fs.Bool("explain", false, "annotate delays with their binding constraint")
		report    = fs.Bool("report", false, "print a full compilation report instead of bare assembly")
	)
	if err := fs.Parse(args); err != nil {
		return 1
	}
	fail := func(err error) int {
		fmt.Fprintf(stderr, "pipesched: %v\n", err)
		return 1
	}

	m, err := pickMachine(*preset, *machFile)
	if err != nil {
		return fail(err)
	}
	mode, err := pickMode(*modeName)
	if err != nil {
		return fail(err)
	}
	sched, err := pipesched.ParseSchedMode(*schedName)
	if err != nil {
		return fail(err)
	}
	input, err := readInput(fs.Args())
	if err != nil {
		return fail(err)
	}

	ctx := context.Background()
	if *timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *timeout)
		defer cancel()
	}

	// Observability: -stats, -stats-json and -metrics-addr all ride on
	// the telemetry layer; it stays off (and costs ~nothing) otherwise.
	var pm *pipesched.Telemetry
	if *stats || *statsJSON != "" || *metrics != "" {
		pm = pipesched.EnableTelemetry()
		defer pipesched.DisableTelemetry()
	}
	if *statsJSON != "" {
		f, err := os.Create(*statsJSON)
		if err != nil {
			return fail(err)
		}
		defer f.Close()
		pm.SetSink(pipesched.NewJSONLTelemetrySink(f))
	}
	if *metrics != "" {
		ts, err := pipesched.ServeTelemetry(*metrics, pm)
		if err != nil {
			return fail(err)
		}
		defer ts.Close()
		fmt.Fprintf(stderr, "telemetry: serving http://%s/metrics (also /debug/vars, /debug/pprof)\n", ts.Addr())
	}
	// -trace-out traces this one compile: every stage span plus up to
	// maxTraceEvents search events, kept in the tracer's flight recorder.
	var tracer *pipesched.Tracer
	traceSearch := 0
	if *traceOut != "" {
		traceSearch = maxTraceEvents
		tracer = pipesched.EnableTracing(pm, pipesched.TracerConfig{RecorderSize: maxTraceEvents + 1024})
		defer pipesched.DisableTracing()
	}
	ctx, root := tracer.StartRoot(ctx, "compile", pipesched.TraceContext{})

	opts := pipesched.Options{
		Sched:           sched,
		Lambda:          *lambda,
		Optimize:        *optimize,
		Registers:       *registers,
		Mode:            mode,
		AssignPipelines: *assign,
		ExplainNOPs:     *explain,
		Workers:         *workers,
		TraceSearch:     traceSearch,
	}

	degraded := func(err error, gap int) int {
		if err == nil {
			return 0
		}
		fmt.Fprintf(stderr, "pipesched: degraded result: %v\n", err)
		if *prove && gap != 0 {
			// The caller demanded a proof and this result has none: the
			// incumbent is a certified gap (or an unknown distance) away
			// from the optimum.
			fmt.Fprintf(stderr, "pipesched: -prove: no optimality certificate (gap %s)\n", gapString(gap))
			return 3
		}
		return 2
	}

	// finish runs the end-of-compilation observability outputs shared by
	// both input paths: the Chrome trace, the per-stage timing line, and
	// the degraded-exit accounting.
	finish := func(cerr error, gap int) int {
		if tracer != nil {
			root.End()
			if err := writeChromeTrace(*traceOut, tracer); err != nil {
				return fail(err)
			}
		}
		if *stats && pm != nil {
			printStageTimes(stderr, pm)
		}
		return degraded(cerr, gap)
	}

	if *tuples {
		block, err := pipesched.ParseBlock(input)
		if err != nil {
			return fail(err)
		}
		compiled, cerr := pipesched.ScheduleCtx(ctx, block, m, opts)
		if compiled == nil {
			return fail(cerr)
		}
		if *report {
			fmt.Fprint(stdout, compiled.Report(m))
		} else {
			emit(stdout, stderr, compiled, m, *stats, degradationReason(cerr))
		}
		if *timeline {
			if err := printTimeline(stderr, compiled, m); err != nil {
				return fail(err)
			}
		}
		return finish(cerr, compiled.Gap)
	}
	// Multi-block sources are scheduled as a sequence with pipeline
	// state threaded across the boundaries; plain sources produce one
	// block either way.
	seq, cerr := pipesched.CompileSequenceCtx(ctx, input, m, opts)
	if seq == nil {
		return fail(cerr)
	}
	reason := degradationReason(cerr)
	for _, c := range seq.Blocks {
		if *report {
			fmt.Fprint(stdout, c.Report(m))
		} else {
			emit(stdout, stderr, c, m, *stats, reason)
		}
		if *timeline {
			if err := printTimeline(stderr, c, m); err != nil {
				return fail(err)
			}
		}
	}
	if len(seq.Blocks) > 1 && *stats {
		fmt.Fprintf(stderr, "sequence: blocks=%d total-nops=%d total-ticks=%d optimal=%t quality=%s\n",
			len(seq.Blocks), seq.TotalNOPs, seq.TotalTicks, seq.Optimal, seq.Quality)
	}
	return finish(cerr, worstGap(seq.Blocks))
}

// worstGap folds per-block gap certificates into one sequence-level
// verdict: unknown if any block lacks a certificate, else the largest
// certified gap.
func worstGap(blocks []*pipesched.Compiled) int {
	worst := 0
	for _, c := range blocks {
		if c.Gap == pipesched.GapUnknown {
			return pipesched.GapUnknown
		}
		if c.Gap > worst {
			worst = c.Gap
		}
	}
	return worst
}

// gapString renders a gap certificate for human eyes: a number, or
// "unknown" when no certificate exists.
func gapString(gap int) string {
	if gap == pipesched.GapUnknown {
		return "unknown"
	}
	return fmt.Sprintf("%d", gap)
}

// emit prints one compiled block and, optionally, its statistics lines:
// the summary (now carrying the degradation reason whenever the quality
// rung is below optimal) and the per-prune breakdown.
func emit(stdout, stderr io.Writer, c *pipesched.Compiled, m *pipesched.Machine, stats bool, reason string) {
	fmt.Fprint(stdout, c.Assembly)
	if !stats {
		return
	}
	line := fmt.Sprintf(
		"machine=%s block=%s instructions=%d nops=%d ticks=%d optimal=%t quality=%s",
		m.Name, c.Scheduled.Label, c.Scheduled.Len(), c.TotalNOPs, c.Ticks,
		c.Optimal, c.Quality)
	if !c.Sched.IsPaper() {
		line += " sched=" + c.Sched.String()
		if c.Sched.NeedsPressure() {
			line += fmt.Sprintf(" maxlive=%d", c.MaxLive)
		}
	}
	if c.Quality != pipesched.Optimal && reason != "" {
		line += " reason=" + reason
	}
	st := c.Stats
	fmt.Fprintf(stderr, "%s seed-nops=%d omega=%d gap=%s root-lb=%d elapsed=%s\n", line,
		c.InitialNOPs, st.OmegaCalls, gapString(c.Gap), c.RootLB, st.Elapsed)
	fmt.Fprintf(stderr,
		"pruned: bounds=%d illegal=%d equivalence=%d strong=%d alphabeta=%d lowerbound=%d resource=%d memo=%d examined=%d improvements=%d\n",
		st.PrunedBounds, st.PrunedIllegal, st.PrunedEquivalence, st.PrunedStrongEquiv,
		st.PrunedAlphaBeta, st.PrunedLowerBound, st.PrunedResource, st.MemoHits,
		st.SchedulesExamined, st.Improvements)
}

// degradationReason names the sentinel (or stage fault) behind a
// degraded result, for the -stats summary line. Empty when err is nil.
func degradationReason(err error) string {
	var se *pipesched.StageError
	switch {
	case err == nil:
		return ""
	case errors.Is(err, pipesched.ErrCurtailed):
		return "ErrCurtailed"
	case errors.Is(err, pipesched.ErrDeadline):
		return "ErrDeadline"
	case errors.Is(err, pipesched.ErrCanceled):
		return "ErrCanceled"
	case errors.As(err, &se):
		return "StageError:" + se.Stage
	}
	return "error"
}

// printStageTimes renders the cumulative wall time the telemetry layer
// recorded per pipeline stage.
func printStageTimes(w io.Writer, pm *pipesched.Telemetry) {
	fmt.Fprintf(w, "stages:")
	for _, st := range telemetry.Stages {
		h := pm.StageDuration(st)
		if h.Count() == 0 {
			continue
		}
		fmt.Fprintf(w, " %s=%s", st, time.Duration(h.Sum())*time.Microsecond)
	}
	fmt.Fprintln(w)
}

// maxTraceEvents bounds the search events -trace-out records per
// compile, so a long search cannot exhaust memory.
const maxTraceEvents = 200_000

// writeChromeTrace renders the spans tr recorded as Chrome trace_event
// JSON and writes it to path.
func writeChromeTrace(path string, tr *pipesched.Tracer) error {
	data, err := pipesched.ChromeTraceRequest(tr.Recorder().Snapshot())
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

func pickMachine(preset, file string) (*pipesched.Machine, error) {
	if file != "" {
		f, err := os.Open(file)
		if err != nil {
			return nil, err
		}
		defer f.Close()
		return machine.Parse(f)
	}
	if mk, ok := machine.Presets()[preset]; ok {
		return mk(), nil
	}
	return nil, fmt.Errorf("unknown preset %q (want one of simulation, example, unpipelined, deep, r3000, m88k, carp)", preset)
}

func pickMode(name string) (pipesched.DelayMode, error) {
	switch name {
	case "nop":
		return pipesched.NOPPadding, nil
	case "explicit":
		return pipesched.ExplicitInterlock, nil
	case "implicit":
		return pipesched.ImplicitInterlock, nil
	case "tera":
		return pipesched.TeraInterlock, nil
	}
	return 0, fmt.Errorf("unknown mode %q (want nop, explicit, implicit or tera)", name)
}

func readInput(args []string) (string, error) {
	if len(args) > 1 {
		return "", fmt.Errorf("at most one input file")
	}
	if len(args) == 1 {
		data, err := os.ReadFile(args[0])
		return string(data), err
	}
	data, err := io.ReadAll(os.Stdin)
	return string(data), err
}

// printTimeline renders the block's occupancy timeline to w.
func printTimeline(w io.Writer, c *pipesched.Compiled, m *pipesched.Machine) error {
	g, err := dag.Build(c.Original)
	if err != nil {
		return err
	}
	in := sim.Input{Graph: g, M: m, Order: c.Order, Eta: c.Eta, Pipes: c.Pipes}
	tr, err := sim.Run(in, sim.NOPPadding)
	if err != nil {
		return err
	}
	fmt.Fprint(w, sim.Timeline(in, tr))
	return nil
}
