// Command bench is the repository benchmark. It runs one pinned workload
// against the pipesched library in this process, checks that the outputs
// are correct, and prints every metric by name with its unit. The last
// line of standard output is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {"<name>": {"value": V, "unit": "U"}}}
//
// With -trace 0 the metrics are the end-to-end metrics, measured with
// tracing off. With -trace 1 the run also repeats the workload's calls one
// layer at a time with a span around each, reports the per-layer metrics
// instead, and writes the spans as Chrome trace JSON to
// .bench_build/trace-<workload>.json. Build and run it from the repository
// root with run.sh:
//
//	bash bench/run.sh -workload paper-sim -seed 1 -seconds 20 -trace 0
//
// The exit status is 0 when every output was correct, 1 when a check
// failed or the run could not complete, and 2 on a usage error. README.md
// describes the workloads and the metrics.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"

	"pipesched"
)

// outDir holds everything a run writes, relative to the working directory.
const outDir = ".bench_build"

// runConfig is what one run of a workload is given.
type runConfig struct {
	name    string
	seed    int64
	budget  time.Duration // length of the measured phase
	trace   bool
	workDir string  // scratch directory, removed when the run ends
	probe   *prober // measures machine speed between units
}

type workload struct {
	name string
	run  func(runConfig) (*outcome, error)
}

// workloads are the benchmark's workloads; README.md says why each exists.
var workloads = []workload{
	{"paper-sim", blockWorkload{machine: pipesched.SimulationMachine, blocks: 400, tail: 99}.run},
	{"paper-example", blockWorkload{machine: pipesched.ExampleMachine, blocks: 200, tail: 99}.run},
	{"scoreboard", blockWorkload{machine: pipesched.SimulationMachine, sched: pipesched.Scoreboard(8, 2), blocks: 200, tail: 95}.run},
	{"service", serviceWorkload{hot: 32, cycle: 8192}.run},
	{"campaign", campaignWorkload{programs: 400, edits: 10}.run},
}

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload to run: "+workloadNames())
	seed := fs.Int64("seed", 1, "seed for the workload's inputs")
	seconds := fs.Int("seconds", 20, "length of the measured phase in seconds")
	trace := fs.Int("trace", 0, "1 adds a traced run and reports per-layer metrics instead of end-to-end ones")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	var w *workload
	for i := range workloads {
		if workloads[i].name == *name {
			w = &workloads[i]
		}
	}
	if w == nil || fs.NArg() > 0 || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(stderr, "usage: bench -workload {%s} -seed N -seconds N -trace {0|1}\n", workloadNames())
		return 2
	}
	cfg := runConfig{
		name: w.name, seed: *seed, budget: time.Duration(*seconds) * time.Second, trace: *trace == 1,
		workDir: filepath.Join(outDir, "work", fmt.Sprintf("%s-%d", w.name, os.Getpid())),
		probe:   newProber(),
	}
	defer os.RemoveAll(cfg.workDir)

	o, err := w.run(cfg)
	if err != nil {
		fmt.Fprintf(stderr, "bench: %s: %v\n", w.name, err)
		return 1
	}
	fmt.Fprintf(stdout, "bench: workload %s seed %d seconds %d trace %d; %s %s/%s, GOMAXPROCS %d, NumCPU %d\n",
		w.name, *seed, *seconds, *trace, runtime.Version(), runtime.GOOS, runtime.GOARCH,
		runtime.GOMAXPROCS(0), runtime.NumCPU())
	defs := endToEnd
	if cfg.trace {
		defs = perLayer
	}
	factor := cfg.probe.speedFactor()
	if o.slowdown > 0 {
		factor = 1 / o.slowdown
	}
	o.toReferenceSpeed(defs, factor)
	if cfg.trace {
		path := filepath.Join(outDir, "trace-"+w.name+".json")
		if err := writeChrome(o.spans, w.name, path); err != nil {
			fmt.Fprintf(stderr, "bench: %s: chrome trace: %v\n", w.name, err)
			return 1
		}
		o.notef("chrome trace: %s", path)
	}
	for _, p := range o.problems {
		fmt.Fprintf(stderr, "bench: %s: INCORRECT: %s\n", w.name, p)
	}
	if err := o.write(stdout, defs); err != nil {
		fmt.Fprintf(stderr, "bench: %s: %v\n", w.name, err)
		return 1
	}
	if len(o.problems) > 0 {
		return 1
	}
	return 0
}

func writeChrome(tr *recorder, node, path string) error {
	data, err := tr.chrome(node)
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

func workloadNames() string {
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return strings.Join(names, "|")
}
