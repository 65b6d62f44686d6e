package campaign

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"pipesched/internal/machine"
	"pipesched/internal/telemetry"
)

// Input is one program file of a campaign.
type Input struct {
	Name   string // program name, usually the file path
	Source string
}

// LoadDir collects every *.psrc program file under dir (recursively),
// sorted by path so campaign runs are deterministic.
func LoadDir(dir string) ([]Input, error) {
	var inputs []Input
	err := filepath.Walk(dir, func(path string, info os.FileInfo, err error) error {
		if err != nil {
			return err
		}
		if info.IsDir() || !strings.HasSuffix(path, ".psrc") {
			return nil
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		inputs = append(inputs, Input{Name: path, Source: string(data)})
		return nil
	})
	if err != nil {
		return nil, err
	}
	if len(inputs) == 0 {
		return nil, fmt.Errorf("campaign: no *.psrc programs under %s", dir)
	}
	sort.Slice(inputs, func(i, j int) bool { return inputs[i].Name < inputs[j].Name })
	return inputs, nil
}

// Config configures one campaign run.
type Config struct {
	Machine  *machine.Machine
	Mode     machine.SchedMode
	Compiler Compiler // required; the runner adds campaign-wide dedup on top
	// Manifest enables incremental recompilation; nil runs cold with no
	// durable state.
	Manifest *Manifest
	// Concurrency bounds how many programs parse, or traces compile, at
	// once; 0 selects 4.
	Concurrency int
	// Optimize runs the traditional optimizations when lowering blocks.
	Optimize bool
	Metrics  *telemetry.Metrics
}

// Runner executes compilation campaigns.
type Runner struct {
	cfg   Config
	met   *campaignMetrics
	dedup *DedupCompiler
}

// NewRunner validates the configuration and builds a runner.
func NewRunner(cfg Config) (*Runner, error) {
	if cfg.Machine == nil {
		return nil, fmt.Errorf("campaign: nil machine")
	}
	if cfg.Compiler == nil {
		return nil, fmt.Errorf("campaign: nil compiler")
	}
	if cfg.Concurrency <= 0 {
		cfg.Concurrency = 4
	}
	return &Runner{
		cfg:   cfg,
		met:   newCampaignMetrics(cfg.Metrics.Registry()),
		dedup: NewDedupCompiler(cfg.Compiler),
	}, nil
}

// traceJob is one unit of campaign work: a trace plus where its result
// lands in the per-program report.
type traceJob struct {
	program int
	trace   *Trace
}

type traceOutcome struct {
	res     *TraceResult
	hit     bool
	err     error
	elapsed time.Duration
}

// Run compiles every program: parse → trace formation → per-trace
// manifest lookup or compile. Both phases run on a fixed pool of
// cfg.Concurrency workers (forEach), so at most that many programs
// parse, or traces compile, at once across the whole campaign. Every
// delivered schedule has been sim-verified (fresh compiles in
// ScheduleTrace, manifest hits in Lookup). Report rows follow the input
// order. Per-trace hard failures are recorded in the report and the
// first one is returned alongside it; parse failures of one program
// fail only that program.
func (r *Runner) Run(ctx context.Context, inputs []Input) (*Report, error) {
	start := time.Now()
	rep := &Report{
		Machine: r.cfg.Machine.Name, Mode: r.cfg.Mode.String(),
		Concurrency: r.cfg.Concurrency,
		Programs:    make([]ProgramReport, len(inputs)),
	}

	traces := make([][]*Trace, len(inputs))
	r.forEach(len(inputs), func(i int) {
		rep.Programs[i], traces[i] = r.parse(inputs[i])
	})
	var jobs []traceJob
	for i, ts := range traces {
		if len(rep.Programs[i].Errors) == 0 {
			r.met.programs.Inc()
		}
		for _, t := range ts {
			jobs = append(jobs, traceJob{program: i, trace: t})
		}
	}

	outcomes := make([]traceOutcome, len(jobs))
	r.forEach(len(jobs), func(i int) {
		t0 := time.Now()
		res, hit, err := r.runTrace(ctx, jobs[i].trace)
		outcomes[i] = traceOutcome{res: res, hit: hit, err: err, elapsed: time.Since(t0)}
	})

	var firstErr error
	latencies := make([]float64, 0, len(outcomes))
	for i, out := range outcomes {
		pr := &rep.Programs[jobs[i].program]
		r.met.traces.Inc()
		r.met.traceDur.Observe(out.elapsed.Microseconds())
		latencies = append(latencies, out.elapsed.Seconds())
		if out.err != nil {
			r.met.failures.Inc()
			pr.Errors = append(pr.Errors, out.err.Error())
			if firstErr == nil {
				firstErr = fmt.Errorf("campaign: trace %s: %w", jobs[i].trace.Name(), out.err)
			}
			continue
		}
		if out.hit {
			pr.ManifestHits++
			r.met.manifestHit.Inc()
		} else {
			pr.Recompiled++
			r.met.recompiled.Inc()
		}
		pr.Tuples += out.res.Tuples
		pr.ColdNOPs += out.res.ColdNOPs
		pr.BaselineNOPs += out.res.BaselineNOPs
		pr.DeliveredNOPs += out.res.DeliveredNOPs
		pr.NOPsSaved += out.res.NOPsSaved()
		pr.Optimal = pr.Optimal && out.res.Optimal
		r.met.nopsSaved.Add(int64(out.res.NOPsSaved()))
	}

	r.met.dedupHits.Add(r.dedup.Hits())
	rep.finish(latencies, time.Since(start), r.dedup)
	return rep, firstErr
}

// forEach calls fn(i) for every i in [0, n) on a fixed pool of
// cfg.Concurrency workers, each claiming the next index until none is
// left, and returns once every call has.
func (r *Runner) forEach(n int, fn func(i int)) {
	var next atomic.Int64
	var wg sync.WaitGroup
	for range min(r.cfg.Concurrency, n) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := int(next.Add(1) - 1); i < n; i = int(next.Add(1) - 1) {
				fn(i)
			}
		}()
	}
	wg.Wait()
}

// parse parses one program and forms its traces. A parse failure is the
// program's only error, and the program gets no traces.
func (r *Runner) parse(in Input) (ProgramReport, []*Trace) {
	pr := ProgramReport{Name: in.Name, Optimal: true}
	g, err := ParseProgram(in.Name, in.Source, r.cfg.Optimize)
	if err != nil {
		pr.Errors = []string{err.Error()}
		return pr, nil
	}
	traces := g.Traces()
	pr.Blocks, pr.Traces = len(g.Blocks), len(traces)
	return pr, traces
}

// runTrace serves one trace from the manifest when possible, compiling
// and recording it otherwise.
func (r *Runner) runTrace(ctx context.Context, t *Trace) (*TraceResult, bool, error) {
	if r.cfg.Manifest != nil {
		if res, ok := r.cfg.Manifest.Lookup(t, r.cfg.Machine, r.cfg.Mode); ok {
			return res, true, nil
		}
	}
	res, err := ScheduleTrace(ctx, t, r.cfg.Machine, r.cfg.Mode, r.dedup)
	if err != nil {
		return nil, false, err
	}
	if r.cfg.Manifest != nil {
		if err := r.cfg.Manifest.Record(t, res); err != nil {
			return nil, false, fmt.Errorf("manifest record: %w", err)
		}
	}
	return res, false, nil
}
