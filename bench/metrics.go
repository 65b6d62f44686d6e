package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"syscall"
	"time"

	"pipesched/internal/stats"
)

// metricDef names one reported metric and its unit.
type metricDef struct{ name, unit string }

// endToEnd is what every untraced run reports, whatever the workload: a
// metric that only some workloads had would leave the others without a
// value to compare. README.md gives each metric's meaning per workload.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"throughput_per_s", "1/s"},
	{"latency_p50_ms", "ms"},
	{"latency_tail_ms", "ms"},
	{"cold_run_ms", "ms"},
	{"optimal_share", "share"},
	{"nops_per_block", "nops/block"},
	{"ticks_per_block", "ticks/block"},
	{"peak_rss_mb", "MiB"},
}

// compileLayers are the stages of pipesched.CompileCtx in pipeline order,
// named by the package whose public function the traced replica calls.
var compileLayers = []string{
	"frontend", "tuplegen", "opt", "dag", "listsched", "core", "regalloc", "codegen", "sim",
}

// perLayer is what every traced run reports. Compile-layer times come from
// the replica, which every workload runs on the blocks it compiles. The
// service and campaign layers report shares and counts, which are 0 on the
// workloads that do not have the layer.
var perLayer = func() []metricDef {
	var defs []metricDef
	for _, l := range compileLayers {
		defs = append(defs, metricDef{l + ".ns_per_block", "ns"}, metricDef{l + ".allocs_per_block", "count"})
	}
	return append(defs,
		metricDef{"tuplegen.tuples_per_block", "tuples/block"},
		metricDef{"opt.tuples_out_share", "share"},
		metricDef{"dag.edges_per_block", "edges/block"},
		metricDef{"core.omega_per_block", "omega/block"},
		metricDef{"core.ns_per_omega", "ns"},
		metricDef{"core.memo_hit_ratio", "share"},
		metricDef{"core.curtailed_share", "share"},
		metricDef{"core.root_certified_share", "share"},
		metricDef{"regalloc.registers_per_block", "regs/block"},
		metricDef{"codegen.lines_per_block", "lines/block"},
		metricDef{"trace.overhead_share", "share"},
		metricDef{"cache.hit_share", "share"},
		metricDef{"server.dedup_share", "share"},
		metricDef{"server.fast_path_share", "share"},
		metricDef{"server.retries_per_request", "count"},
		metricDef{"server.queue_wait_share", "share"},
		metricDef{"service.overhead_share", "share"},
		metricDef{"campaign.parse_share", "share"},
		metricDef{"campaign.schedule_share", "share"},
		metricDef{"manifest.lookup_share", "share"},
		metricDef{"manifest.record_share", "share"},
		metricDef{"campaign.nops_saved_per_trace", "nops/trace"},
	)
}()

// serviceOnly and campaignOnly are the per-layer metrics of layers only
// one workload has; the other workloads report them as 0.
var (
	serviceOnly = []string{
		"server.dedup_share", "server.fast_path_share", "server.retries_per_request",
		"server.queue_wait_share", "service.overhead_share",
	}
	campaignOnly = []string{
		"campaign.parse_share", "campaign.schedule_share", "manifest.lookup_share",
		"manifest.record_share", "campaign.nops_saved_per_trace",
	}
)

func (o *outcome) zero(names []string) {
	for _, n := range names {
		o.metrics[n] = 0
	}
}

// outcome is what one workload run produced.
type outcome struct {
	attempted, failed int
	metrics           map[string]float64
	// problems lists every output that failed a correctness check; the
	// run is correct when it is empty.
	problems []string
	// report holds human-readable lines printed before the metrics.
	report []string
	// spans is the traced run's recorder, nil for an untraced run.
	spans *recorder
	// slowdown, when set, is the machine's slowdown while the metrics were
	// measured; a traced run sets it to its traced half's. Otherwise the
	// whole run's applies.
	slowdown float64
}

func newOutcome() *outcome { return &outcome{metrics: map[string]float64{}} }

func (o *outcome) notef(format string, args ...any) {
	o.report = append(o.report, fmt.Sprintf(format, args...))
}

func (o *outcome) problemf(format string, args ...any) {
	o.problems = append(o.problems, fmt.Sprintf(format, args...))
}

// write prints the report lines, one "name value unit" line per metric of
// defs, and then the JSON result line, which is always the last line.
func (o *outcome) write(w io.Writer, defs []metricDef) error {
	for _, line := range o.report {
		fmt.Fprintln(w, line)
	}
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	vals := make(map[string]value, len(defs))
	for _, d := range defs {
		v, ok := o.metrics[d.name]
		if !ok {
			return fmt.Errorf("metric %s was not measured", d.name)
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("metric %s is %v", d.name, v)
		}
		fmt.Fprintf(w, "%-32s %.6g %s\n", d.name, v, d.unit)
		vals[d.name] = value{v, d.unit}
	}
	line, err := json.Marshal(struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{len(o.problems) == 0, o.attempted, o.failed, vals})
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", line)
	return err
}

// latencies collects per-unit times in milliseconds.
type latencies []float64

func (l *latencies) add(d time.Duration) { *l = append(*l, ms(d)) }

func (l latencies) pct(p float64) float64 { return stats.Percentile(l, p) }

// setTail stores the median and the tail of l; tail is the percentile
// latency_tail_ms reports. A workload picks the highest percentile that
// keeps at least ten samples beyond it in every run: p99 where a run times
// tens of thousands of units, p95 where it times a thousand or fewer.
func (o *outcome) setTail(l latencies, tail float64) {
	o.metrics["latency_p50_ms"] = l.pct(50)
	o.metrics["latency_tail_ms"] = l.pct(tail)
	o.notef("latency percentiles over %d samples; latency_tail_ms is p%g", len(l), tail)
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// share is n/d, or 0 when there is nothing to divide by.
func share(n, d float64) float64 {
	if d == 0 {
		return 0
	}
	return n / d
}

// peakRSSMiB is the process's resident-set high-water mark (VmHWM).
func peakRSSMiB() (float64, error) {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0, fmt.Errorf("getrusage: %w", err)
	}
	return float64(ru.Maxrss) / 1024, nil // Linux reports kibibytes
}

// setupRuns is how many times a run sets its workload up. setup_s is the
// median, so a slow first set-up in a fresh process does not decide it.
const setupRuns = 5

// timeSetups builds the workload setupRuns times, releases every instance
// but the last with discard, and returns the last with the median time.
func timeSetups[T any](build func() (T, error), discard func(T)) (T, float64, error) {
	var last T
	var secs []float64
	for i := 0; i < setupRuns; i++ {
		if i > 0 && discard != nil {
			discard(last)
		}
		t0 := time.Now()
		v, err := build()
		if err != nil {
			var zero T
			return zero, 0, fmt.Errorf("setup: %w", err)
		}
		secs = append(secs, time.Since(t0).Seconds())
		last = v
	}
	return last, stats.Percentile(secs, 50), nil
}
