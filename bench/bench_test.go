package main

import (
	"bytes"
	"context"
	"encoding/json"
	"os"
	"regexp"
	"strings"
	"testing"
	"time"

	"pipesched"
)

// tinyWorkloads are the five workloads with corpora small enough that
// every mode of every workload runs in well under a second.
var tinyWorkloads = []workload{
	{"paper-sim", blockWorkload{machine: pipesched.SimulationMachine, blocks: 8, tail: 99}.run},
	{"paper-example", blockWorkload{machine: pipesched.ExampleMachine, blocks: 6, tail: 99}.run},
	{"scoreboard", blockWorkload{machine: pipesched.SimulationMachine, sched: pipesched.Scoreboard(8, 2), blocks: 4, tail: 95}.run},
	{"service", serviceWorkload{hot: 4, cycle: 64}.run},
	{"campaign", campaignWorkload{programs: 6, edits: 2}.run},
}

type declared struct {
	Workloads []struct{ Name string }       `json:"workloads"`
	EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
}

func readDeclared(t *testing.T) declared {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var d declared
	if err := json.Unmarshal(data, &d); err != nil {
		t.Fatal(err)
	}
	return d
}

// TestWorkloadsEmitDeclaredMetrics runs every workload untraced and traced
// and checks the result line: correct, and carrying every metric
// BENCHMARK.json declares for the mode, with its declared unit.
func TestWorkloadsEmitDeclaredMetrics(t *testing.T) {
	d := readDeclared(t)
	if len(d.Workloads) != len(workloads) || len(tinyWorkloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, the program %d, this test %d", len(d.Workloads), len(workloads), len(tinyWorkloads))
	}
	for i, w := range d.Workloads {
		if w.Name != workloads[i].name || w.Name != tinyWorkloads[i].name {
			t.Errorf("workload %d is %q in BENCHMARK.json, %q in the program", i, w.Name, workloads[i].name)
		}
	}
	for _, w := range tinyWorkloads {
		for _, trace := range []bool{false, true} {
			want, defs := d.EndToEnd, endToEnd
			if trace {
				want, defs = d.PerLayer, perLayer
			}
			cfg := runConfig{name: w.name, seed: 7, budget: 50 * time.Millisecond, trace: trace, workDir: t.TempDir(), probe: newProber()}
			o, err := w.run(cfg)
			if err != nil {
				t.Fatalf("%s trace=%v: %v", w.name, trace, err)
			}
			var out bytes.Buffer
			if err := o.write(&out, defs); err != nil {
				t.Fatalf("%s trace=%v: %v", w.name, trace, err)
			}
			lines := strings.Split(strings.TrimSpace(out.String()), "\n")
			var res struct {
				Correct           bool
				Attempted, Failed int
				Metrics           map[string]struct {
					Value float64
					Unit  string
				}
			}
			if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
				t.Fatalf("%s trace=%v: last line: %v", w.name, trace, err)
			}
			if !res.Correct || res.Attempted < 1 || res.Failed != 0 {
				t.Errorf("%s trace=%v: correct=%v attempted=%d failed=%d; problems %v",
					w.name, trace, res.Correct, res.Attempted, res.Failed, o.problems)
			}
			if len(res.Metrics) != len(want) {
				t.Errorf("%s trace=%v: %d metrics, BENCHMARK.json declares %d", w.name, trace, len(res.Metrics), len(want))
			}
			for _, m := range want {
				if got, ok := res.Metrics[m.Name]; !ok || got.Unit != m.Unit {
					t.Errorf("%s trace=%v: metric %s = %+v, declared unit %q", w.name, trace, m.Name, got, m.Unit)
				}
			}
		}
	}
}

func TestNames(t *testing.T) {
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	for _, w := range workloads {
		if !name.MatchString(w.name) || seen[w.name] {
			t.Errorf("workload name %q is malformed or repeated", w.name)
		}
		seen[w.name] = true
	}
	for _, m := range append(append([]metricDef{}, endToEnd...), perLayer...) {
		if !name.MatchString(m.name) || seen[m.name] {
			t.Errorf("metric name %q is malformed or repeated", m.name)
		}
		seen[m.name] = true
		if !unit.MatchString(m.unit) {
			t.Errorf("metric %s has malformed unit %q", m.name, m.unit)
		}
	}
}

// TestReplicaMatchesCompileCtx compares the traced replica with CompileCtx
// on a few blocks per machine and scheduler mode.
func TestReplicaMatchesCompileCtx(t *testing.T) {
	srcs, err := blockCorpus(blockCorpusSeed, 6)
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range []*pipesched.Machine{pipesched.SimulationMachine(), pipesched.ExampleMachine()} {
		for _, sched := range []pipesched.SchedMode{{}, pipesched.Scoreboard(8, 2)} {
			rp := replica{m: m, sched: sched, optimize: true}
			for i, src := range srcs {
				c, err := pipesched.CompileCtx(context.Background(), src, m, pipesched.Options{Optimize: true, Sched: sched})
				if c == nil {
					t.Fatalf("%s %s block %d: %v", m.Name, sched, i, err)
				}
				s, err := rp.fromSource(newRecorder(), "u", -1, src)
				if err != nil {
					t.Fatalf("%s %s block %d: replica: %v", m.Name, sched, i, err)
				}
				if err := sameAsReplica(c, s); err != nil {
					t.Errorf("%s %s block %d: %v", m.Name, sched, i, err)
				}
			}
		}
	}
}

// TestCheckerCatchesWrongAssembly plants wrong outputs in front of the
// value check.
func TestCheckerCatchesWrongAssembly(t *testing.T) {
	const src = "a = b + c\nd = a * b\n"
	c, err := pipesched.Compile(src, pipesched.SimulationMachine(), pipesched.Options{Optimize: true})
	if err != nil {
		t.Fatal(err)
	}
	env := map[string]int64{"b": 3, "c": 4}
	if ok, err := checkSemantics(src, c.Assembly, env); !ok || err != nil {
		t.Fatalf("the compiler's own assembly: checked=%v err=%v\n%s", ok, err, c.Assembly)
	}
	for name, wrong := range map[string]string{
		"operator":      strings.Replace(c.Assembly, "ADD", "SUB", 1),
		"missing store": strings.Replace(c.Assembly, "STORE d", "NOP ;", 1),
		"garbage":       c.Assembly + "\n\tFROB R9\n",
	} {
		if wrong == c.Assembly {
			t.Fatalf("%s: corruption did not change the assembly", name)
		}
		if ok, err := checkSemantics(src, wrong, env); !ok || err == nil {
			t.Errorf("%s: corrupted assembly passed the check (checked=%v)\n%s", name, ok, wrong)
		}
	}
	// A source whose reference evaluation fails is unchecked, not wrong.
	if ok, err := checkSemantics("a = b / c\n", c.Assembly, map[string]int64{"b": 1, "c": 0}); ok || err != nil {
		t.Errorf("division by zero in the reference: checked=%v err=%v", ok, err)
	}
}

func TestUsage(t *testing.T) {
	for _, args := range [][]string{{}, {"-workload", "nope"}, {"-workload", "paper-sim", "-trace", "2"}} {
		var out, errOut bytes.Buffer
		if code := run(args, &out, &errOut); code != 2 || out.Len() != 0 {
			t.Errorf("run(%q) = %d with stdout %q, want 2 and no result", args, code, out.String())
		}
	}
}
