package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"pipesched"
)

func TestPickMachinePresets(t *testing.T) {
	for _, preset := range []string{"simulation", "example", "unpipelined", "deep", "r3000", "m88k", "carp"} {
		m, err := pickMachine(preset, "")
		if err != nil {
			t.Errorf("preset %q: %v", preset, err)
			continue
		}
		if len(m.Pipelines) == 0 {
			t.Errorf("preset %q: empty machine", preset)
		}
	}
	if _, err := pickMachine("bogus", ""); err == nil {
		t.Error("unknown preset accepted")
	}
}

func TestPickMachineFromFile(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "m.txt")
	if err := os.WriteFile(path, []byte(pipesched.SimulationMachine().String()), 0o644); err != nil {
		t.Fatal(err)
	}
	m, err := pickMachine("ignored", path)
	if err != nil {
		t.Fatal(err)
	}
	if m.Name != "paper-simulation" {
		t.Errorf("loaded machine %q", m.Name)
	}
	if _, err := pickMachine("", filepath.Join(dir, "missing.txt")); err == nil {
		t.Error("missing machine file accepted")
	}
	bad := filepath.Join(dir, "bad.txt")
	if err := os.WriteFile(bad, []byte("pipe x nonsense"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := pickMachine("", bad); err == nil {
		t.Error("malformed machine file accepted")
	}
}

func TestPickMode(t *testing.T) {
	cases := map[string]pipesched.DelayMode{
		"nop":      pipesched.NOPPadding,
		"explicit": pipesched.ExplicitInterlock,
		"implicit": pipesched.ImplicitInterlock,
	}
	for name, want := range cases {
		got, err := pickMode(name)
		if err != nil || got != want {
			t.Errorf("pickMode(%q) = %v, %v", name, got, err)
		}
	}
	if _, err := pickMode("hardware"); err == nil {
		t.Error("unknown mode accepted")
	}
}

func TestReadInput(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "in.src")
	if err := os.WriteFile(path, []byte("a = b"), 0o644); err != nil {
		t.Fatal(err)
	}
	got, err := readInput([]string{path})
	if err != nil || got != "a = b" {
		t.Errorf("readInput = %q, %v", got, err)
	}
	if _, err := readInput([]string{path, path}); err == nil {
		t.Error("two input files accepted")
	}
	if _, err := readInput([]string{filepath.Join(dir, "nope")}); err == nil {
		t.Error("missing input accepted")
	}
}

// chainSource is a multiply chain whose optimal schedule cannot reach
// zero NOPs, so curtailment and deadlines genuinely interrupt the search.
func chainSource() string {
	var sb strings.Builder
	sb.WriteString("a = x * y\n")
	for i := 0; i < 8; i++ {
		sb.WriteString("a = a * y")
		sb.WriteByte(byte('0' + i))
		sb.WriteByte('\n')
	}
	return sb.String()
}

// TestRunExitCodes covers the driver's three-way exit status: 0 optimal,
// 2 degraded-but-legal, 1 hard failure.
func TestRunExitCodes(t *testing.T) {
	dir := t.TempDir()
	tiny := filepath.Join(dir, "tiny.src")
	if err := os.WriteFile(tiny, []byte("a = b * c\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	src := filepath.Join(dir, "in.src")
	if err := os.WriteFile(src, []byte(chainSource()), 0o644); err != nil {
		t.Fatal(err)
	}
	bad := filepath.Join(dir, "bad.src")
	if err := os.WriteFile(bad, []byte("a = = ;;"), 0o644); err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name    string
		args    []string
		want    int
		wantAsm bool
	}{
		{"optimal", []string{tiny}, 0, true},
		{"curtailed", []string{"-lambda", "10", src}, 2, true},
		{"timeout", []string{"-timeout", "1ns", "-lambda", "-1", src}, 2, true},
		{"hard-failure", []string{bad}, 1, false},
		{"bad-flag", []string{"-no-such-flag"}, 1, false},
		{"bad-preset", []string{"-preset", "bogus", src}, 1, false},
		// -prove turns an unproven degraded result into exit 3 but
		// leaves proven-optimal compiles at 0.
		{"prove-unproven", []string{"-prove", "-lambda", "10", src}, 3, true},
		{"prove-optimal", []string{"-prove", tiny}, 0, true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var stdout, stderr bytes.Buffer
			got := run(tc.args, &stdout, &stderr)
			if got != tc.want {
				t.Errorf("run(%v) = %d, want %d (stderr: %s)", tc.args, got, tc.want, stderr.String())
			}
			if tc.wantAsm && stdout.Len() == 0 {
				t.Errorf("run(%v) emitted no assembly", tc.args)
			}
			if tc.want == 2 && !strings.Contains(stderr.String(), "degraded") {
				t.Errorf("degraded exit should explain itself on stderr, got: %s", stderr.String())
			}
			if tc.want == 3 && !strings.Contains(stderr.String(), "no optimality certificate") {
				t.Errorf("-prove exit should name the missing certificate, got: %s", stderr.String())
			}
		})
	}
}

// TestRunStatsShowsQuality checks the stats line carries the ladder rung.
func TestRunStatsShowsQuality(t *testing.T) {
	dir := t.TempDir()
	src := filepath.Join(dir, "in.src")
	if err := os.WriteFile(src, []byte(chainSource()), 0o644); err != nil {
		t.Fatal(err)
	}
	var stdout, stderr bytes.Buffer
	if got := run([]string{"-stats", "-lambda", "10", src}, &stdout, &stderr); got != 2 {
		t.Fatalf("exit = %d, want 2", got)
	}
	if !strings.Contains(stderr.String(), "quality=incumbent") {
		t.Errorf("stats line missing quality rung: %s", stderr.String())
	}
}

// TestDriverPathways exercises the compile paths the CLI wires together,
// without flag plumbing.
func TestDriverPathways(t *testing.T) {
	m, err := pickMachine("simulation", "")
	if err != nil {
		t.Fatal(err)
	}
	mode, err := pickMode("explicit")
	if err != nil {
		t.Fatal(err)
	}
	c, err := pipesched.Compile("a = b * c", m, pipesched.Options{Mode: mode, Optimize: true})
	if err != nil {
		t.Fatal(err)
	}
	if c.Assembly == "" {
		t.Error("driver produced no assembly")
	}
	// Tuple-input path.
	block, err := pipesched.ParseBlock("1: Load #x\n2: Store #y, @1\n")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := pipesched.Schedule(block, m, pipesched.Options{}); err != nil {
		t.Fatal(err)
	}
}

// TestRunStatsBreakdown checks the extended -stats output: the per-prune
// breakdown line always, and the degradation reason when not optimal.
func TestRunStatsBreakdown(t *testing.T) {
	dir := t.TempDir()
	src := filepath.Join(dir, "in.src")
	if err := os.WriteFile(src, []byte(chainSource()), 0o644); err != nil {
		t.Fatal(err)
	}
	var stdout, stderr bytes.Buffer
	if got := run([]string{"-stats", "-lambda", "10", src}, &stdout, &stderr); got != 2 {
		t.Fatalf("exit = %d, want 2 (stderr: %s)", got, stderr.String())
	}
	out := stderr.String()
	if !strings.Contains(out, "reason=ErrCurtailed") {
		t.Errorf("stats missing degradation reason: %s", out)
	}
	if !strings.Contains(out, "pruned: bounds=") || !strings.Contains(out, "alphabeta=") {
		t.Errorf("stats missing prune breakdown: %s", out)
	}
	if !strings.Contains(out, "resource=") || !strings.Contains(out, "memo=") {
		t.Errorf("stats missing bound-engine prune classes: %s", out)
	}
	if !strings.Contains(out, "gap=") || !strings.Contains(out, "root-lb=") {
		t.Errorf("stats missing optimality-gap line: %s", out)
	}
	if !strings.Contains(out, "stages: ") {
		t.Errorf("stats missing per-stage timings: %s", out)
	}
	// An optimal compile must not print a reason.
	stdout.Reset()
	stderr.Reset()
	tiny := filepath.Join(dir, "tiny.src")
	if err := os.WriteFile(tiny, []byte("a = b * c\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if got := run([]string{"-stats", tiny}, &stdout, &stderr); got != 0 {
		t.Fatalf("exit = %d, want 0", got)
	}
	if strings.Contains(stderr.String(), "reason=") {
		t.Errorf("optimal compile printed a degradation reason: %s", stderr.String())
	}
}

// TestRunTraceOut checks -trace-out writes the compile's request trace
// as loadable Chrome trace JSON: a stage:search slice with the search
// events as worker-tagged instants inside it, sequential and with a
// parallel search.
func TestRunTraceOut(t *testing.T) {
	dir := t.TempDir()
	src := filepath.Join(dir, "in.src")
	if err := os.WriteFile(src, []byte(chainSource()), 0o644); err != nil {
		t.Fatal(err)
	}
	for _, workers := range []string{"1", "4"} {
		out := filepath.Join(dir, "trace"+workers+".json")
		var stdout, stderr bytes.Buffer
		// chainSource may curtail under the default λ (exit 2); the trace
		// is written either way.
		if got := run([]string{"-trace-out", out, "-workers", workers, src}, &stdout, &stderr); got == 1 {
			t.Fatalf("workers=%s: exit = %d (stderr: %s)", workers, got, stderr.String())
		}
		data, err := os.ReadFile(out)
		if err != nil {
			t.Fatal(err)
		}
		var parsed struct {
			TraceEvents []struct {
				Name string         `json:"name"`
				Ph   string         `json:"ph"`
				Ts   int64          `json:"ts"`
				Dur  int64          `json:"dur"`
				Args map[string]any `json:"args"`
			} `json:"traceEvents"`
		}
		if err := json.Unmarshal(data, &parsed); err != nil {
			t.Fatalf("workers=%s: trace file not JSON: %v", workers, err)
		}
		var searchTs, searchEnd int64 = -1, -1
		for _, ev := range parsed.TraceEvents {
			if ev.Name == "stage:search" && ev.Ph == "X" {
				searchTs, searchEnd = ev.Ts, ev.Ts+ev.Dur
			}
		}
		if searchTs < 0 {
			t.Fatalf("workers=%s: no stage:search slice", workers)
		}
		instants := 0
		for _, ev := range parsed.TraceEvents {
			if ev.Ph != "i" || ev.Args["depth"] == nil {
				continue
			}
			instants++
			if ev.Args["worker"] == nil {
				t.Fatalf("workers=%s: search instant %s lacks its worker", workers, ev.Name)
			}
			if ev.Ts < searchTs || ev.Ts > searchEnd {
				t.Fatalf("workers=%s: search instant %s at %d outside stage:search [%d, %d]",
					workers, ev.Name, ev.Ts, searchTs, searchEnd)
			}
		}
		if instants == 0 {
			t.Errorf("workers=%s: no search instants", workers)
		}
	}
}

// TestRunStatsJSON checks -stats-json emits one JSON object per event.
func TestRunStatsJSON(t *testing.T) {
	dir := t.TempDir()
	src := filepath.Join(dir, "in.src")
	if err := os.WriteFile(src, []byte("a = b * c\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	out := filepath.Join(dir, "events.jsonl")
	var stdout, stderr bytes.Buffer
	if got := run([]string{"-stats-json", out, src}, &stdout, &stderr); got != 0 {
		t.Fatalf("exit = %d (stderr: %s)", got, stderr.String())
	}
	data, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	kinds := map[string]int{}
	for _, line := range strings.Split(strings.TrimSpace(string(data)), "\n") {
		var e struct {
			Kind string `json:"kind"`
		}
		if err := json.Unmarshal([]byte(line), &e); err != nil {
			t.Fatalf("bad JSONL line %q: %v", line, err)
		}
		kinds[e.Kind]++
	}
	if kinds["span"] == 0 || kinds["compile"] == 0 || kinds["search"] == 0 {
		t.Errorf("event kinds = %v, want span+search+compile", kinds)
	}
}

// TestRunMetricsAddr checks -metrics-addr binds and announces itself.
func TestRunMetricsAddr(t *testing.T) {
	dir := t.TempDir()
	src := filepath.Join(dir, "in.src")
	if err := os.WriteFile(src, []byte("a = b * c\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	var stdout, stderr bytes.Buffer
	if got := run([]string{"-metrics-addr", "127.0.0.1:0", src}, &stdout, &stderr); got != 0 {
		t.Fatalf("exit = %d (stderr: %s)", got, stderr.String())
	}
	if !strings.Contains(stderr.String(), "telemetry: serving http://127.0.0.1:") {
		t.Errorf("no bound-address announcement: %s", stderr.String())
	}
}
