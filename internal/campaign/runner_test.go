package campaign

import (
	"context"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"pipesched/internal/machine"
	"pipesched/internal/synth"
)

func synthInputs(t *testing.T, seed int64, n int) []Input {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	var inputs []Input
	for i := 0; i < n; i++ {
		p, err := synth.GenerateProgram(rng, synth.ProgramParams{
			Blocks: 3 + rng.Intn(4), BlockStatements: 3,
			Variables: 5, Constants: 3, BranchPercent: 30,
		})
		if err != nil {
			t.Fatal(err)
		}
		inputs = append(inputs, Input{Name: string(rune('a'+i)) + ".psrc", Source: p.Source})
	}
	return inputs
}

func newTestRunner(t *testing.T, mf *Manifest) *Runner {
	t.Helper()
	m := machine.SimulationMachine()
	mode := machine.SchedMode{}
	r, err := NewRunner(Config{
		Machine: m, Mode: mode, Manifest: mf,
		Compiler: localCompiler(m, mode), Concurrency: 4,
	})
	if err != nil {
		t.Fatal(err)
	}
	return r
}

// pinnedCorpus is the campaign corpus whose runs
// TestRunnerColdThenFullyIncremental pins exactly: seed 7, twelve
// programs of 2–6 blocks, each block 4 statements over 6 variables and
// 4 constants, 30% of blocks branching.
func pinnedCorpus(t *testing.T) []Input {
	t.Helper()
	rng := rand.New(rand.NewSource(7))
	var inputs []Input
	for i := 0; i < 12; i++ {
		p, err := synth.GenerateProgram(rng, synth.ProgramParams{
			Blocks: 2 + rng.Intn(5), BlockStatements: 4,
			Variables: 6, Constants: 4, BranchPercent: 30,
		})
		if err != nil {
			t.Fatal(err)
		}
		inputs = append(inputs, Input{Name: fmt.Sprintf("p%02d.psrc", i), Source: p.Source})
	}
	return inputs
}

// runnerPin is the exact outcome of a corpus's cold run, its warm re-run
// and a run after a one-line edit to its first program.
type runnerPin struct {
	traces, baselineNOPs, deliveredNOPs int
	editHits, editRecompiled            int
}

func TestRunnerColdThenFullyIncremental(t *testing.T) {
	for _, c := range []struct {
		name   string
		inputs []Input
		pin    runnerPin
	}{
		{"synth-21", synthInputs(t, 21, 4), runnerPin{traces: 7, baselineNOPs: 14, deliveredNOPs: 4, editHits: 6, editRecompiled: 1}},
		{"pinned-7", pinnedCorpus(t), runnerPin{traces: 19, baselineNOPs: 46, deliveredNOPs: 9, editHits: 18, editRecompiled: 1}},
	} {
		t.Run(c.name, func(t *testing.T) {
			mf := openTestManifest(t, machine.SchedMode{})
			cold, err := newTestRunner(t, mf).Run(context.Background(), c.inputs)
			if err != nil {
				t.Fatal(err)
			}
			if cold.Failed > 0 {
				t.Fatalf("cold run failed traces: %+v", cold.Programs)
			}
			if cold.ManifestHits != 0 || cold.Recompiled != cold.TotalTraces {
				t.Fatalf("cold run: %d hits / %d recompiled of %d traces", cold.ManifestHits, cold.Recompiled, cold.TotalTraces)
			}
			if cold.TotalTraces != c.pin.traces || cold.BaselineNOPs != c.pin.baselineNOPs || cold.DeliveredNOPs != c.pin.deliveredNOPs {
				t.Errorf("cold run: %d traces, %d baseline → %d delivered NOPs; want %d traces, %d → %d",
					cold.TotalTraces, cold.BaselineNOPs, cold.DeliveredNOPs, c.pin.traces, c.pin.baselineNOPs, c.pin.deliveredNOPs)
			}

			// Second run, untouched sources: everything is a manifest hit. A
			// fresh runner proves the state is durable, not in-memory.
			warm, err := newTestRunner(t, mf).Run(context.Background(), c.inputs)
			if err != nil {
				t.Fatal(err)
			}
			if warm.ManifestHits != c.pin.traces || warm.IncrementalRate != 1.0 {
				t.Errorf("warm run: %d hits / %d recompiled, want all %d traces to hit",
					warm.ManifestHits, warm.Recompiled, c.pin.traces)
			}
			if warm.DeliveredNOPs != cold.DeliveredNOPs {
				t.Errorf("warm delivered %d NOPs, cold %d — manifest changed the answer", warm.DeliveredNOPs, cold.DeliveredNOPs)
			}

			// A one-line edit to the first program dirties only its traces.
			edited := append([]Input(nil), c.inputs...)
			edited[0].Source = strings.Replace(edited[0].Source, "= ", "= 98765 + ", 1)
			incr, err := newTestRunner(t, mf).Run(context.Background(), edited)
			if err != nil {
				t.Fatal(err)
			}
			if incr.ManifestHits != c.pin.editHits || incr.Recompiled != c.pin.editRecompiled {
				t.Errorf("edited run: %d hits / %d recompiled, want %d / %d",
					incr.ManifestHits, incr.Recompiled, c.pin.editHits, c.pin.editRecompiled)
			}
		})
	}
}

func TestRunnerRecompilesOnlyDirtyTraces(t *testing.T) {
	mf := openTestManifest(t, machine.SchedMode{})
	// A straight-line program merges into ONE trace; editing any block
	// dirties it. Use a branchy program so there are several traces and
	// the edit provably leaves the others warm.
	src := `
block entry -> left, right { x = 1 }
block left -> join { y = x + 2 }
block right -> join { y = x * 3 }
block join { z = y + y }
`
	inputs := []Input{{Name: "p.psrc", Source: src}}
	cold, err := newTestRunner(t, mf).Run(context.Background(), inputs)
	if err != nil {
		t.Fatal(err)
	}
	if cold.TotalTraces != 4 {
		t.Fatalf("expected 4 traces, got %d", cold.TotalTraces)
	}

	// One-line edit to block left.
	edited := []Input{{Name: "p.psrc", Source: strings.Replace(src, "y = x + 2", "y = x + 7", 1)}}
	incr, err := newTestRunner(t, mf).Run(context.Background(), edited)
	if err != nil {
		t.Fatal(err)
	}
	if incr.Recompiled != 1 {
		t.Errorf("one-line edit recompiled %d traces, want exactly 1", incr.Recompiled)
	}
	if incr.ManifestHits != 3 {
		t.Errorf("one-line edit hit %d traces, want 3", incr.ManifestHits)
	}
}

func TestRunnerDedupsAcrossPrograms(t *testing.T) {
	// Two programs with an identical block (different names): the
	// campaign-level dedup collapses the compiles.
	inputs := []Input{
		{Name: "p1.psrc", Source: "block a { x = p * q }\n"},
		{Name: "p2.psrc", Source: "block z { x = p * q }\n"},
	}
	r := newTestRunner(t, nil)
	rep, err := r.Run(context.Background(), inputs)
	if err != nil {
		t.Fatal(err)
	}
	if rep.DedupHits < 1 {
		t.Errorf("identical blocks across programs: dedup hits = %d, want >= 1", rep.DedupHits)
	}
	if rep.TotalPrograms != 2 || rep.TotalTraces != 2 {
		t.Errorf("report shape: %+v", rep)
	}
}

func TestRunnerParseFailureIsolatedToProgram(t *testing.T) {
	// Failing programs first, in the middle and last, parsed by four
	// workers: every row stays at its input's position, each failure is
	// counted once, and the good programs report exactly what they do
	// in a campaign of their own.
	good := synthInputs(t, 3, 5)
	bad := []Input{
		{Name: "bad-target.psrc", Source: "block a -> nosuch { x = 1 }"},
		{Name: "bad-syntax.psrc", Source: "a = = ;"},
		{Name: "bad-block.psrc", Source: "block a { x = p + q }\nblock a { y = 1 }"},
	}
	inputs := []Input{bad[0], good[0], good[1], bad[1], good[2], good[3], good[4], bad[2]}
	rep, err := newTestRunner(t, nil).Run(context.Background(), inputs)
	if err != nil {
		t.Fatalf("parse failure must not fail the campaign: %v", err)
	}
	alone, err := newTestRunner(t, nil).Run(context.Background(), good)
	if err != nil || alone.Failed != 0 {
		t.Fatalf("good programs alone: %v, %d failed", err, alone.Failed)
	}
	if len(rep.Programs) != len(inputs) {
		t.Fatalf("%d report rows for %d programs", len(rep.Programs), len(inputs))
	}
	g := 0
	for i, pr := range rep.Programs {
		if pr.Name != inputs[i].Name {
			t.Errorf("row %d is %q, want %q: rows out of input order", i, pr.Name, inputs[i].Name)
		}
		if strings.HasPrefix(pr.Name, "bad") {
			if len(pr.Errors) != 1 || pr.Traces != 0 {
				t.Errorf("bad program %s: %d errors, %d traces; want 1 error, no traces", pr.Name, len(pr.Errors), pr.Traces)
			}
			continue
		}
		if !reflect.DeepEqual(pr, alone.Programs[g]) {
			t.Errorf("good program damaged by its neighbours:\n got %+v\nwant %+v", pr, alone.Programs[g])
		}
		g++
	}
	if rep.Failed != len(bad) {
		t.Errorf("aggregate Failed = %d, want %d", rep.Failed, len(bad))
	}
	if rep.TotalTraces != alone.TotalTraces || rep.DeliveredNOPs != alone.DeliveredNOPs {
		t.Errorf("totals %d traces / %d NOPs, want the good programs' %d / %d",
			rep.TotalTraces, rep.DeliveredNOPs, alone.TotalTraces, alone.DeliveredNOPs)
	}
}

func TestLoadDir(t *testing.T) {
	dir := t.TempDir()
	sub := filepath.Join(dir, "sub")
	if err := os.MkdirAll(sub, 0o755); err != nil {
		t.Fatal(err)
	}
	files := map[string]string{
		filepath.Join(dir, "b.psrc"):  "block b { x = 1 }",
		filepath.Join(dir, "a.psrc"):  "block a { x = 1 }",
		filepath.Join(sub, "c.psrc"):  "block c { x = 1 }",
		filepath.Join(dir, "no.txt"):  "not a program",
		filepath.Join(dir, "also.go"): "package nope",
	}
	for path, content := range files {
		if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	inputs, err := LoadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(inputs) != 3 {
		t.Fatalf("loaded %d inputs, want 3", len(inputs))
	}
	if !strings.HasSuffix(inputs[0].Name, "a.psrc") {
		t.Errorf("inputs not sorted: %q first", inputs[0].Name)
	}
	if _, err := LoadDir(t.TempDir()); err == nil {
		t.Error("empty dir should error")
	}
}

func TestRunnerReportTable(t *testing.T) {
	rep, err := newTestRunner(t, nil).Run(context.Background(), synthInputs(t, 5, 2))
	if err != nil {
		t.Fatal(err)
	}
	table := rep.Table()
	for _, want := range []string{"campaign:", "totals:", "incremental:", "latency:"} {
		if !strings.Contains(table, want) {
			t.Errorf("table missing %q:\n%s", want, table)
		}
	}
}
