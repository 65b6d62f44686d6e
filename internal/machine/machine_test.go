package machine

import (
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"runtime"
	"slices"
	"strings"
	"sync"
	"testing"

	"pipesched/internal/ir"
)

func TestSimulationMachineMatchesPaperTable4(t *testing.T) {
	m := SimulationMachine()
	// Paper Table 4 (legible rows): loader latency 2 / enqueue 1,
	// multiplier latency 4 / enqueue 2.
	ld := m.Pipeline(m.PipelineFor(ir.Load))
	if ld == nil || ld.Latency != 2 || ld.Enqueue != 1 {
		t.Errorf("loader = %v, want latency 2 enqueue 1", ld)
	}
	mul := m.Pipeline(m.PipelineFor(ir.Mul))
	if mul == nil || mul.Latency != 4 || mul.Enqueue != 2 {
		t.Errorf("multiplier = %v, want latency 4 enqueue 2", mul)
	}
	// Single pipeline per function: no assignment choice.
	if hasAssignmentChoice(m) {
		t.Error("simulation machine should have singleton op→pipeline sets")
	}
	// Const and Store use no pipeline (σ = ∅).
	if m.PipelineFor(ir.Const) != NoPipeline || m.PipelineFor(ir.Store) != NoPipeline {
		t.Error("Const/Store must map to NoPipeline")
	}
	// Add and Sub share the single adder.
	if m.PipelineFor(ir.Add) != m.PipelineFor(ir.Sub) {
		t.Error("Add and Sub must share the adder pipeline")
	}
}

func TestExampleMachineMatchesPaperTables2And3(t *testing.T) {
	m := ExampleMachine()
	if len(m.Pipelines) != 5 {
		t.Fatalf("example machine has %d pipelines, want 5", len(m.Pipelines))
	}
	// Table 2: loaders lat 2/enq 1, adders lat 4/enq 3, multiplier lat 4/enq 2.
	wants := map[int][2]int{1: {2, 1}, 2: {2, 1}, 3: {4, 3}, 4: {4, 3}, 5: {4, 2}}
	for id, le := range wants {
		p := m.Pipeline(id)
		if p == nil || p.Latency != le[0] || p.Enqueue != le[1] {
			t.Errorf("pipeline %d = %v, want latency %d enqueue %d", id, p, le[0], le[1])
		}
	}
	// Table 3: Load→{1,2}, Add/Sub→{3,4}, Mul/Div→{5}.
	check := func(op ir.Op, want ...int) {
		got := m.PipelinesFor(op)
		if len(got) != len(want) {
			t.Errorf("%s -> %v, want %v", op, got, want)
			return
		}
		for i := range want {
			if got[i] != want[i] {
				t.Errorf("%s -> %v, want %v", op, got, want)
				return
			}
		}
	}
	check(ir.Load, 1, 2)
	check(ir.Add, 3, 4)
	check(ir.Sub, 3, 4)
	check(ir.Mul, 5)
	check(ir.Div, 5)
	if !hasAssignmentChoice(m) {
		t.Error("example machine must offer assignment choice")
	}
}

func TestUnpipelinedMachineEnqueueEqualsLatency(t *testing.T) {
	m := UnpipelinedMachine()
	for _, p := range m.Pipelines {
		if p.Enqueue != p.Latency {
			t.Errorf("pipeline %v: unpipelined units need enqueue == latency", p)
		}
	}
}

func TestLatencyAndEnqueueLookups(t *testing.T) {
	m := SimulationMachine()
	if m.Latency(NoPipeline) != 0 || m.EnqueueTime(NoPipeline) != 0 {
		t.Error("NoPipeline must have zero latency and enqueue time")
	}
	if m.Latency(99) != 0 {
		t.Error("unknown pipeline must report zero latency")
	}
	id := m.PipelineFor(ir.Mul)
	if m.Latency(id) != 4 || m.EnqueueTime(id) != 2 {
		t.Errorf("multiplier lookups wrong: lat=%d enq=%d", m.Latency(id), m.EnqueueTime(id))
	}
	if m.MaxLatency() != 4 {
		t.Errorf("MaxLatency = %d, want 4", m.MaxLatency())
	}
}

func TestValidateRejections(t *testing.T) {
	cases := []struct {
		name  string
		pipes []Pipeline
		opMap map[ir.Op][]int
	}{
		{"dup id", []Pipeline{{Function: "a", ID: 1, Latency: 1, Enqueue: 1}, {Function: "b", ID: 1, Latency: 1, Enqueue: 1}}, nil},
		{"zero id", []Pipeline{{Function: "a", ID: 0, Latency: 1, Enqueue: 1}}, nil},
		{"zero latency", []Pipeline{{Function: "a", ID: 1, Latency: 0, Enqueue: 1}}, nil},
		{"zero enqueue", []Pipeline{{Function: "a", ID: 1, Latency: 2, Enqueue: 0}}, nil},
		{"enqueue > latency", []Pipeline{{Function: "a", ID: 1, Latency: 2, Enqueue: 3}}, nil},
		{"unknown pipe in map", []Pipeline{{Function: "a", ID: 1, Latency: 2, Enqueue: 1}},
			map[ir.Op][]int{ir.Load: {7}}},
		{"invalid op in map", []Pipeline{{Function: "a", ID: 1, Latency: 2, Enqueue: 1}},
			map[ir.Op][]int{ir.Invalid: {1}}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			_, err := New("bad", c.pipes, c.opMap)
			if err == nil {
				t.Fatalf("New accepted %s", c.name)
			}
			if !errors.Is(err, ErrInvalid) {
				t.Errorf("%s: error %v does not wrap ErrInvalid", c.name, err)
			}
		})
	}
}

// TestErrInvalidClassification pins the ErrInvalid taxonomy: every way a
// machine description can be structurally wrong — including an empty
// pipeline table and parse-level violations — classifies with errors.Is.
func TestErrInvalidClassification(t *testing.T) {
	if _, err := New("empty", nil, nil); !errors.Is(err, ErrInvalid) {
		t.Errorf("empty pipeline table: err = %v, want ErrInvalid", err)
	}
	bad := []string{
		"machine x\npipe 1 loader latency=0 enqueue=1\n",
		"machine x\npipe 1 loader latency=2 enqueue=0\n",
		"machine x\npipe 1 loader latency=2 enqueue=1\nop Load -> {9}\n",
		"machine x\n", // no pipelines at all
	}
	for _, src := range bad {
		if _, err := ParseString(src); !errors.Is(err, ErrInvalid) {
			t.Errorf("ParseString(%q): err = %v, want ErrInvalid", src, err)
		}
	}
	if _, err := ParseString(SimulationMachine().String()); err != nil {
		t.Errorf("valid machine rejected: %v", err)
	}
}

func TestParseRoundTrip(t *testing.T) {
	for _, m := range []*Machine{SimulationMachine(), ExampleMachine(), UnpipelinedMachine(), DeepMachine()} {
		parsed, err := ParseString(m.String())
		if err != nil {
			t.Fatalf("%s: ParseString: %v", m.Name, err)
		}
		if parsed.String() != m.String() {
			t.Errorf("%s round trip mismatch:\n%s\nvs\n%s", m.Name, parsed.String(), m.String())
		}
	}
}

func TestParseWithCommentsAndBlanks(t *testing.T) {
	src := `
; comment
machine demo

// another
pipe 1 loader latency=3 enqueue=1
op Load -> {1}
`
	m, err := ParseString(src)
	if err != nil {
		t.Fatalf("ParseString: %v", err)
	}
	if m.Name != "demo" || m.Latency(1) != 3 {
		t.Errorf("parsed wrong machine: %s", m)
	}
}

func TestParseErrors(t *testing.T) {
	bad := []string{
		"bogus directive",
		"machine",
		"pipe x loader latency=1 enqueue=1",
		"pipe 1 loader latency=1",
		"pipe 1 loader latency=a enqueue=1",
		"pipe 1 loader depth=1 enqueue=1",
		"pipe 1 loader latency enqueue=1",
		"op Load {1}",
		"op Bogus -> {1}",
		"op Load -> {x}",
		"machine m\npipe 1 loader latency=2 enqueue=1\nop Load -> {9}",
	}
	for _, s := range bad {
		if _, err := ParseString(s); err == nil {
			t.Errorf("ParseString(%q) succeeded, want error", s)
		}
	}
}

func TestStringContainsTables(t *testing.T) {
	s := ExampleMachine().String()
	for _, want := range []string{"machine paper-example", "pipe 5 multiplier latency=4 enqueue=2", "op Load -> {1,2}"} {
		if !strings.Contains(s, want) {
			t.Errorf("String() missing %q:\n%s", want, s)
		}
	}
}

func TestPipelineLookupUnknown(t *testing.T) {
	m := SimulationMachine()
	if m.Pipeline(NoPipeline) != nil {
		t.Error("Pipeline(NoPipeline) must be nil")
	}
	if m.Pipeline(42) != nil {
		t.Error("Pipeline(42) must be nil")
	}
}

func TestJSONRoundTrip(t *testing.T) {
	for name, mk := range Presets() {
		m := mk()
		data, err := json.Marshal(m)
		if err != nil {
			t.Fatalf("%s: marshal: %v", name, err)
		}
		back, err := ParseJSON(data)
		if err != nil {
			t.Fatalf("%s: unmarshal: %v", name, err)
		}
		if back.String() != m.String() {
			t.Errorf("%s: JSON round trip changed machine:\n%s\nvs\n%s", name, back, m)
		}
	}
}

func TestJSONRejectsInvalid(t *testing.T) {
	bad := []string{
		`{`, // malformed
		`{"name":"x","pipelines":[{"Function":"a","ID":1,"Latency":0,"Enqueue":1}],"ops":{}}`,
		`{"name":"x","pipelines":[],"ops":{"Bogus":[1]}}`,
		`{"name":"x","pipelines":[{"Function":"a","ID":1,"Latency":2,"Enqueue":1}],"ops":{"Load":[9]}}`,
	}
	for _, s := range bad {
		if _, err := ParseJSON([]byte(s)); err == nil {
			t.Errorf("ParseJSON(%q) succeeded, want error", s)
		}
	}
}

func TestJSONEditable(t *testing.T) {
	// A hand-written JSON machine loads correctly.
	src := `{
		"name": "handmade",
		"pipelines": [
			{"Function": "loader", "ID": 1, "Latency": 3, "Enqueue": 1},
			{"Function": "alu", "ID": 2, "Latency": 1, "Enqueue": 1}
		],
		"ops": {"Load": [1], "Add": [2], "Mul": [2]}
	}`
	m, err := ParseJSON([]byte(src))
	if err != nil {
		t.Fatal(err)
	}
	if m.Name != "handmade" || m.Latency(1) != 3 || m.PipelineFor(ir.Mul) != 2 {
		t.Errorf("hand-written machine parsed wrong: %s", m)
	}
}

// hasAssignmentChoice reports whether any operation maps to more than one
// pipeline (the Tables 2/3 model, which needs the assignment extension).
func hasAssignmentChoice(m *Machine) bool {
	for _, ids := range m.OpMap {
		if len(ids) > 1 {
			return true
		}
	}
	return false
}

// TestLargePipelineIDsConcurrentReads loads a machine whose pipeline IDs
// are 1 and math.MaxInt, as text and as JSON: its tables must not be
// sized by the largest ID, every lookup must answer as the description
// says, and the loaded machine is read by several goroutines at once.
func TestLargePipelineIDsConcurrentReads(t *testing.T) {
	const big = math.MaxInt
	text := fmt.Sprintf("machine wide\npipe 1 loader latency=2 enqueue=1\npipe %d multiplier latency=5 enqueue=3\n"+
		"op Load -> {1}\nop Mul -> {%d}\nop Add -> {%d,1}\nop Store -> {}\n", big, big, big)
	js := fmt.Sprintf(`{"name":"wide","pipelines":[{"Function":"loader","ID":1,"Latency":2,"Enqueue":1},`+
		`{"Function":"multiplier","ID":%d,"Latency":5,"Enqueue":3}],"ops":{"Load":[1],"Mul":[%d],"Add":[%d,1],"Store":[]}}`,
		big, big, big)
	loaders := map[string]func() (*Machine, error){
		"text": func() (*Machine, error) { return ParseString(text) },
		"json": func() (*Machine, error) { return ParseJSON([]byte(js)) },
	}
	for name, load := range loaders {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		m, err := load()
		runtime.ReadMemStats(&after)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if b := after.TotalAlloc - before.TotalAlloc; b > 1<<20 {
			t.Errorf("%s: loading a two-pipeline machine allocated %d bytes", name, b)
		}
		if err := checkLookups(m); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		errs := make(chan error, 8)
		var wg sync.WaitGroup
		for g := 0; g < 8; g++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := 0; i < 200; i++ {
					if err := checkLookups(m); err != nil {
						errs <- err
						return
					}
				}
			}()
		}
		wg.Wait()
		close(errs)
		for err := range errs {
			t.Errorf("%s, concurrent: %v", name, err)
		}
	}
}

// checkLookups compares every lookup of m with a scan of its two
// description tables.
func checkLookups(m *Machine) error {
	for op := ir.Op(0); op <= ir.NumOps; op++ {
		want := m.OpMap[op]
		if got := m.PipelinesFor(op); !slices.Equal(got, want) {
			return fmt.Errorf("PipelinesFor(%s) = %v, OpMap says %v", op, got, want)
		}
		wantOne := NoPipeline
		if len(want) > 0 {
			wantOne = want[0]
		}
		if got := m.PipelineFor(op); got != wantOne {
			return fmt.Errorf("PipelineFor(%s) = %d, want %d", op, got, wantOne)
		}
	}
	for _, id := range []int{NoPipeline, 1, 2, -1, math.MinInt, math.MaxInt - 1, math.MaxInt} {
		var want *Pipeline
		k := -1
		for i := range m.Pipelines {
			if m.Pipelines[i].ID == id {
				want, k = &m.Pipelines[i], i
			}
		}
		lat, enq := 0, 0
		if want != nil {
			lat, enq = want.Latency, want.Enqueue
		}
		if got := m.Pipeline(id); got != want {
			return fmt.Errorf("Pipeline(%d) = %v, want %v", id, got, want)
		}
		if got := m.PipelineIndex(id); got != k {
			return fmt.Errorf("PipelineIndex(%d) = %d, want %d", id, got, k)
		}
		if got := m.Latency(id); got != lat {
			return fmt.Errorf("Latency(%d) = %d, want %d", id, got, lat)
		}
		if got := m.EnqueueTime(id); got != enq {
			return fmt.Errorf("EnqueueTime(%d) = %d, want %d", id, got, enq)
		}
	}
	return nil
}
