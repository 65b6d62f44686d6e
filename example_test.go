package pipesched_test

import (
	"context"
	"encoding/json"
	"fmt"

	"pipesched"
)

// ExampleCompile compiles the paper's Figure 3 program and reports the
// provably optimal delay cost.
func ExampleCompile() {
	m := pipesched.SimulationMachine()
	c, err := pipesched.Compile("b = 15;\na = b * a;", m, pipesched.Options{})
	if err != nil {
		panic(err)
	}
	fmt.Printf("instructions=%d nops=%d ticks=%d optimal=%v\n",
		c.Scheduled.Len(), c.TotalNOPs, c.Ticks, c.Optimal)
	// Output:
	// instructions=5 nops=2 ticks=7 optimal=true
}

// ExampleSchedule schedules hand-written tuple code.
func ExampleSchedule() {
	block, err := pipesched.ParseBlock(`demo:
  1: Load #x
  2: Load #y
  3: Mul @1, @2
  4: Store #z, @3`)
	if err != nil {
		panic(err)
	}
	c, err := pipesched.Schedule(block, pipesched.SimulationMachine(), pipesched.Options{})
	if err != nil {
		panic(err)
	}
	fmt.Printf("nops=%d optimal=%v\n", c.TotalNOPs, c.Optimal)
	// Output:
	// nops=4 optimal=true
}

// ExampleNewMachine describes a custom two-pipeline processor with the
// paper's two timing parameters per pipeline.
func ExampleNewMachine() {
	m, err := pipesched.NewMachine("demo",
		[]pipesched.Pipeline{
			{Function: "loader", ID: 1, Latency: 3, Enqueue: 1},
			{Function: "alu", ID: 2, Latency: 2, Enqueue: 2}, // not internally pipelined
		},
		nil)
	if err != nil {
		panic(err)
	}
	fmt.Print(m)
	// Output:
	// machine demo
	// pipe 1 loader latency=3 enqueue=1
	// pipe 2 alu latency=2 enqueue=2
}

// ExampleCountLegalSchedules shows the size of the legality-pruned
// search space the paper's Table 1 reports.
func ExampleCountLegalSchedules() {
	block, err := pipesched.ParseBlock(`b:
  1: Load #a
  2: Load #b
  3: Load #c
  4: Add @1, @2
  5: Mul @4, @3
  6: Store #r, @5`)
	if err != nil {
		panic(err)
	}
	n, err := pipesched.CountLegalSchedules(block, 0)
	if err != nil {
		panic(err)
	}
	fmt.Println(n)
	// Output:
	// 8
}

// ExampleGreedyBaseline compares the Gross-style heuristic with the
// optimal search on one block.
func ExampleGreedyBaseline() {
	block, err := pipesched.ParseBlock(`g:
  1: Const 15
  2: Store #b, @1
  3: Load #a
  4: Mul @1, @3
  5: Store #a, @4`)
	if err != nil {
		panic(err)
	}
	m := pipesched.SimulationMachine()
	greedyNOPs, _, err := pipesched.GreedyBaseline(block, m)
	if err != nil {
		panic(err)
	}
	c, err := pipesched.Schedule(block, m, pipesched.Options{})
	if err != nil {
		panic(err)
	}
	fmt.Printf("greedy=%d optimal=%d\n", greedyNOPs, c.TotalNOPs)
	// Output:
	// greedy=3 optimal=2
}

// ExampleChromeTraceRequest traces one compile with its search events:
// the stages become timed slices and every search event an instant
// inside the stage:search slice.
func ExampleChromeTraceRequest() {
	tr := pipesched.EnableTracing(nil, pipesched.TracerConfig{RecorderSize: 8192})
	defer pipesched.DisableTracing()
	ctx, root := tr.StartRoot(context.Background(), "compile", pipesched.TraceContext{})
	src := "a = x * y\na = a * y0\na = a * y1\na = a * y2\n"
	if _, err := pipesched.CompileCtx(ctx, src, pipesched.SimulationMachine(), pipesched.Options{TraceSearch: 5000}); err != nil {
		panic(err)
	}
	root.End()
	spans := tr.Recorder().Snapshot()
	events := 0
	for _, s := range spans {
		if s.Attrs["worker"] != "" {
			events++
		} else {
			fmt.Println(s.Name)
		}
	}
	data, err := pipesched.ChromeTraceRequest(spans)
	if err != nil {
		panic(err)
	}
	fmt.Printf("search events=%d json=%v\n", events, json.Valid(data))
	// Output:
	// compile
	// stage:frontend
	// stage:dag
	// stage:search
	// stage:regalloc
	// stage:codegen
	// search events=16 json=true
}
