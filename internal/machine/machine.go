// Package machine models the target processor's pipelined resources.
//
// A machine is described by exactly the two tables of the paper's
// section 4.1: a pipeline description table (one row per hardware
// pipeline, giving its function name, identifier, latency and enqueue
// time) and an operation-to-pipeline mapping table (the set of pipelines
// each operation type may execute on).
//
//   - Latency is the number of clock ticks between enqueuing an operation
//     and its result becoming available — the minimum issue distance
//     between a producer and a dependent consumer.
//   - Enqueue time is the minimum number of clock ticks between enqueuing
//     two operations in the same pipeline — the structural-conflict
//     spacing. A non-pipelined functional unit is modeled by setting
//     enqueue time equal to latency.
//
// Operations mapped to no pipeline (σ(ζ) = ∅, e.g. Store and Const in the
// paper's simulations) issue in one tick and never conflict or impose
// latency.
package machine

import (
	"errors"
	"fmt"
	"sort"
	"strings"

	"pipesched/internal/ir"
)

// ErrInvalid is wrapped by every error reporting a structurally invalid
// machine description, so callers can classify with errors.Is. An
// invalid description must never reach the scheduler: zero or negative
// latencies and enqueue times, empty pipeline tables, and op-map entries
// naming unknown pipelines would silently corrupt the NOP-insertion
// analysis.
var ErrInvalid = errors.New("machine: invalid description")

// NoPipeline is the identifier meaning σ(ζ) = ∅: the operation uses no
// pipelined resource.
const NoPipeline = 0

// Pipeline is one row of the pipeline description table.
type Pipeline struct {
	Function string // human-readable function name, e.g. "loader"
	ID       int    // unique identifier, > 0
	Latency  int    // ticks from enqueue until the result is available
	Enqueue  int    // minimum ticks between enqueues into this pipeline
}

// String renders the row like "loader(#1 lat=2 enq=1)".
func (p Pipeline) String() string {
	return fmt.Sprintf("%s(#%d lat=%d enq=%d)", p.Function, p.ID, p.Latency, p.Enqueue)
}

// Machine is a complete processor description: the pipeline table plus
// the operation-to-pipeline mapping. New also builds dense lookup tables
// from the two; a Machine is read-only after New, so one may be shared
// by any number of goroutines.
type Machine struct {
	Name      string
	Pipelines []Pipeline      // the pipeline description table
	OpMap     map[ir.Op][]int // operation -> set of usable pipeline IDs

	pipeIndex ir.IDTable       // pipeline ID -> position in Pipelines
	opPipes   [ir.NumOps][]int // OpMap as an array
}

// New assembles a Machine and validates it.
func New(name string, pipes []Pipeline, opMap map[ir.Op][]int) (*Machine, error) {
	m := &Machine{Name: name, Pipelines: pipes, OpMap: opMap}
	index, err := m.validate()
	if err != nil {
		return nil, err
	}
	m.pipeIndex = index
	for op, ids := range opMap {
		m.opPipes[op] = ids
	}
	return m, nil
}

// indexPipelines maps each pipeline's ID to its position in pipes (the
// first one, for a repeated ID). Pipeline IDs are any ints, so the table
// falls back to a map when they are far apart rather than size a slice
// by the largest.
func indexPipelines(pipes []Pipeline) ir.IDTable {
	lo, hi := pipes[0].ID, pipes[0].ID
	for _, p := range pipes[1:] {
		lo, hi = min(lo, p.ID), max(hi, p.ID)
	}
	var t ir.IDTable
	t.Reset(lo, hi, len(pipes))
	for i, p := range pipes {
		if t.Get(p.ID) < 0 {
			t.Set(p.ID, i)
		}
	}
	return t
}

// Validate checks the machine description for structural errors. Every
// violation wraps ErrInvalid.
func (m *Machine) Validate() error {
	_, err := m.validate()
	return err
}

// validate is Validate that also returns the pipeline table it builds.
func (m *Machine) validate() (ir.IDTable, error) {
	if len(m.Pipelines) == 0 {
		return ir.IDTable{}, fmt.Errorf("%w: empty pipeline table", ErrInvalid)
	}
	index := indexPipelines(m.Pipelines) // ID -> first row with it
	for i, p := range m.Pipelines {
		if p.ID <= 0 {
			return ir.IDTable{}, fmt.Errorf("%w: pipeline %q has non-positive ID %d", ErrInvalid, p.Function, p.ID)
		}
		if index.Get(p.ID) != i {
			return ir.IDTable{}, fmt.Errorf("%w: duplicate pipeline ID %d", ErrInvalid, p.ID)
		}
		if p.Latency < 1 {
			return ir.IDTable{}, fmt.Errorf("%w: pipeline %d latency %d < 1", ErrInvalid, p.ID, p.Latency)
		}
		if p.Enqueue < 1 {
			return ir.IDTable{}, fmt.Errorf("%w: pipeline %d enqueue time %d < 1", ErrInvalid, p.ID, p.Enqueue)
		}
		if p.Enqueue > p.Latency {
			return ir.IDTable{}, fmt.Errorf("%w: pipeline %d enqueue time %d exceeds latency %d",
				ErrInvalid, p.ID, p.Enqueue, p.Latency)
		}
	}
	for op, ids := range m.OpMap {
		if !op.Valid() {
			return ir.IDTable{}, fmt.Errorf("%w: op map contains invalid operation", ErrInvalid)
		}
		for _, id := range ids {
			if id != NoPipeline && index.Get(id) < 0 {
				return ir.IDTable{}, fmt.Errorf("%w: op %s mapped to unknown pipeline %d", ErrInvalid, op, id)
			}
		}
	}
	return index, nil
}

// Pipeline returns the pipeline with the given identifier, or nil for
// NoPipeline or an unknown ID.
func (m *Machine) Pipeline(id int) *Pipeline {
	if k := m.pipeIndex.Get(id); k >= 0 {
		return &m.Pipelines[k]
	}
	return nil
}

// PipelineIndex returns the position of pipeline id in Pipelines, or -1
// for NoPipeline or an unknown ID, so that per-pipeline state can live
// in a slice of len(Pipelines) entries.
func (m *Machine) PipelineIndex(id int) int { return m.pipeIndex.Get(id) }

// PipelinesFor returns the set of pipeline IDs that may execute op.
// A nil/empty result means σ = ∅ for this operation.
func (m *Machine) PipelinesFor(op ir.Op) []int {
	if int(op) < len(m.opPipes) {
		return m.opPipes[op]
	}
	return nil
}

// PipelineFor returns the single pipeline assigned to op under the
// paper's core model (singleton sets; their footnote 3). When the op maps
// to several pipelines it returns the first — callers wanting assignment
// search use PipelinesFor.
func (m *Machine) PipelineFor(op ir.Op) int {
	ids := m.PipelinesFor(op)
	if len(ids) == 0 {
		return NoPipeline
	}
	return ids[0]
}

// Latency returns the latency of pipeline id, or 0 for NoPipeline.
func (m *Machine) Latency(id int) int {
	if k := m.pipeIndex.Get(id); k >= 0 {
		return m.Pipelines[k].Latency
	}
	return 0
}

// EnqueueTime returns the enqueue time of pipeline id, or 0 for NoPipeline.
func (m *Machine) EnqueueTime(id int) int {
	if k := m.pipeIndex.Get(id); k >= 0 {
		return m.Pipelines[k].Enqueue
	}
	return 0
}

// MaxLatency returns the largest latency over all pipelines.
func (m *Machine) MaxLatency() int {
	max := 0
	for _, p := range m.Pipelines {
		if p.Latency > max {
			max = p.Latency
		}
	}
	return max
}

// String renders both description tables in a compact textual form.
func (m *Machine) String() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "machine %s\n", m.Name)
	for _, p := range m.Pipelines {
		fmt.Fprintf(&sb, "pipe %d %s latency=%d enqueue=%d\n", p.ID, p.Function, p.Latency, p.Enqueue)
	}
	ops := make([]ir.Op, 0, len(m.OpMap))
	for op := range m.OpMap {
		ops = append(ops, op)
	}
	sort.Slice(ops, func(i, j int) bool { return ops[i] < ops[j] })
	for _, op := range ops {
		ids := make([]string, len(m.OpMap[op]))
		for i, id := range m.OpMap[op] {
			ids[i] = fmt.Sprintf("%d", id)
		}
		fmt.Fprintf(&sb, "op %s -> {%s}\n", op, strings.Join(ids, ","))
	}
	return sb.String()
}

// SimulationMachine returns the machine used for the paper's results
// (section 5.1, Tables 4 and 5): a conservative single-pipeline-per-
// function design. The paper's table legibly gives loader latency 2 /
// enqueue 1 and multiplier latency 4 / enqueue 2; the adder row (latency
// 2, enqueue 1) is our documented reconstruction (DESIGN.md §6).
// Const and Store use no pipeline.
func SimulationMachine() *Machine {
	m, err := New("paper-simulation",
		[]Pipeline{
			{Function: "loader", ID: 1, Latency: 2, Enqueue: 1},
			{Function: "adder", ID: 2, Latency: 2, Enqueue: 1},
			{Function: "multiplier", ID: 3, Latency: 4, Enqueue: 2},
		},
		map[ir.Op][]int{
			ir.Load: {1},
			ir.Add:  {2},
			ir.Sub:  {2},
			ir.Neg:  {2},
			ir.Mul:  {3},
			ir.Div:  {3},
			ir.Mod:  {3},
		})
	if err != nil {
		panic(err) // impossible: static description
	}
	return m
}

// ExampleMachine returns the richer example machine of the paper's
// Tables 2 and 3: two loaders, two adders and one multiplier, with Add
// and Sub sharing the two adder pipelines and Mul and Div sharing the
// multiplier. Scheduling for it requires the pipeline-assignment
// extension because the op→pipeline sets are not singletons.
func ExampleMachine() *Machine {
	m, err := New("paper-example",
		[]Pipeline{
			{Function: "loader", ID: 1, Latency: 2, Enqueue: 1},
			{Function: "loader", ID: 2, Latency: 2, Enqueue: 1},
			{Function: "adder", ID: 3, Latency: 4, Enqueue: 3},
			{Function: "adder", ID: 4, Latency: 4, Enqueue: 3},
			{Function: "multiplier", ID: 5, Latency: 4, Enqueue: 2},
		},
		map[ir.Op][]int{
			ir.Load: {1, 2},
			ir.Add:  {3, 4},
			ir.Sub:  {3, 4},
			ir.Neg:  {3, 4},
			ir.Mul:  {5},
			ir.Div:  {5},
			ir.Mod:  {5},
		})
	if err != nil {
		panic(err) // impossible: static description
	}
	return m
}

// UnpipelinedMachine models a processor whose functional units are not
// internally pipelined (enqueue time = latency), useful for studying the
// conflict-delay behaviour the enqueue-time parameter was introduced for.
func UnpipelinedMachine() *Machine {
	m, err := New("unpipelined",
		[]Pipeline{
			{Function: "loader", ID: 1, Latency: 2, Enqueue: 2},
			{Function: "adder", ID: 2, Latency: 2, Enqueue: 2},
			{Function: "multiplier", ID: 3, Latency: 4, Enqueue: 4},
		},
		map[ir.Op][]int{
			ir.Load: {1},
			ir.Add:  {2},
			ir.Sub:  {2},
			ir.Neg:  {2},
			ir.Mul:  {3},
			ir.Div:  {3},
			ir.Mod:  {3},
		})
	if err != nil {
		panic(err) // impossible: static description
	}
	return m
}

// DeepMachine is a configuration with long, deeply pipelined units,
// exaggerating latency so that scheduling quality differences are easy
// to observe in examples and ablation benchmarks.
func DeepMachine() *Machine {
	m, err := New("deep",
		[]Pipeline{
			{Function: "loader", ID: 1, Latency: 4, Enqueue: 1},
			{Function: "adder", ID: 2, Latency: 3, Enqueue: 1},
			{Function: "multiplier", ID: 3, Latency: 8, Enqueue: 2},
		},
		map[ir.Op][]int{
			ir.Load: {1},
			ir.Add:  {2},
			ir.Sub:  {2},
			ir.Neg:  {2},
			ir.Mul:  {3},
			ir.Div:  {3},
			ir.Mod:  {3},
		})
	if err != nil {
		panic(err) // impossible: static description
	}
	return m
}
