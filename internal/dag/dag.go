// Package dag builds and queries the dependence DAG of a basic block.
//
// Nodes are tuple positions in the block's original program order. Edges
// record why one tuple must execute before another:
//
//   - Flow: the consumer reads the producer's result through a tuple
//     reference. Flow edges are the ones that carry pipeline latency.
//   - MemRAW / MemWAR / MemWAW: ordering constraints through a named
//     variable (load-after-store, store-after-load, store-after-store).
//     These constrain issue order only; per the paper, stores do not
//     interfere with pipelined operations, so they carry zero latency.
//
// The package also computes the paper's earliest(ζ) and latest(ζ) bounds
// (definitions 6 and 7), node heights for list scheduling, and the full
// transitive closure used by the search's legality checks.
package dag

import (
	"fmt"
	"strings"

	"pipesched/internal/ir"
)

// EdgeKind classifies a dependence edge.
type EdgeKind uint8

const (
	// Flow is a true value dependence through a tuple reference.
	Flow EdgeKind = iota
	// MemRAW orders a Load after the Store that produced the value.
	MemRAW
	// MemWAR orders a Store after earlier Loads of the same variable.
	MemWAR
	// MemWAW orders a Store after an earlier Store to the same variable.
	MemWAW
)

// String returns a short name for the edge kind.
func (k EdgeKind) String() string {
	switch k {
	case Flow:
		return "flow"
	case MemRAW:
		return "raw"
	case MemWAR:
		return "war"
	case MemWAW:
		return "waw"
	case RegAnti:
		return "reg-anti"
	case RegOutput:
		return "reg-output"
	}
	return fmt.Sprintf("EdgeKind(%d)", uint8(k))
}

// CarriesLatency reports whether the edge kind transmits the producer's
// pipeline latency to the consumer (only Flow does).
func (k EdgeKind) CarriesLatency() bool { return k == Flow }

// Dep is one immediate dependence: the other endpoint plus the edge kind.
type Dep struct {
	Node int
	Kind EdgeKind
}

// Graph is the dependence DAG of one basic block. All slices are indexed
// by node, i.e. by tuple position in the original program order.
type Graph struct {
	Block *ir.Block // the block the graph was built from (original order)
	N     int

	Preds [][]Dep // immediate predecessors (ρ(ζ) in the paper)
	Succs [][]Dep // immediate successors

	earliest []int // number of transitive ancestors of each node
	latest   []int // N-1 - number of transitive descendants
	height   []int // longest edge-count path to any sink
	depth    []int // longest edge-count path from any source
	desc     rows  // row u = transitive descendants of u
}

// Build constructs the dependence graph for b. The block must be valid
// (ir.Block.Validate); Build re-validates and returns any error.
func Build(b *ir.Block) (*Graph, error) {
	nodeOf, err := b.ValidIndex() // tuple ID -> node
	if err != nil {
		return nil, err
	}
	n := b.Len()
	g := &Graph{
		Block: b,
		N:     n,
		Preds: make([][]Dep, n),
		Succs: make([][]Dep, n),
	}

	// Every edge found while visiting node i ends at i, so i's
	// predecessors so far are the only candidates for a parallel edge.
	// preds holds them all, node after node; predsFrom[i] is where i's
	// begin.
	preds := make([]Dep, 0, 2*n)
	ints := make([]int, 5*n+1)
	predsFrom, outDeg, prevReader, lastAccess := ints[:n+1], ints[n+1:2*n+1], ints[2*n+1:3*n+1], ints[3*n+1:]
	// lastAccess[2v] is the node of the most recent Store to variable v
	// and lastAccess[2v+1] the most recent Load since it; prevReader
	// chains each Load to the one before it.
	for i := range lastAccess {
		lastAccess[i] = -1
	}
	vars := make(map[string]int, 8) // variable -> small dense number
	addEdge := func(from, to int, kind EdgeKind) {
		if from == to {
			return
		}
		// A parallel edge keeps one kind: Flow wins over memory-order
		// kinds because it is at least as strong a constraint (it
		// carries latency, they do not).
		for k := predsFrom[to]; k < len(preds); k++ {
			if preds[k].Node == from {
				if kind == Flow {
					preds[k].Kind = Flow
				}
				return
			}
		}
		preds = append(preds, Dep{Node: from, Kind: kind})
		outDeg[from]++
	}

	for i := range b.Tuples {
		predsFrom[i] = len(preds)
		t := &b.Tuples[i]
		refs, nr := t.Refs()
		for _, ref := range refs[:nr] {
			addEdge(nodeOf.Get(ref), i, Flow)
		}
		if !t.Op.TouchesMemory() {
			continue
		}
		v, ok := vars[t.A.Var]
		if !ok {
			v = len(vars)
			vars[t.A.Var] = v
		}
		store, reader := &lastAccess[2*v], &lastAccess[2*v+1]
		switch t.Op {
		case ir.Load:
			if *store >= 0 {
				addEdge(*store, i, MemRAW)
			}
			prevReader[i], *reader = *reader, i
		case ir.Store:
			for r := *reader; r >= 0; r = prevReader[r] {
				addEdge(r, i, MemWAR)
			}
			if *store >= 0 {
				addEdge(*store, i, MemWAW)
			}
			*store, *reader = i, -1
		}
	}
	predsFrom[n] = len(preds)

	// Visiting nodes in order leaves every successor list sorted.
	succs := make([]Dep, len(preds))
	for u, at := 0, 0; u < n; u++ {
		g.Succs[u] = succs[at : at : at+outDeg[u]]
		at += outDeg[u]
	}
	for i := 0; i < n; i++ {
		ps := preds[predsFrom[i]:predsFrom[i+1]:predsFrom[i+1]]
		sortDeps(ps)
		g.Preds[i] = ps
		for _, d := range ps {
			g.Succs[d.Node] = append(g.Succs[d.Node], Dep{Node: i, Kind: d.Kind})
		}
	}

	g.computeClosure()
	g.computeLevels()
	return g, nil
}

// sortDeps orders deps by node then kind for deterministic iteration.
func sortDeps(ds []Dep) {
	for i := 1; i < len(ds); i++ {
		for j := i; j > 0 && less(ds[j], ds[j-1]); j-- {
			ds[j], ds[j-1] = ds[j-1], ds[j]
		}
	}
}

func less(a, b Dep) bool {
	if a.Node != b.Node {
		return a.Node < b.Node
	}
	return a.Kind < b.Kind
}

// computeClosure fills the desc bitsets and the earliest/latest bounds.
// Program order is already a topological order (references point backward),
// so a single forward sweep builds ancestor sets and a backward sweep
// builds descendant sets.
func (g *Graph) computeClosure() {
	n := g.N
	anc := newRows(n)
	g.desc = newRows(n)
	levels := make([]int, 2*n)
	g.earliest, g.latest = levels[:n:n], levels[n:]
	for i := 0; i < n; i++ {
		a := anc.row(i)
		for _, d := range g.Preds[i] {
			a.Set(d.Node)
			a.Or(anc.row(d.Node))
		}
		g.earliest[i] = a.Count()
	}
	for i := n - 1; i >= 0; i-- {
		desc := g.desc.row(i)
		for _, d := range g.Succs[i] {
			desc.Set(d.Node)
			desc.Or(g.desc.row(d.Node))
		}
		g.latest[i] = n - 1 - desc.Count()
	}
}

// rows is n bitsets of n bits each, laid end to end in one array.
type rows struct {
	words  []uint64
	stride int // words per row
}

func newRows(n int) rows {
	w := (n + 63) / 64
	return rows{words: make([]uint64, n*w), stride: w}
}

// row returns bitset i.
func (r rows) row(i int) Bitset {
	return r.words[i*r.stride : (i+1)*r.stride : (i+1)*r.stride]
}

// computeLevels fills height (longest path to a sink) and depth (longest
// path from a source), both counted in edges.
func (g *Graph) computeLevels() {
	n := g.N
	levels := make([]int, 2*n)
	g.height, g.depth = levels[:n:n], levels[n:]
	for i := n - 1; i >= 0; i-- {
		for _, d := range g.Succs[i] {
			if h := g.height[d.Node] + 1; h > g.height[i] {
				g.height[i] = h
			}
		}
	}
	for i := 0; i < n; i++ {
		for _, d := range g.Preds[i] {
			if dp := g.depth[d.Node] + 1; dp > g.depth[i] {
				g.depth[i] = dp
			}
		}
	}
}

// Earliest returns the paper's earliest(ζ): the minimum number of
// instructions that must execute before node u (its transitive ancestor
// count). Equivalently, the smallest legal 0-based position of u.
func (g *Graph) Earliest(u int) int { return g.earliest[u] }

// Latest returns the paper's latest(ζ) as a 0-based position: the largest
// legal position of node u, i.e. N-1 minus its transitive descendant count.
func (g *Graph) Latest(u int) int { return g.latest[u] }

// Height returns the longest edge-count path from u to any sink.
func (g *Graph) Height(u int) int { return g.height[u] }

// Depth returns the longest edge-count path from any source to u.
func (g *Graph) Depth(u int) int { return g.depth[u] }

// NumDescendants returns the number of nodes that transitively depend on u.
func (g *Graph) NumDescendants(u int) int { return g.desc.row(u).Count() }

// DependsOn reports whether v transitively depends on u (u ⇒ ... ⇒ v).
func (g *Graph) DependsOn(v, u int) bool { return g.desc.row(u).Has(v) }

// CriticalPathLen returns the longest chain length in nodes (not edges);
// 0 for an empty graph.
func (g *Graph) CriticalPathLen() int {
	max := 0
	for i := 0; i < g.N; i++ {
		if g.height[i]+1 > max {
			max = g.height[i] + 1
		}
	}
	return max
}

// IsLegalOrder reports whether order — a permutation of nodes giving the
// proposed execution sequence — respects every dependence edge.
func (g *Graph) IsLegalOrder(order []int) bool {
	if len(order) != g.N {
		return false
	}
	pos := make([]int, g.N) // node -> position in order, -1 until seen
	for u := range pos {
		pos[u] = -1
	}
	for p, u := range order {
		if u < 0 || u >= g.N || pos[u] >= 0 {
			return false
		}
		pos[u] = p
	}
	for u := 0; u < g.N; u++ {
		for _, d := range g.Succs[u] {
			if pos[d.Node] < pos[u] {
				return false
			}
		}
	}
	return true
}

// CountTopologicalOrders counts the number of legal schedules (topological
// orders) of the graph by depth-first enumeration, stopping early once the
// count reaches limit (limit <= 0 means unlimited). This is the "pruning
// illegal" column of the paper's Table 1.
func (g *Graph) CountTopologicalOrders(limit int64) int64 {
	remaining := make([]int, g.N) // unscheduled predecessor count
	for i := 0; i < g.N; i++ {
		remaining[i] = len(g.Preds[i])
	}
	scheduled := make([]bool, g.N)
	var count int64
	var rec func(placed int)
	rec = func(placed int) {
		if limit > 0 && count >= limit {
			return
		}
		if placed == g.N {
			count++
			return
		}
		for u := 0; u < g.N; u++ {
			if scheduled[u] || remaining[u] != 0 {
				continue
			}
			scheduled[u] = true
			for _, d := range g.Succs[u] {
				remaining[d.Node]--
			}
			rec(placed + 1)
			for _, d := range g.Succs[u] {
				remaining[d.Node]++
			}
			scheduled[u] = false
			if limit > 0 && count >= limit {
				return
			}
		}
	}
	rec(0)
	return count
}

// String renders the graph edges for debugging, one node per line.
func (g *Graph) String() string {
	var sb strings.Builder
	for i := 0; i < g.N; i++ {
		fmt.Fprintf(&sb, "%d (%s):", i, g.Block.Tuples[i].Op)
		for _, d := range g.Succs[i] {
			fmt.Fprintf(&sb, " ->%d[%s]", d.Node, d.Kind)
		}
		sb.WriteString("\n")
	}
	return sb.String()
}

// Induced builds the subgraph induced by the given parent nodes (edges
// between selected nodes only). The result's nodes are renumbered
// 0..len(nodes)-1 in the given order; its Block holds the corresponding
// tuples (which may reference values outside the subgraph, so the block
// is NOT re-validated). ParentNode maps new node numbers back to the
// parent graph. Induced panics if nodes repeats or goes out of range.
func Induced(parent *Graph, nodes []int) *Graph {
	toNew := make(map[int]int, len(nodes))
	for i, u := range nodes {
		if u < 0 || u >= parent.N {
			panic(fmt.Sprintf("dag: Induced node %d out of range", u))
		}
		if _, dup := toNew[u]; dup {
			panic(fmt.Sprintf("dag: Induced node %d repeated", u))
		}
		toNew[u] = i
	}
	sub := &Graph{
		Block: &ir.Block{Label: parent.Block.Label},
		N:     len(nodes),
		Preds: make([][]Dep, len(nodes)),
		Succs: make([][]Dep, len(nodes)),
	}
	for _, u := range nodes {
		sub.Block.Tuples = append(sub.Block.Tuples, parent.Block.Tuples[u])
	}
	for i, u := range nodes {
		for _, d := range parent.Succs[u] {
			if j, ok := toNew[d.Node]; ok {
				if j < i {
					// The closure sweeps assume node order is topological.
					panic(fmt.Sprintf("dag: Induced nodes not in topological order (%d -> %d)", i, j))
				}
				sub.Succs[i] = append(sub.Succs[i], Dep{Node: j, Kind: d.Kind})
				sub.Preds[j] = append(sub.Preds[j], Dep{Node: i, Kind: d.Kind})
			}
		}
	}
	for i := 0; i < sub.N; i++ {
		sortDeps(sub.Succs[i])
		sortDeps(sub.Preds[i])
	}
	sub.computeClosure()
	sub.computeLevels()
	return sub
}

// RegAnti and RegOutput are the artificial dependence kinds introduced
// when code is scheduled AFTER register allocation: reuse of a register
// name orders instructions that have no value relationship. The paper's
// central design decision (sections 1 and 3.4) is to schedule the
// unallocated tuple form precisely so these edges never exist; building
// them on purpose lets the experiments quantify what postpass scheduling
// costs.
const (
	// RegAnti orders a register's reader before its next redefinition.
	RegAnti EdgeKind = 100 + iota
	// RegOutput orders two definitions of the same register.
	RegOutput
)

// BuildWithRegisterConstraints builds the dependence graph of b plus the
// artificial ordering edges a fixed register assignment induces on the
// block's CURRENT order: for every register, each definition is ordered
// after all readers of the previous value in that register (anti) and
// after the previous definition (output). regOf maps value tuple IDs to
// register numbers (as produced by regalloc.Allocate on this order).
func BuildWithRegisterConstraints(b *ir.Block, regOf map[int]int) (*Graph, error) {
	g, err := Build(b)
	if err != nil {
		return nil, err
	}
	type regState struct {
		lastDef int   // position of the current value's definition
		readers []int // positions that have read the current value
	}
	state := map[int]*regState{}
	addEdge := func(from, to int, kind EdgeKind) {
		if from == to || from < 0 {
			return
		}
		for _, d := range g.Succs[from] {
			if d.Node == to {
				return // an ordering already exists; keep the stronger kind
			}
		}
		g.Succs[from] = append(g.Succs[from], Dep{Node: to, Kind: kind})
		g.Preds[to] = append(g.Preds[to], Dep{Node: from, Kind: kind})
	}
	for i, t := range b.Tuples {
		// Reads: operands living in registers.
		refs, nr := t.Refs()
		for _, ref := range refs[:nr] {
			if r, ok := regOf[ref]; ok {
				if st := state[r]; st != nil {
					st.readers = append(st.readers, i)
				}
			}
		}
		// Definition: this tuple writes its own register.
		if t.Op.ProducesValue() {
			r, ok := regOf[t.ID]
			if !ok {
				return nil, fmt.Errorf("dag: tuple @%d has no register", t.ID)
			}
			st := state[r]
			if st == nil {
				state[r] = &regState{lastDef: i}
				continue
			}
			for _, reader := range st.readers {
				addEdge(reader, i, RegAnti)
			}
			addEdge(st.lastDef, i, RegOutput)
			state[r] = &regState{lastDef: i}
		}
	}
	for i := 0; i < g.N; i++ {
		sortDeps(g.Succs[i])
		sortDeps(g.Preds[i])
	}
	g.computeClosure()
	g.computeLevels()
	return g, nil
}
