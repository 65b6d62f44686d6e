package dag

import (
	"math/rand"
	"testing"
	"testing/quick"

	"pipesched/internal/ir"
)

// fig3 builds the paper's Figure 3 block:
//
//	1: Const 15
//	2: Store #b, @1
//	3: Load #a
//	4: Mul @1, @3
//	5: Store #a, @4
func fig3(t *testing.T) *ir.Block {
	t.Helper()
	b, err := ir.ParseBlock(`fig3:
  1: Const 15
  2: Store #b, @1
  3: Load #a
  4: Mul @1, @3
  5: Store #a, @4`)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func mustBuild(t *testing.T, b *ir.Block) *Graph {
	t.Helper()
	g, err := Build(b)
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	return g
}

func hasEdge(g *Graph, from, to int, kind EdgeKind) bool {
	for _, d := range g.Succs[from] {
		if d.Node == to && d.Kind == kind {
			return true
		}
	}
	return false
}

func TestBuildFigure3Edges(t *testing.T) {
	g := mustBuild(t, fig3(t))
	// Nodes: 0=Const, 1=Store b, 2=Load a, 3=Mul, 4=Store a.
	wantEdges := []struct {
		from, to int
		kind     EdgeKind
	}{
		{0, 1, Flow},   // Store b uses @1
		{0, 3, Flow},   // Mul uses @1
		{2, 3, Flow},   // Mul uses @3
		{3, 4, Flow},   // Store a uses @4
		{2, 4, MemWAR}, // Store a after Load a
	}
	for _, e := range wantEdges {
		if !hasEdge(g, e.from, e.to, e.kind) {
			t.Errorf("missing edge %d->%d [%s]\n%s", e.from, e.to, e.kind, g)
		}
	}
	total := 0
	for i := 0; i < g.N; i++ {
		total += len(g.Succs[i])
	}
	if total != len(wantEdges) {
		t.Errorf("got %d edges, want %d\n%s", total, len(wantEdges), g)
	}
}

func TestMemoryEdges(t *testing.T) {
	b, err := ir.ParseBlock(`mem:
  1: Load #x
  2: Store #x, @1
  3: Load #x
  4: Store #x, @3
  5: Store #y, @3`)
	if err != nil {
		t.Fatal(err)
	}
	g := mustBuild(t, b)
	cases := []struct {
		from, to int
		kind     EdgeKind
		want     bool
	}{
		{0, 1, MemWAR, false}, // deduped: Flow wins between same pair
		{0, 1, Flow, true},
		{1, 2, MemRAW, true},  // Load x after Store x
		{2, 3, Flow, true},    // Store uses @3
		{1, 3, MemWAW, true},  // Store x after Store x
		{0, 3, MemWAR, false}, // reader list cleared by store at node 1
		{2, 4, Flow, true},
		{3, 4, MemWAW, false}, // different variables
	}
	for _, c := range cases {
		if got := hasEdge(g, c.from, c.to, c.kind); got != c.want {
			t.Errorf("edge %d->%d [%s]: got %v, want %v\n%s", c.from, c.to, c.kind, got, c.want, g)
		}
	}
}

func TestEarliestLatest(t *testing.T) {
	g := mustBuild(t, fig3(t))
	// ancestors: 0:{} 1:{0} 2:{} 3:{0,2} 4:{0,2,3}
	wantEarliest := []int{0, 1, 0, 2, 3}
	// descendants: 0:{1,3,4} 1:{} 2:{3,4} 3:{4} 4:{}
	wantLatest := []int{1, 4, 2, 3, 4}
	for u := 0; u < g.N; u++ {
		if g.Earliest(u) != wantEarliest[u] {
			t.Errorf("Earliest(%d) = %d, want %d", u, g.Earliest(u), wantEarliest[u])
		}
		if g.Latest(u) != wantLatest[u] {
			t.Errorf("Latest(%d) = %d, want %d", u, g.Latest(u), wantLatest[u])
		}
	}
}

func TestHeightDepthCriticalPath(t *testing.T) {
	g := mustBuild(t, fig3(t))
	wantHeight := []int{2, 0, 2, 1, 0}
	wantDepth := []int{0, 1, 0, 1, 2}
	for u := 0; u < g.N; u++ {
		if g.Height(u) != wantHeight[u] {
			t.Errorf("Height(%d) = %d, want %d", u, g.Height(u), wantHeight[u])
		}
		if g.Depth(u) != wantDepth[u] {
			t.Errorf("Depth(%d) = %d, want %d", u, g.Depth(u), wantDepth[u])
		}
	}
	if g.CriticalPathLen() != 3 {
		t.Errorf("CriticalPathLen = %d, want 3", g.CriticalPathLen())
	}
}

func TestDependsOnAndIndependent(t *testing.T) {
	g := mustBuild(t, fig3(t))
	if !g.DependsOn(4, 0) {
		t.Error("node 4 transitively depends on node 0")
	}
	if g.DependsOn(0, 4) {
		t.Error("node 0 does not depend on node 4")
	}
	if !independent(g, 1, 2) {
		t.Error("Store b and Load a are independent")
	}
	if independent(g, 3, 3) {
		t.Error("a node is not independent of itself")
	}
	if independent(g, 0, 4) {
		t.Error("0 and 4 are ordered")
	}
}

func TestIsLegalOrder(t *testing.T) {
	g := mustBuild(t, fig3(t))
	legal := [][]int{
		{0, 1, 2, 3, 4},
		{2, 0, 3, 1, 4},
		{0, 2, 3, 4, 1},
	}
	for _, o := range legal {
		if !g.IsLegalOrder(o) {
			t.Errorf("order %v should be legal", o)
		}
	}
	illegal := [][]int{
		{1, 0, 2, 3, 4}, // Store b before Const
		{0, 1, 3, 2, 4}, // Mul before Load a
		{0, 1, 2, 4, 3}, // Store a before Mul
		{0, 1, 2, 3},    // wrong length
		{0, 0, 2, 3, 4}, // not a permutation
		{0, 1, 2, 3, 9}, // out of range
	}
	for _, o := range illegal {
		if g.IsLegalOrder(o) {
			t.Errorf("order %v should be illegal", o)
		}
	}
	if allocs := testing.AllocsPerRun(10, func() { g.IsLegalOrder(legal[0]) }); allocs != 1 {
		t.Errorf("IsLegalOrder allocated %.0f times, want 1", allocs)
	}
}

func TestCountTopologicalOrders(t *testing.T) {
	g := mustBuild(t, fig3(t))
	// Constraints: 0<1, 0<3, 2<3, 3<4 (2<4 implied). Brute-force count: the
	// legal interleavings of {0,1,2,3,4}. Verify against explicit check.
	want := int64(0)
	perm := []int{0, 1, 2, 3, 4}
	var rec func(k int)
	rec = func(k int) {
		if k == len(perm) {
			if g.IsLegalOrder(perm) {
				want++
			}
			return
		}
		for i := k; i < len(perm); i++ {
			perm[k], perm[i] = perm[i], perm[k]
			rec(k + 1)
			perm[k], perm[i] = perm[i], perm[k]
		}
	}
	rec(0)
	if got := g.CountTopologicalOrders(0); got != want {
		t.Errorf("CountTopologicalOrders = %d, want %d", got, want)
	}
	if got := g.CountTopologicalOrders(3); got != 3 {
		t.Errorf("limited count = %d, want 3", got)
	}
}

func TestChainHasOneOrder(t *testing.T) {
	b, err := ir.ParseBlock(`chain:
  1: Load #a
  2: Neg @1
  3: Neg @2
  4: Store #a, @3`)
	if err != nil {
		t.Fatal(err)
	}
	g := mustBuild(t, b)
	if got := g.CountTopologicalOrders(0); got != 1 {
		t.Errorf("chain has %d orders, want 1", got)
	}
	if g.CriticalPathLen() != 4 {
		t.Errorf("CriticalPathLen = %d, want 4", g.CriticalPathLen())
	}
}

func TestIndependentNodesFactorial(t *testing.T) {
	b, err := ir.ParseBlock(`indep:
  1: Load #a
  2: Load #b
  3: Load #c
  4: Load #d`)
	if err != nil {
		t.Fatal(err)
	}
	g := mustBuild(t, b)
	if got := g.CountTopologicalOrders(0); got != 24 {
		t.Errorf("4 independent loads: %d orders, want 24", got)
	}
}

func TestBuildRejectsInvalidBlock(t *testing.T) {
	b := ir.NewBlock("bad")
	b.Tuples = append(b.Tuples, ir.Tuple{ID: 1, Op: ir.Neg, A: ir.Ref(2)})
	if _, err := Build(b); err == nil {
		t.Error("Build accepted invalid block")
	}
}

// randomBlock generates a structurally valid random block for property tests.
func randomBlock(rng *rand.Rand, n int) *ir.Block {
	b := ir.NewBlock("rand")
	vars := []string{"a", "b", "c", "d"}
	var valueIDs []int
	for i := 0; i < n; i++ {
		switch k := rng.Intn(5); {
		case k == 0 || len(valueIDs) == 0:
			id := b.Append(ir.Load, ir.Var(vars[rng.Intn(len(vars))]), ir.None())
			valueIDs = append(valueIDs, id)
		case k == 1:
			id := b.Append(ir.Const, ir.Imm(int64(rng.Intn(100))), ir.None())
			valueIDs = append(valueIDs, id)
		case k == 2:
			v := valueIDs[rng.Intn(len(valueIDs))]
			b.Append(ir.Store, ir.Var(vars[rng.Intn(len(vars))]), ir.Ref(v))
		default:
			x := valueIDs[rng.Intn(len(valueIDs))]
			y := valueIDs[rng.Intn(len(valueIDs))]
			ops := []ir.Op{ir.Add, ir.Sub, ir.Mul, ir.Div}
			id := b.Append(ops[rng.Intn(len(ops))], ir.Ref(x), ir.Ref(y))
			valueIDs = append(valueIDs, id)
		}
	}
	return b
}

func TestClosureConsistencyProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		b := randomBlock(rng, 4+rng.Intn(10))
		g, err := Build(b)
		if err != nil {
			return false
		}
		for u := 0; u < g.N; u++ {
			// earliest+descendants bounds are consistent
			if g.Earliest(u) > g.Latest(u) {
				return false
			}
			if g.Earliest(u) != numAncestors(g, u) {
				return false
			}
			if g.Latest(u) != g.N-1-g.NumDescendants(u) {
				return false
			}
			// every immediate successor is a descendant
			for _, d := range g.Succs[u] {
				if !g.DependsOn(d.Node, u) {
					return false
				}
			}
		}
		// program order itself must always be legal
		order := make([]int, g.N)
		for i := range order {
			order[i] = i
		}
		return g.IsLegalOrder(order)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

func TestDescendantTransitivityProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		g, err := Build(randomBlock(rng, 4+rng.Intn(12)))
		if err != nil {
			return false
		}
		// If v depends on u and w depends on v, then w depends on u.
		for u := 0; u < g.N; u++ {
			for v := 0; v < g.N; v++ {
				if !g.DependsOn(v, u) {
					continue
				}
				for w := 0; w < g.N; w++ {
					if g.DependsOn(w, v) && !g.DependsOn(w, u) {
						return false
					}
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

func TestBitset(t *testing.T) {
	b := NewBitset(130)
	if !b.Empty() {
		t.Error("new bitset not empty")
	}
	for _, i := range []int{0, 63, 64, 129} {
		b.Set(i)
		if !b.Has(i) {
			t.Errorf("bit %d not set", i)
		}
	}
	if b.Count() != 4 {
		t.Errorf("Count = %d, want 4", b.Count())
	}
	c := b.Clone()
	c.Clear(63)
	if !b.Has(63) || c.Has(63) {
		t.Error("Clone not independent or Clear failed")
	}
	d := NewBitset(130)
	d.Set(100)
	d.Or(b)
	if d.Count() != 5 {
		t.Errorf("after Or, Count = %d, want 5", d.Count())
	}
	if b.Empty() {
		t.Error("non-empty bitset reported Empty")
	}
}

func TestInduced(t *testing.T) {
	g := mustBuild(t, fig3(t))
	// Select nodes 0 (Const), 2 (Load), 3 (Mul) in topological order:
	// edges 0->3 and 2->3 survive, 0->1 and 3->4 are cut.
	sub := Induced(g, []int{0, 2, 3})
	if sub.N != 3 {
		t.Fatalf("sub.N = %d", sub.N)
	}
	if !hasEdge(sub, 0, 2, Flow) || !hasEdge(sub, 1, 2, Flow) {
		t.Errorf("induced edges wrong:\n%s", sub)
	}
	total := 0
	for i := 0; i < sub.N; i++ {
		total += len(sub.Succs[i])
	}
	if total != 2 {
		t.Errorf("induced edge count = %d, want 2", total)
	}
	// Mul (node 2) depends on both others; Const (node 0) has one
	// descendant, so its last legal position is 1.
	if sub.Earliest(2) != 2 || sub.Latest(0) != 1 {
		t.Errorf("induced bounds wrong: earliest(2)=%d latest(0)=%d",
			sub.Earliest(2), sub.Latest(0))
	}
	// The induced block carries the right tuples.
	if sub.Block.Tuples[0].Op != ir.Const || sub.Block.Tuples[1].Op != ir.Load {
		t.Errorf("induced tuples wrong:\n%s", sub.Block)
	}
}

func TestInducedPanicsOnBadInput(t *testing.T) {
	g := mustBuild(t, fig3(t))
	cases := [][]int{
		{0, 0},  // duplicate
		{0, 99}, // out of range
		{3, 0},  // violates topological order (0 -> 3)
	}
	for _, nodes := range cases {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("Induced(%v) did not panic", nodes)
				}
			}()
			Induced(g, nodes)
		}()
	}
}

func TestBuildWithRegisterConstraints(t *testing.T) {
	// Two independent computations forced into ONE register: reuse
	// serializes them completely.
	b, err := ir.ParseBlock(`reg:
  1: Load #a
  2: Store #p, @1
  3: Load #b
  4: Store #q, @3`)
	if err != nil {
		t.Fatal(err)
	}
	clean, err := Build(b)
	if err != nil {
		t.Fatal(err)
	}
	if !independent(clean, 0, 2) {
		t.Fatal("loads should be independent on the clean DAG")
	}
	// Same register for both loads: the second def must wait for the
	// first value's reader.
	g, err := BuildWithRegisterConstraints(b, map[int]int{1: 0, 3: 0})
	if err != nil {
		t.Fatal(err)
	}
	if independent(g, 0, 2) {
		t.Error("register reuse should order the loads")
	}
	if !hasEdge(g, 1, 2, RegAnti) {
		t.Errorf("missing anti edge reader->redef:\n%s", g)
	}
	if !hasEdge(g, 0, 2, RegOutput) {
		t.Errorf("missing output edge def->def:\n%s", g)
	}
	// Legal order count collapses: the clean DAG had interleavings, the
	// constrained one is (nearly) serial.
	if clean.CountTopologicalOrders(0) <= g.CountTopologicalOrders(0) {
		t.Errorf("constraints did not shrink the schedule space: %d vs %d",
			clean.CountTopologicalOrders(0), g.CountTopologicalOrders(0))
	}
}

func TestBuildWithRegisterConstraintsMissingRegister(t *testing.T) {
	b, err := ir.ParseBlock(`m:
  1: Load #a
  2: Store #p, @1`)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := BuildWithRegisterConstraints(b, map[int]int{}); err == nil {
		t.Error("missing register mapping accepted")
	}
}

func TestRegisterConstraintEdgeKinds(t *testing.T) {
	if RegAnti.String() != "reg-anti" || RegOutput.String() != "reg-output" {
		t.Error("register edge kind names wrong")
	}
	if RegAnti.CarriesLatency() || RegOutput.CarriesLatency() {
		t.Error("register edges must not carry latency")
	}
}

// independent reports whether neither node depends on the other.
func independent(g *Graph, u, v int) bool {
	return u != v && !g.DependsOn(v, u) && !g.DependsOn(u, v)
}

// numAncestors counts the nodes u transitively depends on, from the
// descendant sets (computed independently of Earliest's ancestor sweep).
func numAncestors(g *Graph, u int) int {
	n := 0
	for v := 0; v < g.N; v++ {
		if g.DependsOn(u, v) {
			n++
		}
	}
	return n
}
