package memo

import (
	"slices"
	"testing"
)

// testMaxResidual is the residual bound of the tests' key layouts.
const testMaxResidual = 31

// buildKey assembles a key from one state description: scheduled nodes,
// per-pipe enqueue deadlines, in-flight (node, deadline) and ready
// (node, deadline) constraints, all in ABSOLUTE ticks relative to
// lastIssue — exercising exactly the translation the search performs.
// Every call gets a fresh key, so results can be compared.
func buildKey(n int, scheduled []int, lastIssue int, pipeDeadline []int, inflight, ready [][2]int) []uint64 {
	c := NewEncoder(n, len(pipeDeadline), 2, testMaxResidual)
	sched := make([]uint64, SchedWords(n))
	for _, u := range scheduled {
		sched[u/64] |= 1 << (u % 64)
	}
	c.Begin(make([]uint64, 0, c.Words()), sched)
	res := make([]int, len(pipeDeadline))
	for i, d := range pipeDeadline {
		res[i] = Residual(d, lastIssue)
	}
	c.Values(res)
	for _, p := range inflight {
		c.Pair(p[0], Residual(p[1], lastIssue))
	}
	c.SealPairs()
	for _, p := range ready {
		c.Pair(p[0], Residual(p[1], lastIssue))
	}
	c.SealPairs()
	key := c.Key()
	if len(key) > c.Words() {
		panic("key longer than the layout's Words")
	}
	return key
}

// k is a literal key for table tests.
func k(words ...uint64) []uint64 { return words }

func TestResidual(t *testing.T) {
	if r := Residual(10, 6); r != 3 {
		t.Fatalf("Residual(10,6) = %d, want 3", r)
	}
	if r := Residual(7, 6); r != 0 {
		t.Fatalf("Residual(7,6) = %d, want 0 (constraint satisfied at next issue)", r)
	}
	if r := Residual(2, 6); r != 0 {
		t.Fatalf("Residual(2,6) = %d, want 0 (expired)", r)
	}
}

// TestKeyTranslationInvariance: the same residual problem occurring at
// different absolute ticks must produce the same key.
func TestKeyTranslationInvariance(t *testing.T) {
	a := buildKey(12, []int{0, 2, 5}, 9,
		[]int{11, 9}, [][2]int{{2, 13}, {5, 11}}, [][2]int{{7, 12}})
	for _, shift := range []int{1, 7, 100} {
		b := buildKey(12, []int{0, 2, 5}, 9+shift,
			[]int{11 + shift, 9 + shift},
			[][2]int{{2, 13 + shift}, {5, 11 + shift}},
			[][2]int{{7, 12 + shift}})
		if !slices.Equal(a, b) {
			t.Fatalf("shift %d: keys differ for time-translated states", shift)
		}
	}
}

// TestKeyExpiredConstraintsVanish: dead history — drained pipes, landed
// producers — must not perturb the key.
func TestKeyExpiredConstraintsVanish(t *testing.T) {
	a := buildKey(8, []int{1, 3}, 20,
		[]int{5, 21}, [][2]int{{1, 9}, {3, 24}}, nil)
	b := buildKey(8, []int{1, 3}, 20,
		[]int{17, 21}, [][2]int{{3, 24}}, nil)
	if !slices.Equal(a, b) {
		t.Fatal("states differing only in expired constraints must collide")
	}
}

// TestKeyDistinguishesLiveState: any live difference — scheduled set,
// a pipe residual, an in-flight residual, or which section a pair sits
// in — must produce distinct keys.
func TestKeyDistinguishesLiveState(t *testing.T) {
	base := buildKey(8, []int{1, 3}, 10, []int{12, 11}, [][2]int{{3, 14}}, [][2]int{{5, 13}})
	variants := [][]uint64{
		buildKey(8, []int{1, 4}, 10, []int{12, 11}, [][2]int{{3, 14}}, [][2]int{{5, 13}}),
		buildKey(8, []int{1, 3}, 10, []int{13, 11}, [][2]int{{3, 14}}, [][2]int{{5, 13}}),
		buildKey(8, []int{1, 3}, 10, []int{12, 11}, [][2]int{{3, 15}}, [][2]int{{5, 13}}),
		buildKey(8, []int{1, 3}, 10, []int{12, 11}, [][2]int{{3, 14}, {5, 13}}, nil),
		buildKey(8, []int{1, 3}, 10, []int{12, 11}, nil, [][2]int{{3, 14}, {5, 13}}),
		buildKey(8, []int{1, 3}, 10, []int{12, 11}, [][2]int{{3, 14}}, [][2]int{{5, 14}}),
	}
	for i, v := range variants {
		if slices.Equal(v, base) {
			t.Fatalf("variant %d: live-state difference did not change the key", i)
		}
	}
}

// TestKeyPairOrderIrrelevant: pairs arrive in search-dependent order but
// the key must be canonical.
func TestKeyPairOrderIrrelevant(t *testing.T) {
	a := buildKey(8, []int{0}, 5, []int{7}, [][2]int{{1, 9}, {4, 8}, {2, 11}}, nil)
	b := buildKey(8, []int{0}, 5, []int{7}, [][2]int{{2, 11}, {1, 9}, {4, 8}}, nil)
	if !slices.Equal(a, b) {
		t.Fatal("pair insertion order changed the key")
	}
}

func TestTableDominance(t *testing.T) {
	tb := NewTable(2, 0)
	if tb.Dominated(k(1), 5, 0) {
		t.Fatal("empty table claimed dominance")
	}
	tb.Store(k(1), 5, 0, 1)
	if !tb.Dominated(k(1), 5, 0) || !tb.Dominated(k(1), 7, 0) {
		t.Fatal("equal/worse revisit not dominated")
	}
	if tb.Dominated(k(1), 4, 0) {
		t.Fatal("strictly better revisit wrongly dominated")
	}
	tb.Store(k(1), 3, 0, 1) // improvement lands
	if !tb.Dominated(k(1), 3, 0) {
		t.Fatal("improved entry not effective")
	}
	tb.Store(k(2), 1, 0, 1000) // now full, and k(2)'s subtree is the heavier
	tb.Store(k(1), 2, 0, 1)    // improvements land in a full table without an eviction
	if tb.Len() != 2 || !tb.Dominated(k(1), 2, 0) {
		t.Fatalf("improvement at capacity: %d entries, dominated=%v", tb.Len(), tb.Dominated(k(1), 2, 0))
	}
	if tb.Dominated(k(3), 9, 9) {
		t.Fatal("absent key claimed dominance")
	}
	tb.Store(k(3), 1, 0, 1) // a new key at capacity evicts the lighter half, then lands
	if tb.Len() != 2 {
		t.Fatalf("full table holds %d entries after an eviction and a store, want 2", tb.Len())
	}
	if tb.Dominated(k(1), 9, 9) {
		t.Fatal("evicted key claimed dominance")
	}
	if !tb.Dominated(k(2), 1, 0) {
		t.Fatal("the heavier key did not survive the eviction")
	}
	if !tb.Dominated(k(3), 1, 0) {
		t.Fatal("key stored by the eviction lost")
	}
	hits, misses, stores, evictions := tb.Stats()
	if hits == 0 || misses == 0 || stores != 3 || evictions != 1 {
		t.Fatalf("stats hits=%d misses=%d stores=%d evictions=%d", hits, misses, stores, evictions)
	}
}

// TestTableEvictionKeepsHeavierHalf: a full table keeps the half of its
// entries with the heaviest weight classes, the older of equal ones, and
// a key stored again keeps its larger weight.
func TestTableEvictionKeepsHeavierHalf(t *testing.T) {
	tb := NewTable(8, 0)
	for i, w := range []int64{1, 64, 3, 64, 1, 2, 100, 64} { // classes 0 6 1 6 0 1 6 6
		tb.Store(k(uint64(i)), 0, 0, w)
	}
	tb.Store(k(0), 0, 0, 1000) // class 9
	tb.Store(k(6), 0, 0, 1)    // stays class 6
	tb.Store(k(8), 0, 0, 1)    // evicts: k(0), then the three oldest of class 6
	for i := uint64(0); i <= 8; i++ {
		want := i == 0 || i == 1 || i == 3 || i == 6 || i == 8
		if got := tb.Dominated(k(i), 0, 0); got != want {
			t.Errorf("key %d: present=%v after the eviction, want %v", i, got, want)
		}
	}
}

// TestTableBytesBound: a table bounded by SplitBytes never holds more
// storage than the budget, however many keys pass through it, evicts
// when either its entries or its key words run out, and keeps the same
// storage across evictions.
func TestTableBytesBound(t *testing.T) {
	const budget = 96 << 10
	entries, words := SplitBytes(budget)
	if entries&(entries-1) != 0 || 2*entries*entryBytes <= budget/2 {
		t.Fatalf("SplitBytes(%d) = %d entries: not the largest power of two in half the budget", budget, entries)
	}
	for _, maxLen := range []uint64{1, 3, 5} { // 5 words a key: the words run out first
		tb := NewTable(entries, words)
		full := 0
		for i := uint64(0); i < uint64(8*entries); i++ {
			tb.Store(k(i, i>>3, i>>5, i>>7, i>>9)[:1+i%maxLen], 1, 0, int64(i%97))
			b := tb.Bytes()
			if b > budget {
				t.Fatalf("after %d stores the table holds %d bytes, budget %d", i+1, b, budget)
			}
			if i == uint64(4*entries) {
				full = b
			} else if full != 0 && b != full {
				t.Fatalf("storage at its bound changed: %d -> %d bytes", full, b)
			}
		}
		if _, _, stores, evictions := tb.Stats(); stores != int64(8*entries) || evictions < 4 {
			t.Fatalf("keys of up to %d words: stores=%d evictions=%d", maxLen, stores, evictions)
		}
	}
}

// TestTablePairDominance: dominance must be component-wise over
// (cost, live) — a lower cost with a higher pressure-so-far does NOT
// dominate, and vice versa.
func TestTablePairDominance(t *testing.T) {
	tb := NewTable(0, 0)
	tb.Store(k(7, 9), 5, 3, 1)
	if !tb.Dominated(k(7, 9), 5, 3) || !tb.Dominated(k(7, 9), 6, 3) || !tb.Dominated(k(7, 9), 5, 4) {
		t.Fatal("component-wise worse revisit not dominated")
	}
	if tb.Dominated(k(7, 9), 4, 9) {
		t.Fatal("lower-cost/higher-live revisit wrongly dominated")
	}
	if tb.Dominated(k(7, 9), 9, 2) {
		t.Fatal("higher-cost/lower-live revisit wrongly dominated")
	}
	// An incomparable pair must not replace the stored one (either order
	// of arrival keeps a sound table): after storing (4,9), (5,3) must
	// still dominate revisits it dominated before.
	tb.Store(k(7, 9), 4, 9, 1)
	if !tb.Dominated(k(7, 9), 6, 3) {
		t.Fatal("incomparable Store clobbered the existing record")
	}
	// A pair dominating on both axes replaces the record.
	tb.Store(k(7, 9), 4, 2, 1)
	if !tb.Dominated(k(7, 9), 4, 2) {
		t.Fatal("dominating improvement did not land")
	}
}

// decodedKey is the state a key encodes, read back field by field.
type decodedKey struct {
	sched           []int
	pipes           []int
	inflight, ready [][2]int
}

func (d decodedKey) equal(o decodedKey) bool {
	return slices.Equal(d.sched, o.sched) && slices.Equal(d.pipes, o.pipes) &&
		slices.Equal(d.inflight, o.inflight) && slices.Equal(d.ready, o.ready)
}

// livePairs is the section a key should hold for (node, deadline)
// constraints: the live residuals, sorted by node.
func livePairs(ps [][2]int, lastIssue int) [][2]int {
	var out [][2]int
	for _, p := range ps {
		if r := Residual(p[1], lastIssue); r > 0 {
			out = append(out, [2]int{p[0], r})
		}
	}
	slices.SortFunc(out, func(a, b [2]int) int { return a[0] - b[0] })
	return out
}

// decodeKey reads a key back with the encoder's field widths. Keys are
// injective exactly when this recovers the normalized state.
func decodeKey(c *Encoder, pipes int, key []uint64) decodedKey {
	bit := uint(0)
	get := func(w uint) int {
		v := uint64(0)
		for i := uint(0); i < w; i++ {
			if key[(bit+i)/64]>>((bit+i)%64)&1 != 0 {
				v |= 1 << i
			}
		}
		bit += w
		return int(v)
	}
	var d decodedKey
	for u := 0; u < c.n; u++ {
		if get(1) != 0 {
			d.sched = append(d.sched, u)
		}
	}
	for i := 0; i < pipes; i++ {
		d.pipes = append(d.pipes, get(c.resBits))
	}
	section := func() [][2]int {
		var ps [][2]int
		for i := get(c.nodeBits); i > 0; i-- {
			node := get(c.nodeBits)
			ps = append(ps, [2]int{node, get(c.resBits)})
		}
		return ps
	}
	d.inflight, d.ready = section(), section()
	if want := (bit + 63) / 64; uint(len(key)) != want {
		panic("key has trailing words")
	}
	return d
}

// TestKeyRoundTrip: every key decodes to exactly the state it was built
// from — scheduled set, residuals, and each section's live pairs sorted
// by node — including sets and fields that straddle word boundaries.
func TestKeyRoundTrip(t *testing.T) {
	for _, n := range []int{4, 7, 63, 64, 65, 127, 128, 130} {
		var sched []int
		for u := n % 3; u < n; u += 3 {
			sched = append(sched, u)
		}
		inflight := [][2]int{{n - 1, 20}, {0, 9}, {n / 2, 11}}
		ready := [][2]int{{n / 3, 30}, {n - 2, 12}}
		pipes := []int{10 + n%7, 3, 40}
		key := buildKey(n, sched, 10, pipes, inflight, ready)
		c := NewEncoder(n, len(pipes), 2, testMaxResidual)
		got := decodeKey(c, len(pipes), key)
		want := decodedKey{sched: sched}
		for _, d := range pipes {
			want.pipes = append(want.pipes, Residual(d, 10))
		}
		want.inflight, want.ready = livePairs(inflight, 10), livePairs(ready, 10)
		if !got.equal(want) {
			t.Fatalf("n=%d: decoded %+v, want %+v", n, got, want)
		}
	}
}

// TestKeyResidualOverflowPanics: a residual the layout cannot hold must
// never be truncated into another state's key.
func TestKeyResidualOverflowPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("a residual above the layout bound was encoded")
		}
	}()
	buildKey(4, nil, 0, []int{testMaxResidual + 2}, nil, nil)
}

// TestTableConstantHash: with every key hashed to one value, every key
// lands in one probe chain and only the full-word compare tells them
// apart — so only a word-equal key may be dominated.
func TestTableConstantHash(t *testing.T) {
	tb := NewTableHash(0, 0, func([]uint64) uint64 { return 0 })
	var keys [][]uint64
	for i := uint64(0); i < 300; i++ {
		keys = append(keys, k(i), k(i, 0), k(i, 0, 0), k(i, i+1))
	}
	for i, key := range keys {
		tb.Store(key, i, 0, 1)
	}
	if tb.Len() != len(keys) {
		t.Fatalf("%d distinct keys stored as %d entries", len(keys), tb.Len())
	}
	for i, key := range keys {
		if !tb.Dominated(key, i, 0) {
			t.Fatalf("stored key %v not found", key)
		}
		if tb.Dominated(key, -1, 0) {
			t.Fatalf("key %v dominated a strictly better visit", key)
		}
		if tb.Dominated(append(slices.Clone(key), 1<<63), 1<<20, 0) {
			t.Fatalf("key %v extended by a word claimed dominance", key)
		}
	}
	for i := uint64(300); i < 310; i++ {
		if tb.Dominated(k(i), 1<<20, 0) {
			t.Fatalf("unstored key %d claimed dominance", i)
		}
	}
}
