package memo

import (
	"fmt"
	"math/rand"
	"slices"
	"sort"
	"testing"
)

// refEntry is one entry of a table as the reference sees it.
type refEntry struct {
	key   string
	class int
}

// entriesOf lists a table's entries in arena order.
func entriesOf(tb *Table) []refEntry {
	out := make([]refEntry, len(tb.ents))
	for i, e := range tb.ents {
		out[i] = refEntry{fmt.Sprint(tb.key(i)), e.class()}
	}
	return out
}

// heavierHalf is what one eviction should leave of es: the len/2
// entries of the heaviest classes, the earlier of equal ones, in their
// original order. It selects by a stable sort, independently of the
// table's class counting.
func heavierHalf(es []refEntry) []refEntry {
	idx := make([]int, len(es))
	for i := range idx {
		idx[i] = i
	}
	sort.SliceStable(idx, func(a, b int) bool { return es[idx[a]].class > es[idx[b]].class })
	idx = idx[:len(es)/2]
	slices.Sort(idx)
	out := make([]refEntry, len(idx))
	for i, j := range idx {
		out[i] = es[j]
	}
	return out
}

// TestTableMatchesReference drives random Store and Dominated sequences
// over keys of one to four words and weights over many powers of two,
// on small tables that evict often and on one that never fills, and
// checks every step against an unbounded reference map:
//
//   - every dominance claim is justified by an earlier Store of that key
//     whose record dominates the visit;
//   - until a table first evicts, it answers exactly as the map does
//     under the table's one-record-per-key rule;
//   - each eviction leaves exactly the heavier half of the entries, and
//     each entry's class is the largest weight stored since it entered;
//   - the entry and word bounds always hold.
func TestTableMatchesReference(t *testing.T) {
	hashes := []struct {
		name string
		hash func([]uint64) uint64
	}{
		{"mixed", hashWords},
		// One probe chain and three tags: only the full compare tells
		// keys apart.
		{"weak", func(key []uint64) uint64 { return key[len(key)-1] % 3 }},
	}
	// Every bound but the first is too small for the refKeys keys. Six
	// words make a four-word key halve the table twice.
	bounds := [][2]int{{0, 0}, {2, 0}, {4, 0}, {8, 6}, {8, 12}, {16, 0}, {16, 24}, {32, 0}}
	for _, h := range hashes {
		for _, bd := range bounds {
			// A table sized up front for every key answers as one that grows.
			for _, first := range []int{0, refKeys} {
				name := fmt.Sprintf("%s/%dx%d", h.name, bd[0], bd[1])
				if first > 0 {
					name += "/sized"
				}
				t.Run(name, func(t *testing.T) {
					tb := NewTableHash(bd[0], bd[1], h.hash)
					tb.SizeFirst(first)
					checkAgainstReference(t, tb, rand.New(rand.NewSource(int64(bd[0]*31+bd[1]))))
				})
			}
		}
	}
}

// refKeys is how many distinct keys the reference sequences use.
const refKeys = 64

func checkAgainstReference(t *testing.T, tb *Table, rng *rand.Rand) {
	stored := map[string][]record{} // every record stored under a key
	kept := map[string]record{}     // the record a table that never evicts keeps
	class := map[string]int{}       // the largest class stored since the key entered the table
	for op := 0; op < 3000; op++ {
		id := uint64(rng.Intn(refKeys / 4))
		key := k(id, id*7+1, id*13+2, id*31+3)[:1+rng.Intn(4)] // prefixes of one another too
		ks := fmt.Sprint(key)
		cost, live := rng.Intn(10), rng.Intn(4)
		_, _, _, evicted := tb.Stats()
		if rng.Intn(2) == 0 {
			got := tb.Dominated(key, cost, live)
			justified := slices.ContainsFunc(stored[ks], func(r record) bool { return r.dominates(int32(cost), int32(live)) })
			if got && !justified {
				t.Fatalf("op %d: %v at (%d, %d) dominated, but no store of it dominates: %v", op, key, cost, live, stored[ks])
			}
			if r, ok := kept[ks]; evicted == 0 && got != (ok && r.dominates(int32(cost), int32(live))) {
				t.Fatalf("op %d: %v at (%d, %d) dominated=%v, the reference kept %v", op, key, cost, live, got, kept[ks])
			}
			continue
		}
		weight := int64(1)<<rng.Intn(20) + int64(rng.Intn(1000))
		rec := record{int32(cost), int32(live)}
		stored[ks] = append(stored[ks], rec)
		if r, ok := kept[ks]; !ok || rec.dominates(r.cost, r.live) {
			kept[ks] = rec
		}
		before := entriesOf(tb)
		present := slices.ContainsFunc(before, func(e refEntry) bool { return e.key == ks })
		c := 0 // ⌊log₂ weight⌋
		for w := weight; w > 1; w >>= 1 {
			c++
		}
		if !present || c > class[ks] {
			class[ks] = c
		}
		tb.Store(key, cost, live, weight)

		after := entriesOf(tb)
		_, _, _, now := tb.Stats()
		if !present {
			want := before
			for range now - evicted {
				want = heavierHalf(want)
			}
			want = append(want, refEntry{ks, class[ks]})
			if !slices.Equal(after, want) {
				t.Fatalf("op %d: %d eviction(s) storing %v left\n%v\nwant\n%v", op, now-evicted, key, after, want)
			}
		}
		for _, e := range after {
			if e.class != class[e.key] {
				t.Fatalf("op %d: %s has class %d, want %d", op, e.key, e.class, class[e.key])
			}
		}
		if tb.Len() > tb.maxEntries || len(tb.arena) > tb.maxWords {
			t.Fatalf("op %d: %d entries and %d words, bound %d and %d", op, tb.Len(), len(tb.arena), tb.maxEntries, tb.maxWords)
		}
	}
	if _, _, _, evictions := tb.Stats(); (tb.maxEntries < refKeys || tb.maxWords < refKeys) != (evictions > 0) {
		t.Fatalf("a table of %d entries and %d words for %d keys evicted %d times", tb.maxEntries, tb.maxWords, refKeys, evictions)
	}
}

// TestTableEvictionAllocs: once a table has grown to its bound, the
// stores up to and including one that evicts allocate nothing.
func TestTableEvictionAllocs(t *testing.T) {
	tb := NewTable(64, 160) // both bounds bind: keys average 2.5 words
	keys := make([][]uint64, 1<<12)
	for i := range keys {
		u := uint64(i)
		keys[i] = k(u, u*3, u*5, u*7)[:1+i%4]
	}
	next := 0
	storeThroughEviction := func() {
		_, _, _, before := tb.Stats()
		for evictions := before; evictions == before; _, _, _, evictions = tb.Stats() {
			tb.Store(keys[next%len(keys)], 1, 0, int64(next%37))
			next++
		}
	}
	for range 8 {
		storeThroughEviction() // grow to the bound
	}
	if allocs := testing.AllocsPerRun(20, storeThroughEviction); allocs != 0 {
		t.Fatalf("stores through an eviction allocated %.1f times", allocs)
	}
}

// TestTableSizeFirst: a table sized for its keys before its first Store
// allocates its entries, slots and arena once, never past its bound nor
// past maxFirst entries.
func TestTableSizeFirst(t *testing.T) {
	keys := make([][]uint64, 300)
	for i := range keys {
		keys[i] = k(uint64(i), uint64(i)*7)
	}
	fill := func(first, bound int) *Table {
		tb := NewTable(bound, 0)
		tb.SizeFirst(first)
		for _, key := range keys {
			tb.Store(key, 1, 0, 1)
		}
		return tb
	}
	if allocs := testing.AllocsPerRun(10, func() { fill(len(keys), 0) }); allocs != 4 {
		t.Fatalf("a table sized for its %d keys allocated %.0f times, want 4: the table, its entries, slots and arena", len(keys), allocs)
	}
	if grown := testing.AllocsPerRun(10, func() { fill(0, 0) }); grown <= 4 {
		t.Fatalf("a table grown to %d keys allocated only %.0f times", len(keys), grown)
	}
	const bound = 64
	if tb, grown := fill(1<<20, bound), fill(0, bound); tb.Len() > bound || tb.Bytes() > grown.Bytes() {
		t.Fatalf("a table bounded to %d entries and sized for 2²⁰ holds %d entries in %d bytes, grown %d bytes",
			bound, tb.Len(), tb.Bytes(), grown.Bytes())
	}
	first := func(entries int) int {
		tb := NewTable(0, 0)
		tb.SizeFirst(entries)
		tb.Store(keys[0], 1, 0, 1)
		return tb.Bytes()
	}
	if huge, capped := first(1<<20), first(maxFirst); huge != capped {
		t.Fatalf("a table sized for 2²⁰ entries took %d bytes at its first Store, one sized for %d took %d", huge, maxFirst, capped)
	}
}
