// Package memo is the search's transposition/dominance table. Different
// branches of the B&B permutation tree frequently reach the SAME residual
// scheduling problem — the same set of instructions scheduled, the same
// pipelines busy for the same number of future ticks, the same producers
// still in flight — having paid different NOP costs to get there. The
// minimum cost of COMPLETING such a state depends only on the state, so
// once one branch has fully explored it, any later branch arriving with
// an equal-or-worse cost-so-far is dominated and can be pruned.
//
// The table is keyed by a canonical encoding of the state (Encoder),
// designed so that two states with identical completion spaces collide:
//
//   - All timing is RELATIVE to a base tick before every future issue:
//     the last issue tick on the in-order machine, the window's base on
//     the scoreboard. Two occurrences of the same residual problem at
//     different absolute ticks — "renumbered" states, the common case
//     along permuted prefixes — produce the same key, because a
//     completion's ticks beyond the base are translation-invariant.
//   - Expired constraints vanish. A pipeline whose enqueue conflict has
//     drained, or an in-flight producer whose result is already
//     available, contributes nothing, so states differing only in dead
//     history collide.
//   - Live constraints are encoded exactly. Distinct residual pipeline
//     states, in-flight latencies, or external ready times produce
//     distinct keys (every field has a fixed width and both pair
//     sections are count-prefixed, so a key decodes to exactly one
//     state), so dominance is never claimed across states with
//     different futures.
//
// A key is a run of uint64 words, bit-packed with field widths fixed
// once per search: N bits of scheduled set, then the mode's fixed-width
// residual fields and its (node, residual) pair sections, each a count
// and its pairs sorted by node. The in-order modes write one residual
// per pipeline, then the in-flight and the external-ready sections; the
// scoreboard mode writes residual fields only: its top window ticks, one
// per pipeline and one per frontier node (DESIGN.md §11 has both
// layouts). The table is
// open addressing over a flat key arena and compares every key word on a
// hash match, so a hash collision can never claim dominance.
//
// Soundness of the prune (DESIGN.md §11): entries are stored only after
// a state's subtree has been fully explored (never on a curtailed
// subtree), and an entry records the cost-so-far at which that happened.
// A later visit with cost ≥ recorded cost cannot contain a completion
// that beats what the recorded visit already saw or pruned against a
// then-weaker-or-equal incumbent, so discarding it never changes the
// search's returned cost — only the work done to find it.
//
// The table is bounded: once full, storing a new key evicts the lighter
// half of the entries in place and keeps the storage. Each entry carries
// the weight of its subtree, the Ω-calls it took to explore, so the
// states near the root, which are the expensive ones to prove again,
// outlive the cheap ones near the leaves. Forgetting an entry only
// forgoes prunes, so eviction is always sound, and it is deterministic,
// so the search stays reproducible.
package memo

import (
	"fmt"
	"math"
	"math/bits"
	"slices"
	"unsafe"
)

// Residual converts an absolute tick constraint to the canonical
// relative form: the number of ticks after lastIssue+1 (the earliest
// possible next issue) the constraint still binds. Expired constraints
// clamp to zero, making them disappear from keys.
func Residual(deadline, lastIssue int) int {
	if r := deadline - (lastIssue + 1); r > 0 {
		return r
	}
	return 0
}

// Encoder writes one state's key into caller-owned words. The caller
// starts with Begin and the scheduled set, then writes its residual
// fields (Value, Values) and pair sections (Pair, then SealPairs) in an
// order of its own that is the same for every key, and reads the result
// with Key. Reuse one Encoder per searcher.
type Encoder struct {
	n        int
	nodeBits uint // width of a node number and of a pair count
	resBits  uint // width of a residual
	maxRes   int
	words    int // the longest key, in words

	dst   []uint64 // the key's words, at full capacity
	w     int      // words of dst filled
	cur   uint64   // the word being filled
	peak  int      // the largest residual written since Begin
	off   uint     // bits of cur filled
	pairs [][2]int // (node, residual) for the current section
}

// NewEncoder fixes the field widths for keys of an n-node block with at
// most the given number of residual fields and exactly the given number
// of pair sections, whose residuals never exceed maxResidual. A node may
// appear in at most one section. A residual above maxResidual panics
// rather than alias another state.
func NewEncoder(n, fields, sections, maxResidual int) *Encoder {
	e := &Encoder{
		n:        n,
		nodeBits: uint(max(bits.Len(uint(n)), 1)),
		resBits:  uint(max(bits.Len(uint(max(maxResidual, 0))), 1)),
		maxRes:   maxResidual,
	}
	total := uint(n) + uint(fields)*e.resBits + uint(sections)*e.nodeBits
	if sections > 0 {
		total += uint(n) * (e.nodeBits + e.resBits) // every node in some section
	}
	e.words = int((total + 63) / 64)
	return e
}

// Words is the length of the longest key, so a caller can size dst.
func (e *Encoder) Words() int { return e.words }

// SchedWords is the length of the scheduled-set bitset Begin takes.
func SchedWords(n int) int { return (n + 63) / 64 }

// Begin starts a key in dst, which must have capacity for Words words
// (its contents are overwritten), from the scheduled set: bit u of
// scheduled is set iff node u is scheduled, and scheduled has
// SchedWords(n) words with no bit at or above n.
func (e *Encoder) Begin(dst, scheduled []uint64) {
	full := e.n / 64
	e.dst = dst[:cap(dst)]
	e.w = copy(e.dst, scheduled[:full])
	e.cur, e.off, e.peak = 0, uint(e.n%64), 0
	if e.off > 0 {
		e.cur = scheduled[full]
	}
	e.pairs = e.pairs[:0]
}

// put appends the low w bits of v (1 ≤ w < 64, v < 2^w).
func (e *Encoder) put(v uint64, w uint) {
	e.cur |= v << e.off
	e.off += w
	if e.off >= 64 {
		e.dst[e.w] = e.cur
		e.w++
		e.off -= 64
		e.cur = v >> (w - e.off) // the bits that did not fit (none when off is 0)
	}
}

// Value appends one residual-width field: 0 ≤ r ≤ the layout's
// maxResidual. Key checks the bound once for the whole key, which keeps
// Value small enough to inline.
func (e *Encoder) Value(r int) {
	e.peak = max(e.peak, r)
	e.put(uint64(r), e.resBits)
}

// Values appends one residual-width field per element of rs.
func (e *Encoder) Values(rs []int) {
	for _, r := range rs {
		e.Value(r)
	}
}

// Pair records one (node, residual) constraint for the CURRENT section.
// Zero residuals are dropped (expired constraints must not perturb the
// key); nodes may arrive in any order (pairs are sorted at seal time).
func (e *Encoder) Pair(node, residual int) {
	if residual > 0 {
		e.pairs = append(e.pairs, [2]int{node, residual})
	}
}

// SealPairs closes the current (node, residual) section, writing its
// count and its pairs sorted by node, and opens the next. Call it once
// per section, also for an empty one.
func (e *Encoder) SealPairs() {
	// Insertion sort by node: sections are small (live constraints only)
	// and a node appears at most once per section.
	ps := e.pairs
	for i := 1; i < len(ps); i++ {
		for j := i; j > 0 && ps[j][0] < ps[j-1][0]; j-- {
			ps[j], ps[j-1] = ps[j-1], ps[j]
		}
	}
	e.put(uint64(len(ps)), e.nodeBits)
	for _, p := range ps {
		e.put(uint64(p[0]), e.nodeBits)
		e.Value(p[1])
	}
	e.pairs = ps[:0]
}

// Key returns the finished key: dst as passed to Begin, resliced. Call
// it once per Begin. It panics when a residual exceeded the layout's
// bound: the truncated field would alias another state's key.
func (e *Encoder) Key() []uint64 {
	if e.peak > e.maxRes {
		panic(fmt.Sprintf("memo: residual %d exceeds the key layout's %d", e.peak, e.maxRes))
	}
	if e.off > 0 {
		e.dst[e.w] = e.cur
		e.w++
	}
	return e.dst[:e.w]
}

// DefaultCap is the default bound on table entries. An entry costs 16
// bytes of entry, 8 of slot index and 8 per key word: 40–46 bytes on the
// example machine's heaviest blocks, so a full table would hold 10–12 MB.
// The in-order searches never come near it.
const DefaultCap = 1 << 18

// minEntries is the fewest entries a table makes room for at its first
// Store, maxFirst the most: a table sized for more starts at maxFirst
// and doubles from there, so a large block's first Store costs at most
// maxFirst entries, their slots and keys.
const minEntries, maxFirst = 32, 512

// entryBytes is what one entry costs beyond its key words: the entry
// itself and two uint32 slots (the slot array stays at most half full).
const entryBytes = int(unsafe.Sizeof(entry{})) + 2*4

// SplitBytes divides a storage budget into a table bound: the largest
// power-of-two entry count whose entries and slots take at most half of
// bytes, and as many key words as the rest holds. A table with that
// bound never holds more than bytes (Bytes), for budgets of at least
// 64·entryBytes.
func SplitBytes(bytes int) (entries, words int) {
	entries = 1
	for 2*entries*entryBytes <= bytes/2 {
		entries *= 2
	}
	return entries, (bytes - entries*entryBytes) / 8
}

// record is one stored visit: the (cost-so-far, peak-pressure-so-far)
// pair at which the state's subtree was fully explored. Paper-mode
// searches pass live=0 everywhere, collapsing the pair back to the
// single-cost table.
type record struct {
	cost int32
	live int32
}

// dominates reports component-wise dominance: r is at least as good as
// (cost, live) on BOTH axes. A packed or summed comparison would be
// unsound — a visit with lower cost but higher pressure-so-far does not
// bound the lexicographic or constrained value of a later visit's
// completions (DESIGN.md §15 carries the full argument).
func (r record) dominates(cost, live int32) bool {
	return r.cost <= cost && r.live <= live
}

// entry is one stored state. Its key occupies arena[off:] up to the next
// entry's off (or the arena's end): entries are appended in arena order,
// and eviction keeps both in that order.
type entry struct {
	tag uint32 // weight class in the top bits, hashBits of the key's hash below
	off uint32
	rec record
}

// An entry's tag holds its weight class above the low hashBits bits of
// the key's hash, which the probe checks before the words.
const (
	hashBits   = 24
	hashMask   = 1<<hashBits - 1
	numClasses = 1 << (32 - hashBits)
)

// weightClass is ⌊log₂ weight⌋, 0 for a weight below 2: eviction treats
// subtrees within the same power of two of Ω-calls as equally costly.
func weightClass(weight int64) int {
	return bits.Len64(uint64(max(weight, 1))) - 1
}

func (e entry) class() int { return int(e.tag >> hashBits) }

// Table is a bounded map from state key to the best (cost-so-far,
// peak-pressure-so-far) pair at which the state's subtree has been fully
// explored. It is NOT safe for concurrent use; parallel searches hold one
// per worker. A table allocates nothing until its first Store, then
// doubles its storage as it fills, never past its bound, and keeps that
// storage through every eviction.
type Table struct {
	slots []uint32 // open addressing, linear probing: entry index + 1, 0 = empty
	ents  []entry
	arena []uint64

	maxEntries, maxWords int
	first                int // entries the first Store makes room for
	hash                 func([]uint64) uint64

	hits      int64
	misses    int64
	stores    int64
	evictions int64 // times a full table dropped its lighter half to admit a new key
	bytes     int   // the most storage held at once
}

// NewTable creates a table bounded to capEntries keys (<= 0 selects
// DefaultCap) and, when capWords > 0, to capWords key words in all.
func NewTable(capEntries, capWords int) *Table {
	return NewTableHash(capEntries, capWords, hashWords)
}

// NewTableHash is NewTable with a caller-chosen key hash. A degenerate
// hash puts every key in one probe chain, which shows that the full-key
// compare alone keeps the table exact.
func NewTableHash(capEntries, capWords int, hash func(key []uint64) uint64) *Table {
	if capEntries <= 0 {
		capEntries = DefaultCap
	}
	if capWords <= 0 {
		capWords = math.MaxInt
	}
	return &Table{maxEntries: capEntries, maxWords: capWords, first: min(minEntries, capEntries), hash: hash}
}

// SizeFirst makes the table's first Store make room for the given number
// of entries (within [minEntries, maxFirst] and the bound), each with a
// key as long as the first one, instead of doubling up to them.
func (t *Table) SizeFirst(entries int) {
	t.first = min(max(entries, minEntries), maxFirst, t.maxEntries)
}

// hashWords mixes the key's length and words.
func hashWords(key []uint64) uint64 {
	h := uint64(len(key))
	for _, w := range key {
		h = (h ^ w) * 0x9e3779b97f4a7c15
		h ^= h >> 32
	}
	h *= 0xbf58476d1ce4e5b9
	return h ^ h>>31
}

func (t *Table) key(i int) []uint64 {
	end := len(t.arena)
	if i+1 < len(t.ents) {
		end = int(t.ents[i+1].off)
	}
	return t.arena[t.ents[i].off:end]
}

// find returns the slot holding key, or the empty slot where it would go,
// and the entry index (-1 when absent). The table must have slots.
func (t *Table) find(key []uint64, h uint64) (slot, idx int) {
	mask := len(t.slots) - 1
	for i := int(h>>32) & mask; ; i = (i + 1) & mask {
		s := t.slots[i]
		if s == 0 {
			return i, -1
		}
		if t.ents[s-1].tag&hashMask == uint32(h)&hashMask && slices.Equal(t.key(int(s-1)), key) {
			return i, int(s - 1)
		}
	}
}

// Dominated reports whether a previous visit to key completed its
// subtree at cost-so-far <= cost AND peak-pressure-so-far <= live —
// i.e. whether the current visit is dominated on both axes and may be
// pruned. Modes that do not track pressure pass live = 0.
func (t *Table) Dominated(key []uint64, cost, live int) bool {
	if len(t.ents) > 0 {
		if _, i := t.find(key, t.hash(key)); i >= 0 && t.ents[i].rec.dominates(int32(cost), int32(live)) {
			t.hits++
			return true
		}
	}
	t.misses++
	return false
}

// Store records that key's subtree has been fully explored at the given
// (cost-so-far, peak-pressure-so-far), and that exploring it took weight
// Ω-calls. The table keeps one pair per key: a new pair replaces the old
// only when it dominates it component-wise (any genuinely reached pair
// makes Dominated sound, so which pair is kept is purely a hit-rate
// heuristic), and a key stored again keeps the larger weight. A new key
// that finds the table full, in entries or in key words, first evicts
// the lighter half (evict). The table copies key.
func (t *Table) Store(key []uint64, cost, live int, weight int64) {
	rec := record{cost: int32(cost), live: int32(live)}
	h, class := t.hash(key), weightClass(weight)
	if t.slots == nil {
		t.resize(t.first)
	}
	slot, i := t.find(key, h)
	if i >= 0 {
		e := &t.ents[i]
		if rec.dominates(e.rec.cost, e.rec.live) {
			e.rec = rec
		}
		if class > e.class() {
			e.tag = uint32(class)<<hashBits | e.tag&hashMask
		}
		return
	}
	if len(t.ents) == t.maxEntries || len(t.arena)+len(key) > t.maxWords {
		t.evict(len(key))
		slot, _ = t.find(key, h)
	}
	if n := len(t.ents); n == cap(t.ents) {
		t.resize(min(2*n, t.maxEntries))
		slot, _ = t.find(key, h)
	}
	if need := len(t.arena) + len(key); need > cap(t.arena) {
		arena := make([]uint64, len(t.arena), min(max(2*cap(t.arena), t.first*len(key), need), t.maxWords))
		copy(arena, t.arena)
		t.arena = arena
		t.noteBytes()
	}
	t.ents = append(t.ents, entry{tag: uint32(class)<<hashBits | uint32(h)&hashMask, off: uint32(len(t.arena)), rec: rec})
	t.arena = append(t.arena, key...)
	t.stores++
	t.slots[slot] = uint32(len(t.ents))
}

// resize moves the entries into storage for the given number, with at
// least twice as many slots so the load stays at or below one half.
func (t *Table) resize(entries int) {
	ents := make([]entry, len(t.ents), entries)
	copy(ents, t.ents)
	t.ents = ents
	t.slots = make([]uint32, max(64, 1<<bits.Len(uint(2*entries-1))))
	t.rehash()
	t.noteBytes()
}

// rehash rebuilds the slot array over the entries, in place.
func (t *Table) rehash() {
	clear(t.slots)
	mask := len(t.slots) - 1
	for i := range t.ents {
		j := int(t.hash(t.key(i))>>32) & mask
		for t.slots[j] != 0 {
			j = (j + 1) & mask
		}
		t.slots[j] = uint32(i + 1)
	}
}

// noteBytes records the storage held now in the high-water mark.
func (t *Table) noteBytes() {
	t.bytes = max(t.bytes, 4*cap(t.slots)+int(unsafe.Sizeof(entry{}))*cap(t.ents)+8*cap(t.arena))
}

// evict keeps the half of the entries with the heaviest weight classes,
// the older of equal ones first, and repeats until a key of the given
// number of words fits. It compacts the entries and the arena in place,
// in arena order, and rehashes the slots, so it allocates nothing.
func (t *Table) evict(words int) {
	for {
		t.keepHeavierHalf()
		t.evictions++
		if len(t.ents) == 0 || len(t.arena)+words <= t.maxWords {
			break
		}
	}
	t.rehash()
}

// keepHeavierHalf drops all but the heaviest half of the entries.
func (t *Table) keepHeavierHalf() {
	var count [numClasses]int
	for _, e := range t.ents {
		count[e.class()]++
	}
	// Every entry above class cut stays, and the oldest take of class cut.
	cut, take := numClasses, len(t.ents)/2
	for take > 0 {
		cut--
		if count[cut] >= take {
			break
		}
		take -= count[cut]
	}
	n, w := 0, 0
	for i, e := range t.ents {
		c := e.class()
		if c < cut || c == cut && take == 0 {
			continue
		}
		if c == cut {
			take--
		}
		key := t.key(i) // ends at ents[i+1].off, which the compaction has not reached
		e.off = uint32(w)
		t.ents[n] = e
		w += copy(t.arena[w:], key)
		n++
	}
	t.ents, t.arena = t.ents[:n], t.arena[:w]
}

// Len returns the number of stored states.
func (t *Table) Len() int { return len(t.ents) }

// Bytes returns the most storage the table has held at once.
func (t *Table) Bytes() int { return t.bytes }

// Stats returns cumulative lookup/store counters: dominance hits, lookup
// misses, stored states, and evictions from a full table (one per halving).
func (t *Table) Stats() (hits, misses, stores, evictions int64) {
	return t.hits, t.misses, t.stores, t.evictions
}
