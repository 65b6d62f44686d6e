package memo

import (
	"slices"
	"testing"
)

// FuzzCanonKey drives the key encoder with arbitrary states decoded
// from raw bytes and checks its two defining guarantees:
//
//   - renumbered isomorphic states collide: shifting every absolute tick
//     (deadlines AND lastIssue) by the same delta, or permuting the pair
//     insertion order, must not change the key words;
//   - distinct residual pipeline states do not collide: bumping any LIVE
//     pipe residual, in-flight residual, ready residual, or the
//     scheduled set must change the key words.
func FuzzCanonKey(f *testing.F) {
	f.Add([]byte{8, 3, 0b10100101, 2, 12, 9, 2, 1, 14, 4, 11, 1, 6, 13})
	f.Add([]byte{1, 0, 0, 1, 5, 0, 0})
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		r := byteReader{data: data}
		n := int(r.next())%130 + 2 // 2..131 nodes: scheduled sets of one to three words
		lastIssue := int(r.next()) % 100
		shift := int(r.next())%50 + 1

		var scheduled []int
		maskByte := r.next()
		for u := 0; u < n; u++ {
			if maskByte&(1<<(u%8)) != 0 {
				scheduled = append(scheduled, u)
			}
			if u%8 == 7 {
				maskByte = r.next()
			}
		}
		numPipes := int(r.next())%4 + 1
		pipeDeadline := make([]int, numPipes)
		for i := range pipeDeadline {
			pipeDeadline[i] = lastIssue - 3 + int(r.next())%12
		}
		var inflight, ready [][2]int
		for i := 0; i < int(r.next())%4; i++ {
			inflight = append(inflight, [2]int{int(r.next()) % n, lastIssue - 2 + int(r.next())%10})
		}
		for i := 0; i < int(r.next())%3; i++ {
			ready = append(ready, [2]int{int(r.next()) % n, lastIssue - 2 + int(r.next())%10})
		}
		dedupeNodes(inflight)
		dedupeNodes(ready)

		base := buildKey(n, scheduled, lastIssue, pipeDeadline, inflight, ready)

		// The key decodes back to exactly the normalized state.
		want := decodedKey{sched: scheduled, inflight: livePairs(inflight, lastIssue), ready: livePairs(ready, lastIssue)}
		for _, d := range pipeDeadline {
			want.pipes = append(want.pipes, Residual(d, lastIssue))
		}
		if got := decodeKey(NewEncoder(n, numPipes, 2, testMaxResidual), numPipes, base); !got.equal(want) {
			t.Fatalf("key decodes to %+v, want %+v", got, want)
		}

		// Isomorphism 1: time translation.
		shifted := buildKey(n, scheduled, lastIssue+shift,
			shiftAll(pipeDeadline, shift), shiftPairs(inflight, shift), shiftPairs(ready, shift))
		if !slices.Equal(base, shifted) {
			t.Fatalf("time-shifted state got a different key\nstate: n=%d sched=%v last=%d pipes=%v in=%v rdy=%v shift=%d",
				n, scheduled, lastIssue, pipeDeadline, inflight, ready, shift)
		}

		// Isomorphism 2: pair insertion order, in both sections.
		if len(inflight) > 1 {
			perm := append([][2]int{inflight[len(inflight)-1]}, inflight[:len(inflight)-1]...)
			if !slices.Equal(buildKey(n, scheduled, lastIssue, pipeDeadline, perm, ready), base) {
				t.Fatalf("pair order changed the key: %v", inflight)
			}
		}
		if len(ready) > 1 {
			perm := append([][2]int{ready[len(ready)-1]}, ready[:len(ready)-1]...)
			if !slices.Equal(buildKey(n, scheduled, lastIssue, pipeDeadline, inflight, perm), base) {
				t.Fatalf("pair order changed the key: %v", ready)
			}
		}

		// Distinctness: bump each LIVE constraint and require a new key.
		for i := range pipeDeadline {
			mut := append([]int(nil), pipeDeadline...)
			if Residual(mut[i], lastIssue) == 0 {
				mut[i] = lastIssue + 2 // bring a dead constraint to life
			} else {
				mut[i]++
			}
			if slices.Equal(buildKey(n, scheduled, lastIssue, mut, inflight, ready), base) {
				t.Fatalf("pipe %d residual change did not change the key (pipes %v -> %v, last=%d)",
					i, pipeDeadline, mut, lastIssue)
			}
		}
		for i := range inflight {
			if Residual(inflight[i][1], lastIssue) == 0 {
				continue // dead constraint: vanishing by design
			}
			mut := append([][2]int(nil), inflight...)
			mut[i][1]++
			if slices.Equal(buildKey(n, scheduled, lastIssue, pipeDeadline, mut, ready), base) {
				t.Fatalf("in-flight %v residual change did not change the key", inflight[i])
			}
		}
		for i := range ready {
			if Residual(ready[i][1], lastIssue) == 0 {
				continue
			}
			mut := append([][2]int(nil), ready...)
			mut[i][1]++
			if slices.Equal(buildKey(n, scheduled, lastIssue, pipeDeadline, inflight, mut), base) {
				t.Fatalf("ready %v residual change did not change the key", ready[i])
			}
		}
		if len(scheduled) < n {
			grown := scheduled
			for u := 0; u < n; u++ {
				if !contains(scheduled, u) {
					grown = append(append([]int(nil), scheduled...), u)
					break
				}
			}
			if slices.Equal(buildKey(n, grown, lastIssue, pipeDeadline, inflight, ready), base) {
				t.Fatalf("scheduled-set change did not change the key (%v -> %v)", scheduled, grown)
			}
		}
	})
}

type byteReader struct {
	data []byte
	pos  int
}

func (r *byteReader) next() byte {
	if r.pos >= len(r.data) {
		// Deterministic tail so short inputs still decode full states.
		r.pos++
		return byte(r.pos * 37)
	}
	b := r.data[r.pos]
	r.pos++
	return b
}

func shiftAll(xs []int, d int) []int {
	out := make([]int, len(xs))
	for i, x := range xs {
		out[i] = x + d
	}
	return out
}

func shiftPairs(ps [][2]int, d int) [][2]int {
	out := make([][2]int, len(ps))
	for i, p := range ps {
		out[i] = [2]int{p[0], p[1] + d}
	}
	return out
}

// dedupeNodes keeps, for duplicate nodes, only the larger deadline —
// mirroring the search, where a node contributes one constraint.
func dedupeNodes(ps [][2]int) {
	for i := range ps {
		for j := i + 1; j < len(ps); j++ {
			if ps[j][0] == ps[i][0] {
				if ps[j][1] > ps[i][1] {
					ps[i][1] = ps[j][1]
				}
				ps[j][1] = 0 // expires; Pair drops it
			}
		}
	}
}

func contains(xs []int, v int) bool {
	for _, x := range xs {
		if x == v {
			return true
		}
	}
	return false
}
