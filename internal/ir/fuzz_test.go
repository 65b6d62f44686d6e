package ir

import (
	"strings"
	"testing"
)

// FuzzParseTuple checks the tuple-line parser never panics and that
// anything it accepts round-trips through String.
func FuzzParseTuple(f *testing.F) {
	seeds := []string{
		"1: Const 15",
		"2: Store #b, @1",
		"3: Load #a",
		"4: Mul @1, @3",
		"5: Nop",
		"6: Neg @4",
		"7: Add -3, 12",
		"x: bogus",
		"1: Load",
		"",
		"1: Mul @1, @2, @3",
	}
	for _, s := range seeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, line string) {
		tp, err := ParseTuple(line)
		if err != nil {
			return
		}
		back, err := ParseTuple(tp.String())
		if err != nil {
			t.Fatalf("accepted %q -> %q which does not reparse: %v", line, tp.String(), err)
		}
		if back != tp {
			t.Fatalf("round trip changed tuple: %v vs %v", tp, back)
		}
	})
}

// FuzzParseBlocks checks the block parser never panics and that accepted
// inputs render back to re-parseable, equivalent text.
func FuzzParseBlocks(f *testing.F) {
	seeds := []string{
		"one:\n  1: Load #a\n  2: Store #b, @1\n",
		"; comment\n\n1: Const 3\n",
		"a:\n1: Load #x\n\nb:\n1: Load #y\n",
		"bad:\n  1: Mul @2, @3\n",
	}
	for _, s := range seeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, src string) {
		blocks, err := ParseBlocks(strings.NewReader(src))
		if err != nil {
			return
		}
		rendered := formatBlocks(blocks)
		again, err := ParseBlocks(strings.NewReader(rendered))
		if err != nil {
			t.Fatalf("render of accepted input does not reparse: %v\n%s", err, rendered)
		}
		if formatBlocks(again) != rendered {
			t.Fatalf("render not idempotent:\n%s\nvs\n%s", rendered, formatBlocks(again))
		}
	})
}

// FuzzParseBlock checks the single-block entry point never panics and
// that every accepted block is structurally valid — the invariant the
// scheduling pipeline's degradation ladder relies on: anything that
// parses can be scheduled, and anything broken fails with a typed error
// rather than a crash.
func FuzzParseBlock(f *testing.F) {
	seeds := []string{
		"1: Const 15\n2: Store #b, @1\n",
		"blk:\n  1: Load #a\n  2: Mul @1, @1\n",
		"1: Load #a\n1: Load #a\n",           // duplicate ID
		"1: Mul @2, @2\n",                    // forward reference
		"a:\n1: Load #x\n\nb:\n1: Load #y\n", // two blocks: must be rejected
		"",
		"; just a comment\n",
	}
	for _, s := range seeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, src string) {
		b, err := ParseBlock(src)
		if err != nil {
			return
		}
		if err := b.Validate(); err != nil {
			t.Fatalf("ParseBlock accepted an invalid block: %v\n%s", err, src)
		}
		if _, err := ParseBlock(b.String()); err != nil {
			t.Fatalf("accepted block does not reparse: %v\n%s", err, b.String())
		}
	})
}
