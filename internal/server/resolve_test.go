package server

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"strings"
	"testing"

	"pipesched"
	"pipesched/internal/machine"
)

// keyCase is one request of the key-stability corpus.
type keyCase struct {
	name string
	req  *Request
}

// keyCorpus covers every input the key hashes: source and tuples, a
// preset and its equivalent text machine, every sched mode, every delay
// mode, each boolean option and the numeric options, plus the fields the
// key leaves out.
func keyCorpus() []keyCase {
	with := func(name string, edit func(*Request)) keyCase {
		r := tupleRequest(1)
		edit(r)
		return keyCase{name, r}
	}
	cs := []keyCase{
		with("tuples", func(*Request) {}),
		with("source", func(r *Request) { r.Tuples, r.Source = "", "b = 15\na = b * a\n" }),
		with("preset-example", func(r *Request) { r.Machine.Preset = "example" }),
		with("text-simulation", func(r *Request) { r.Machine = MachineSpec{Text: machine.SimulationMachine().String()} }),
		with("text-example", func(r *Request) { r.Machine = MachineSpec{Text: machine.ExampleMachine().String()} }),
		with("lambda", func(r *Request) { r.Options.Lambda = 1000 }),
		with("registers", func(r *Request) { r.Options.Registers = 8 }),
		with("optimize", func(r *Request) { r.Options.Optimize = true }),
		with("reassociate", func(r *Request) { r.Options.Reassociate = true }),
		with("explain_nops", func(r *Request) { r.Options.ExplainNOPs = true }),
		with("assign_pipelines", func(r *Request) { r.Options.AssignPipelines = true }),
		with("strong_equivalence", func(r *Request) { r.Options.StrongEquivalence = true }),
		with("timeout-and-id", func(r *Request) { r.ID, r.TimeoutMS = "other", 5 }),
	}
	for _, mode := range []string{"nop", "explicit", "implicit", "tera"} {
		cs = append(cs, with("mode-"+mode, func(r *Request) { r.Options.Mode = mode }))
	}
	for _, sched := range []string{"paper", "minreg-lex", "minreg-k=3", "scoreboard", "scoreboard=4x2"} {
		cs = append(cs, with("sched-"+sched, func(r *Request) { r.Options.Sched = sched }))
	}
	return cs
}

// goldenKeys are the corpus keys as Fingerprint computed them before
// Resolve existed. Durable cache tiers are addressed by these bytes, so
// a changed key orphans every entry written under the old one.
var goldenKeys = map[string]string{
	"tuples":               "79baae23eaecce48cb7d809afc5d318e96c4544d23115699ef46ed53014cb452",
	"source":               "8d44802e4c1a4437543098cfe339f0f90634f4a18bf046061e45b2a2cb09391d",
	"preset-example":       "867253f425ee751190c30e0b99213e9923eec12ff3c91cc931666568b3777296",
	"text-simulation":      "79baae23eaecce48cb7d809afc5d318e96c4544d23115699ef46ed53014cb452",
	"text-example":         "867253f425ee751190c30e0b99213e9923eec12ff3c91cc931666568b3777296",
	"lambda":               "4fa06893565f6d17bbb1d3093d8953c5546129cd7357ed553b0f4b4ab5255e2b",
	"registers":            "4302e1f473d05fb0ef8af2f963ac65939ab84fd4d1c6c7e733f5f3846bf6a339",
	"optimize":             "cc0e7045478a1cb7c1e32ebf23a161af2004ad5dd5b9c1d5a5be00baec1e8737",
	"reassociate":          "d4a9d569f3cc63a7cbee08dd66ae6b960e19641e0402cef995754f8e8eebddc8",
	"explain_nops":         "c7470e7697567a163c39c3c577766f0eff68f0c61e358bd2b0a3345356be2908",
	"assign_pipelines":     "6ca2aed211e65534e2c52c6f4a0dff0ac09a88ccdc98249ce572779e6b87482d",
	"strong_equivalence":   "b62335ab10e558b191a26a0fad0953dc66fc7c825521d03f2e960428bf294a3a",
	"timeout-and-id":       "79baae23eaecce48cb7d809afc5d318e96c4544d23115699ef46ed53014cb452",
	"mode-nop":             "79baae23eaecce48cb7d809afc5d318e96c4544d23115699ef46ed53014cb452",
	"mode-explicit":        "e65423c16bce723e23367552a553f2b898368e9a97f60d3daebe44e89983ec4b",
	"mode-implicit":        "5732ae778ef08742b1b2fb0ae1c29e23b12aca214a1d186f00860dd9132afa7f",
	"mode-tera":            "5bb25100c417a76fc3a28a26e79273012e2dbab8c7e953a32a7e47591aa36c1e",
	"sched-paper":          "79baae23eaecce48cb7d809afc5d318e96c4544d23115699ef46ed53014cb452",
	"sched-minreg-lex":     "b2b44fbec7e1c96b6c4bd4a0681c1f616018e85fb90db1185828d3e0f5f0cb40",
	"sched-minreg-k=3":     "c28a9c4e4358600d72b8fb1063246a348c57c8314ee5c08a31de1c4bd2ad4d63",
	"sched-scoreboard":     "149a82db2db56b517018516846f36042594cc0c6eae7089237bf98abd301fb7f",
	"sched-scoreboard=4x2": "002b668524d5df8d85d12442307585cd1d921c3cfd9421b02b9a0627c926dc6f",
}

// TestResolveKeysGolden: Resolve computes the same key bytes as before,
// for every corpus request, and Fingerprint is its key.
func TestResolveKeysGolden(t *testing.T) {
	cs := keyCorpus()
	if len(cs) != len(goldenKeys) {
		t.Fatalf("corpus has %d requests, golden table %d", len(cs), len(goldenKeys))
	}
	for _, c := range cs {
		r, err := Resolve(c.req)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if want := goldenKeys[c.name]; r.Key != want {
			t.Errorf("%s: key %s, want %s", c.name, r.Key, want)
		}
		if fp, err := Fingerprint(c.req); err != nil || fp != r.Key {
			t.Errorf("%s: Fingerprint = (%s, %v), want Resolve's key", c.name, fp, err)
		}
	}
}

// TestFingerprintLongRequest: a request too long for fingerprint's
// stack buffer hashes the same layout as a short one, the one the golden
// keys pin, spelled here with fmt as fingerprint once wrote it.
func TestFingerprintLongRequest(t *testing.T) {
	o := pipesched.Options{Lambda: 12345, Optimize: true, Registers: 9,
		Mode: pipesched.TeraInterlock, StrongEquivalence: true}
	text := machine.ExampleMachine().String()
	for _, src := range []string{"a = b * c\n", strings.Repeat("a = b * c\n", 300)} {
		want := sha256.Sum256([]byte(fmt.Sprintf("src\x00%s\x00tuples\x00%s\x00machine\x00%s\x00opts\x00%d|%t|%t|%d|%d|%t|%t|%t|%s",
			src, "", text, o.Lambda, o.Optimize, o.Reassociate, o.Registers, o.Mode,
			o.ExplainNOPs, o.AssignPipelines, o.StrongEquivalence, o.Sched.String())))
		if got := fingerprint(src, "", text, o); got != hex.EncodeToString(want[:]) {
			t.Errorf("%d-byte source: key %s, want %x", len(src), got, want)
		}
	}
}

// TestTuplesHitParsesNothing: a cache hit on a tuples request costs
// about the same allocations whatever the block's size, far less than a
// parse of the larger block, so it parses nothing; and a malformed block
// is still rejected before it joins a flight or reaches the breaker.
func TestTuplesHitParsesNothing(t *testing.T) {
	s := newTestServer(t, testConfig())
	var big strings.Builder
	big.WriteString("big:\n  1: Load #x\n")
	for i := 2; i <= 64; i++ {
		fmt.Fprintf(&big, "  %d: Add @%d, @1\n", i, i-1)
	}
	fmt.Fprintf(&big, "  65: Store #y, @64")
	small, large := tupleRequest(1), &Request{Tuples: big.String(), Machine: MachineSpec{Preset: "simulation"}}
	hitAllocs := func(req *Request) float64 {
		if _, err := s.Submit(context.Background(), req); err != nil {
			t.Fatal(err)
		}
		return testing.AllocsPerRun(100, func() {
			if resp, err := s.Submit(context.Background(), req); err != nil || !resp.Cached {
				t.Fatalf("want a cache hit, got (%+v, %v)", resp, err)
			}
		})
	}
	parse := testing.AllocsPerRun(10, func() {
		if _, err := pipesched.ParseBlock(large.Tuples); err != nil {
			t.Fatal(err)
		}
	})
	// The slack absorbs the race detector's own allocations.
	if a, b := hitAllocs(small), hitAllocs(large); b-a > parse/4 {
		t.Errorf("hit allocations: %v for 5 tuples, %v for 65 (a parse of 65 costs %v)", a, b, parse)
	}

	bad := &Request{Tuples: "1: Bogus", Machine: MachineSpec{Preset: "simulation"}}
	r, err := Resolve(bad)
	if err != nil {
		t.Fatalf("Resolve parses no tuples, got %v", err)
	}
	if resp, err := s.Submit(context.Background(), bad); resp != nil || !errors.Is(err, ErrInvalidRequest) {
		t.Fatalf("bad tuples: (%v, %v), want nil + ErrInvalidRequest", resp, err)
	}
	s.mu.Lock()
	inFlight := len(s.flights)
	s.mu.Unlock()
	s.breaker.mu.Lock()
	_, tracked := s.breaker.entries[r.Key]
	s.breaker.mu.Unlock()
	if inFlight != 0 || tracked {
		t.Errorf("bad tuples left %d flights, breaker entry %t; want neither", inFlight, tracked)
	}
}

// TestPresetTextRenderedOnce: the preset table holds each preset's
// canonical text as a fresh machine renders it, and every request still
// gets a machine of its own. Text machines are the caller's: a bad one
// is rejected on every call, and a thousand distinct ones leave nothing
// behind in the table.
func TestPresetTextRenderedOnce(t *testing.T) {
	makers := machine.Presets()
	checkTable := func() {
		t.Helper()
		if len(presets()) != len(makers) {
			t.Fatalf("preset table has %d entries, machine.Presets %d", len(presets()), len(makers))
		}
		for name, mk := range makers {
			if p, ok := presets()[name]; !ok || p.text != mk().String() {
				t.Fatalf("preset %q: stored text %q (present %t), want %q", name, p.text, ok, mk().String())
			}
		}
	}
	checkTable()
	for name := range makers {
		req := &Request{Source: "a = b * c\n", Machine: MachineSpec{Preset: name}}
		r1, err1 := Resolve(req)
		r2, err2 := Resolve(req)
		if err1 != nil || err2 != nil {
			t.Fatalf("preset %q: %v, %v", name, err1, err2)
		}
		m1, m2 := r1.newMachine(), r2.newMachine()
		if shared := m1 == m2 || m1 == r1.newMachine(); shared || r1.Key != r2.Key {
			t.Errorf("preset %q: compiles share a machine %t, keys %s and %s", name, shared, r1.Key, r2.Key)
		}
	}

	bad := &Request{Source: "a = b * c\n", Machine: MachineSpec{Text: "machine broken\npipe x\n"}}
	for i := 0; i < 3; i++ {
		if _, err := Resolve(bad); !errors.Is(err, ErrInvalidRequest) {
			t.Fatalf("call %d: bad text machine gave %v, want ErrInvalidRequest", i, err)
		}
	}

	base := machine.SimulationMachine()
	keys := map[string]bool{}
	for i := 0; i < 1000; i++ {
		base.Name = fmt.Sprintf("custom%d", i)
		r, err := Resolve(&Request{Source: "a = b * c\n", Machine: MachineSpec{Text: base.String()}})
		if err != nil {
			t.Fatalf("text machine %d: %v", i, err)
		}
		keys[r.Key] = true
	}
	if len(keys) != 1000 {
		t.Errorf("1000 distinct text machines gave %d keys", len(keys))
	}
	checkTable()
}
