package campaign

import (
	"bytes"
	"context"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"pipesched/internal/dag"
	"pipesched/internal/fleet/store"
	"pipesched/internal/ir"
	"pipesched/internal/machine"
	"pipesched/internal/synth"
)

func openTestManifest(t *testing.T, mode machine.SchedMode) *Manifest {
	t.Helper()
	mf, rep, err := OpenManifest(t.TempDir(), machine.SimulationMachine(), mode)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Quarantined != 0 {
		t.Fatalf("fresh manifest quarantined %d", rep.Quarantined)
	}
	t.Cleanup(mf.Close)
	return mf
}

func TestManifestRoundTrip(t *testing.T) {
	m := machine.SimulationMachine()
	mode := machine.SchedMode{}
	mf := openTestManifest(t, mode)
	g := mustParse(t, `
block a { x = p * q }
block b { y = x + r }
`)
	tr := g.Traces()[0]
	if _, ok := mf.Lookup(tr, m, mode); ok {
		t.Fatal("empty manifest hit")
	}
	res, err := ScheduleTrace(context.Background(), tr, m, mode, localCompiler(m, mode))
	if err != nil {
		t.Fatal(err)
	}
	if err := mf.Record(tr, res); err != nil {
		t.Fatal(err)
	}
	got, ok := mf.Lookup(tr, m, mode)
	if !ok {
		t.Fatal("recorded trace missed")
	}
	if got.DeliveredNOPs != res.DeliveredNOPs || got.Name != res.Name {
		t.Errorf("lookup = %+v, want %+v", got, res)
	}
}

func TestManifestKeyChangesWhenBlockEdited(t *testing.T) {
	mf := openTestManifest(t, machine.SchedMode{})
	g1 := mustParse(t, "block a { x = p * q }\nblock b { y = x + r }\n")
	g2 := mustParse(t, "block a { x = p * q }\nblock b { y = x - r }\n") // one-line edit
	g3 := mustParse(t, "block a { x = p * q }\nblock b { y = x + r }\n")
	k1 := mf.TraceKey(g1.Traces()[0])
	k2 := mf.TraceKey(g2.Traces()[0])
	k3 := mf.TraceKey(g3.Traces()[0])
	if k1 == k2 {
		t.Error("editing a member block did not change the trace key")
	}
	if k1 != k3 {
		t.Error("identical content produced different keys")
	}
}

func TestManifestKeyIgnoresBlockNames(t *testing.T) {
	// Renaming blocks (and therefore the trace) must not invalidate:
	// the key hashes label-stripped content.
	mf := openTestManifest(t, machine.SchedMode{})
	g1 := mustParse(t, "block a { x = p * q }\nblock b { y = x + r }\n")
	g2 := mustParse(t, "block alpha { x = p * q }\nblock beta { y = x + r }\n")
	if mf.TraceKey(g1.Traces()[0]) != mf.TraceKey(g2.Traces()[0]) {
		t.Error("renaming blocks changed the trace key")
	}
}

func TestManifestSeparatesModes(t *testing.T) {
	dir := t.TempDir()
	m := machine.SimulationMachine()
	paper := machine.SchedMode{}
	sb, err := machine.ParseSchedMode("scoreboard=4x2")
	if err != nil {
		t.Fatal(err)
	}
	mfPaper, _, err := OpenManifest(dir, m, paper)
	if err != nil {
		t.Fatal(err)
	}
	defer mfPaper.Close()
	g := mustParse(t, "block a { x = p * q }\nblock b { y = x + r }\n")
	tr := g.Traces()[0]
	res, err := ScheduleTrace(context.Background(), tr, m, paper, localCompiler(m, paper))
	if err != nil {
		t.Fatal(err)
	}
	if err := mfPaper.Record(tr, res); err != nil {
		t.Fatal(err)
	}
	mfPaper.Close()

	mfSB, _, err := OpenManifest(dir, m, sb)
	if err != nil {
		t.Fatal(err)
	}
	defer mfSB.Close()
	if _, ok := mfSB.Lookup(tr, m, sb); ok {
		t.Error("scoreboard mode hit a paper-mode entry: cache pollution across modes")
	}
}

func TestManifestVerifiesOnHit(t *testing.T) {
	// A stored record whose schedule no longer verifies must miss, not
	// serve a wrong answer. Corrupt the stored payload semantically
	// (valid JSON, broken schedule) by recording a tampered result.
	m := machine.SimulationMachine()
	mode := machine.SchedMode{}
	mf := openTestManifest(t, mode)
	g := mustParse(t, "block a { x = p * q }\nblock b { y = x + r }\n")
	tr := g.Traces()[0]
	res, err := ScheduleTrace(context.Background(), tr, m, mode, localCompiler(m, mode))
	if err != nil {
		t.Fatal(err)
	}
	tampered := *res
	tampered.DeliveredNOPs = res.DeliveredNOPs + 5 // claims NOPs it does not have
	if err := mf.Record(tr, &tampered); err != nil {
		t.Fatal(err)
	}
	if _, ok := mf.Lookup(tr, m, mode); ok {
		t.Error("tampered record served from manifest; verification on hit is broken")
	}
}

func TestManifestSurvivesReopen(t *testing.T) {
	dir := t.TempDir()
	m := machine.SimulationMachine()
	mode := machine.SchedMode{}
	mf, _, err := OpenManifest(dir, m, mode)
	if err != nil {
		t.Fatal(err)
	}
	g := mustParse(t, "block a { x = p * q }\nblock b { y = x + r }\n")
	tr := g.Traces()[0]
	res, err := ScheduleTrace(context.Background(), tr, m, mode, localCompiler(m, mode))
	if err != nil {
		t.Fatal(err)
	}
	if err := mf.Record(tr, res); err != nil {
		t.Fatal(err)
	}
	mf.Close()

	mf2, rep, err := OpenManifest(dir, m, mode)
	if err != nil {
		t.Fatal(err)
	}
	defer mf2.Close()
	if rep.Recovered != 1 {
		t.Errorf("recovered %d entries, want 1", rep.Recovered)
	}
	if _, ok := mf2.Lookup(tr, m, mode); !ok {
		t.Error("entry lost across reopen")
	}
}

// strippedText is a block's text without its label line.
func strippedText(b *ir.Block) string { return (&ir.Block{Tuples: b.Tuples}).String() }

func TestContentKeyMatchesText(t *testing.T) {
	tuple := func(id int, op ir.Op, a, b ir.Operand) ir.Tuple { return ir.Tuple{ID: id, Op: op, A: a, B: b} }
	block := func(label string, ts ...ir.Tuple) *ir.Block { return &ir.Block{Label: label, Tuples: ts} }
	load := tuple(1, ir.Load, ir.Var("x"), ir.None())
	hand := []struct {
		name  string
		a, b  *ir.Block
		equal bool
	}{
		{"relabelled", block("a", load, tuple(2, ir.Neg, ir.Ref(1), ir.None())),
			block("renamed", load, tuple(2, ir.Neg, ir.Ref(1), ir.None())), true},
		{"stale B of a one-operand op", block("", load),
			block("", tuple(1, ir.Load, ir.Var("x"), ir.Var("y"))), true},
		{"stale B of a constant", block("", tuple(1, ir.Const, ir.Imm(5), ir.None())),
			block("", tuple(1, ir.Const, ir.Imm(5), ir.Imm(7))), true},
		{"ab+c against a+bc in one tuple", block("", tuple(1, ir.Add, ir.Var("ab"), ir.Var("c"))),
			block("", tuple(1, ir.Add, ir.Var("a"), ir.Var("bc"))), false},
		{"ab+c against a+bc across tuples",
			block("", tuple(1, ir.Load, ir.Var("ab"), ir.None()), tuple(2, ir.Load, ir.Var("c"), ir.None())),
			block("", tuple(1, ir.Load, ir.Var("a"), ir.None()), tuple(2, ir.Load, ir.Var("bc"), ir.None())), false},
		{"a variable name spelling the next tuple", // needs the length prefix
			block("", load, tuple(2, ir.Load, ir.Var("y"), ir.None())),
			block("", tuple(1, ir.Load, ir.Var("x"+string([]byte{2, 0, 0, 0, 0, 0, 0, 0, byte(ir.Load), byte(ir.VarOperand)})+"y"), ir.None())), false},
		{"negative immediate", block("", tuple(1, ir.Const, ir.Imm(-5), ir.None())),
			block("", tuple(1, ir.Const, ir.Imm(5), ir.None())), false},
		{"equal negative immediates", block("p", load, tuple(2, ir.Add, ir.Ref(1), ir.Imm(-1))),
			block("q", load, tuple(2, ir.Add, ir.Ref(1), ir.Imm(-1))), true},
		{"reference against immediate", block("", load, tuple(2, ir.Add, ir.Ref(1), ir.Imm(1))),
			block("", load, tuple(2, ir.Add, ir.Ref(1), ir.Ref(1))), false},
		{"renumbered", block("", load), block("", tuple(2, ir.Load, ir.Var("x"), ir.None())), false},
	}
	for _, c := range hand {
		if textEq := strippedText(c.a) == strippedText(c.b); textEq != c.equal {
			t.Fatalf("%s: texts equal = %v, case expects %v", c.name, textEq, c.equal)
		}
		if keyEq := ContentKey(c.a) == ContentKey(c.b); keyEq != c.equal {
			t.Errorf("%s: keys equal = %v, texts equal = %v", c.name, keyEq, c.equal)
		}
	}

	// Random small blocks collide often; each also appears relabelled.
	rng := rand.New(rand.NewSource(26))
	var blocks []*ir.Block
	for i := 0; i < 150; i++ {
		b, err := synth.Generate(rng, synth.Params{
			Statements: 1 + rng.Intn(3), Variables: 2, Constants: 2, Optimize: rng.Intn(2) == 0,
		})
		if err != nil {
			t.Fatal(err)
		}
		blocks = append(blocks, b.IR, &ir.Block{Label: fmt.Sprintf("copy%d", i), Tuples: b.IR.Tuples})
	}
	texts := make([]string, len(blocks))
	keys := make([]string, len(blocks))
	for i, b := range blocks {
		texts[i], keys[i] = strippedText(b), ContentKey(b)
	}
	collisions := 0
	for i := range blocks {
		for j := i + 1; j < len(blocks); j++ {
			if (texts[i] == texts[j]) != (keys[i] == keys[j]) {
				t.Fatalf("blocks %d and %d: texts equal = %v, keys equal = %v\n%s\n%s",
					i, j, texts[i] == texts[j], keys[i] == keys[j], texts[i], texts[j])
			}
			if texts[i] == texts[j] && j != i+1 {
				collisions++
			}
		}
	}
	if collisions == 0 {
		t.Error("no two distinct random blocks shared a text; the property was not exercised")
	}
}

// recordedTrace schedules and records the two-block test trace in mf.
func recordedTrace(t *testing.T, mf *Manifest) (*Trace, *TraceResult) {
	t.Helper()
	m := machine.SimulationMachine()
	mode := machine.SchedMode{}
	tr := mustParse(t, "block a { x = p * q }\nblock b { y = x + r }\n").Traces()[0]
	res, err := ScheduleTrace(context.Background(), tr, m, mode, localCompiler(m, mode))
	if err != nil {
		t.Fatal(err)
	}
	if err := mf.Record(tr, res); err != nil {
		t.Fatal(err)
	}
	return tr, res
}

// plant writes payload under key straight into the manifest directory,
// with a valid CRC, as another process or an older build would.
func plant(t *testing.T, dir, key string, payload []byte) {
	t.Helper()
	st, _, err := store.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	if err := st.Put(key, payload); err != nil {
		t.Fatal(err)
	}
}

func TestManifestWarmHitAllocs(t *testing.T) {
	// A warm hit allocates no more than its parts: the key (at most the
	// hash buffer and the hex string, no rendered text), the store read,
	// the decode and the verification replay (merged block, graph, sim).
	m := machine.SimulationMachine()
	mode := machine.SchedMode{}
	mf := openTestManifest(t, mode)
	tr, _ := recordedTrace(t, mf)
	res, ok := mf.Lookup(tr, m, mode)
	if !ok {
		t.Fatal("recorded trace missed")
	}
	warm := testing.AllocsPerRun(100, func() {
		if _, ok := mf.Lookup(tr, m, mode); !ok {
			t.Fatal("warm lookup missed")
		}
	})
	key := testing.AllocsPerRun(100, func() { mf.TraceKey(tr) })
	k := mf.TraceKey(tr)
	payload, _ := mf.st.Get(k)
	read := testing.AllocsPerRun(100, func() { mf.st.Get(k) })
	decode := testing.AllocsPerRun(100, func() {
		if _, err := decodeRecord(payload); err != nil {
			t.Fatal(err)
		}
	})
	replay := testing.AllocsPerRun(100, func() {
		merged, err := tr.Merged()
		if err != nil {
			t.Fatal(err)
		}
		mg, err := dag.Build(merged)
		if err != nil {
			t.Fatal(err)
		}
		if err := verifyTrace(res, mg, m, mode); err != nil {
			t.Fatal(err)
		}
	})
	t.Logf("warm Lookup: %.0f allocations (key %.0f, read %.0f, decode %.0f, verification replay %.0f)",
		warm, key, read, decode, replay)
	if key > 2 {
		t.Errorf("TraceKey allocates %.0f times, want <= 2 (hash buffer and hex string)", key)
	}
	if warm > key+read+decode+replay {
		t.Errorf("warm Lookup allocates %.0f times, more than its key, read, decode and replay (%.0f + %.0f + %.0f + %.0f)",
			warm, key, read, decode, replay)
	}
	// The merged block and its graph index tuple IDs in dense tables,
	// and the replayed simulation keeps its per-pipeline state on the
	// stack: 34 where maps made it 36.
	if warm > 34 {
		t.Errorf("warm Lookup allocates %.0f times, want <= 34", warm)
	}
}

func TestManifestRefusesTamperedRecord(t *testing.T) {
	// A result recorded in this process that no longer verifies is
	// refused by the next lookup, as one read after a reopen is.
	m := machine.SimulationMachine()
	mode := machine.SchedMode{}
	mf := openTestManifest(t, mode)
	tr, res := recordedTrace(t, mf)
	if _, ok := mf.Lookup(tr, m, mode); !ok {
		t.Fatal("recorded trace missed")
	}
	tampered := *res
	tampered.DeliveredNOPs++
	if err := mf.Record(tr, &tampered); err != nil {
		t.Fatal(err)
	}
	if _, ok := mf.Lookup(tr, m, mode); ok {
		t.Error("tampered record served")
	}
}

func TestManifestRefusesPlantedRecordAfterReopen(t *testing.T) {
	// A record with a valid CRC and a wrong schedule, written while the
	// manifest was closed, is refused on every lookup. It is planted in
	// today's encoding, so it decodes and the replay is what refuses it;
	// the same record untampered, planted the same way, is served.
	dir := t.TempDir()
	m := machine.SimulationMachine()
	mode := machine.SchedMode{}
	mf, _, err := OpenManifest(dir, m, mode)
	if err != nil {
		t.Fatal(err)
	}
	tr, res := recordedTrace(t, mf)
	key := mf.TraceKey(tr)
	mf.Close()

	tampered := *res
	tampered.DeliveredNOPs += 3
	plant(t, dir, key, encodeRecord(&tampered))
	if _, err := decodeRecord(encodeRecord(&tampered)); err != nil {
		t.Fatalf("the planted record does not decode (%v): the refusal below would not test the replay", err)
	}

	mf2, rep, err := OpenManifest(dir, m, mode)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Recovered != 1 || rep.Quarantined != 0 {
		t.Fatalf("reopen: %+v, want the planted entry recovered", rep)
	}
	for i := 0; i < 2; i++ {
		if _, ok := mf2.Lookup(tr, m, mode); ok {
			t.Errorf("lookup %d served the planted wrong schedule", i+1)
		}
	}
	mf2.Close()

	plant(t, dir, key, encodeRecord(res))
	mf3, _, err := OpenManifest(dir, m, mode)
	if err != nil {
		t.Fatal(err)
	}
	defer mf3.Close()
	if got, ok := mf3.Lookup(tr, m, mode); !ok || got.DeliveredNOPs != res.DeliveredNOPs {
		t.Errorf("untampered planted record: lookup = (%+v, %v), want it served", got, ok)
	}
}

// jsonRecord is the JSON payload manifests wrote up to schema 2.
type jsonRecord struct {
	Schema int          `json:"schema"`
	Result *TraceResult `json:"result"`
}

func TestManifestOldSchemaMisses(t *testing.T) {
	// An entry written under another schema misses, never misparses:
	// even under today's key and with a schedule that verifies, a
	// payload that is not a schema-3 record is not served. That covers
	// the JSON records of schemas 1 and 2, payloads of other shapes and
	// a binary record whose tag names another schema.
	dir := t.TempDir()
	m := machine.SimulationMachine()
	mode := machine.SchedMode{}
	mf, _, err := OpenManifest(dir, m, mode)
	if err != nil {
		t.Fatal(err)
	}
	tr, res := recordedTrace(t, mf)
	key := mf.TraceKey(tr)
	mf.Close()
	payloads := [][]byte{
		[]byte(`{"schema":2,"result":null}`),
		[]byte(`{"schema":"2","result":{}}`),
		[]byte(`{"delivered_nops":0}`),
	}
	for _, schema := range []int{1, 2} {
		old, err := json.Marshal(&jsonRecord{Schema: schema, Result: res})
		if err != nil {
			t.Fatal(err)
		}
		payloads = append(payloads, old)
	}
	foreign := encodeRecord(res)
	foreign[len(recordTag)-1] = manifestSchema + 1
	payloads = append(payloads, foreign)

	lookup := func(payload []byte) (*TraceResult, bool) {
		plant(t, dir, key, payload)
		mf2, _, err := OpenManifest(dir, m, mode)
		if err != nil {
			t.Fatal(err)
		}
		defer mf2.Close()
		return mf2.Lookup(tr, m, mode)
	}
	for _, payload := range payloads {
		if got, ok := lookup(payload); ok {
			t.Errorf("payload %.40q… served %+v", payload, got)
		}
	}
	// The planting itself is sound: today's record of the same result
	// is served.
	if _, ok := lookup(encodeRecord(res)); !ok {
		t.Error("a planted schema-3 record of a verifying result missed")
	}
}

func TestRecordRoundTrip(t *testing.T) {
	if n := reflect.TypeOf(TraceResult{}).NumField(); n != 13 {
		t.Fatalf("TraceResult has %d fields and the record encodes 13: a new field needs encodeRecord, decodeRecord and a case here", n)
	}
	cases := []*TraceResult{
		{},
		{Name: "main.b0+b1+b2", Blocks: 3, Tuples: 41, ColdNOPs: 9, BaselineNOPs: 7, MergedNOPs: 5,
			DeliveredNOPs: 5, UsedMerged: true, Optimal: true,
			Order: []int{2, 0, 1, 3}, Eta: []int{0, 0, 2, 0}, Pipes: []int{1, 0, 1, 0}},
		{Name: "single", Blocks: 1, Tuples: 4, ColdNOPs: 2, BaselineNOPs: 2, MergedNOPs: -1,
			DeliveredNOPs: 2, Optimal: true, Order: []int{0, 1, 2, 3}, Pipes: []int{0, 0, 1, 1}},
		{Name: "scoreboard", Blocks: 2, Tuples: 300, ColdNOPs: 1 << 40, BaselineNOPs: 130, MergedNOPs: 129,
			DeliveredNOPs: 129, UsedMerged: true, Order: []int{299, 0, 150},
			Pipes: []int{3, 2, 1}, IssueTicks: []int{0, 1, 1 << 20}},
		{Name: "negative", MergedNOPs: -1, ColdNOPs: -7, Order: []int{-1}, Eta: []int{}, IssueTicks: []int{}},
	}
	for _, want := range cases {
		payload := encodeRecord(want)
		got, err := decodeRecord(payload)
		if err != nil {
			t.Fatalf("%q: %v", want.Name, err)
		}
		norm := *want // an empty slice decodes as nil
		for _, a := range []*[]int{&norm.Order, &norm.Eta, &norm.Pipes, &norm.IssueTicks} {
			if len(*a) == 0 {
				*a = nil
			}
		}
		if !reflect.DeepEqual(got, &norm) {
			t.Errorf("round trip:\n got %+v\nwant %+v", got, &norm)
		}
		if again := encodeRecord(got); !bytes.Equal(again, payload) {
			t.Errorf("%q re-encodes to other bytes", want.Name)
		}
	}
}

func TestDecodeRecordRejects(t *testing.T) {
	valid := encodeRecord(&TraceResult{Name: "t", Blocks: 2, MergedNOPs: -1, Order: []int{1, 0}, Pipes: []int{0, 0}})
	// prefix is a record up to its flags byte: an empty name, then six
	// counts with MergedNOPs −1.
	prefix := func(flags byte) []byte {
		return append(append([]byte(nil), recordTag[:]...), 0, 0, 0, 0, 0, 1, 0, flags)
	}
	// withCount's Order claims n entries, then the payload ends.
	withCount := func(n uint64) []byte { return binary.AppendUvarint(prefix(0), n) }
	bad := map[string][]byte{
		"empty":            nil,
		"tag only":         recordTag[:],
		"foreign tag":      append([]byte{'c', 't', 'r', manifestSchema + 1}, valid[len(recordTag):]...),
		"json":             []byte(`{"schema":3,"result":{}}`),
		"truncated":        valid[:len(valid)-1],
		"trailing byte":    append(append([]byte(nil), valid...), 0),
		"unknown flag":     append(prefix(4), 0, 0, 0, 0),
		"overlong varint":  append(append(append([]byte(nil), valid[:4]...), 0x81, 0x00), valid[5:]...), // name length 1 in two bytes
		"name past end":    append(append([]byte(nil), recordTag[:]...), 5, 'a'),
		"count past end":   withCount(3),
		"huge count":       withCount(1 << 62),
		"varint overflows": append(append([]byte(nil), recordTag[:]...), 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x01),
	}
	for name, payload := range bad {
		if res, err := decodeRecord(payload); !errors.Is(err, errBadRecord) {
			t.Errorf("%s: decode = (%+v, %v), want an errBadRecord", name, res, err)
		}
	}
	for _, ok := range [][]byte{valid, append(prefix(3), 0, 0, 0, 0)} {
		if _, err := decodeRecord(ok); err != nil {
			t.Fatalf("a valid record the cases edit does not decode: %v", err)
		}
	}
}

func FuzzDecodeTraceRecord(f *testing.F) {
	valid := encodeRecord(&TraceResult{Name: "main.b0+b1", Blocks: 2, Tuples: 6, ColdNOPs: 3, BaselineNOPs: 2,
		MergedNOPs: -1, DeliveredNOPs: 2, Optimal: true,
		Order: []int{0, 2, 1, 3, 5, 4}, Eta: []int{0, 0, 1, 0, 0, 1}, Pipes: []int{0, 1, 0, 1, 0, 1}})
	scoreboard := encodeRecord(&TraceResult{Name: "s", Blocks: 1, Tuples: 2, MergedNOPs: -1,
		Order: []int{1, 0}, Pipes: []int{0, 0}, IssueTicks: []int{0, 3}})
	f.Add(valid)
	f.Add(scoreboard)
	f.Add(valid[:len(valid)/2])
	f.Add(append(append([]byte(nil), scoreboard...), 7))
	f.Add([]byte(`{"schema":2,"result":{}}`))
	f.Fuzz(func(t *testing.T, payload []byte) {
		res, err := decodeRecord(payload)
		if err != nil {
			return
		}
		if again := encodeRecord(res); !bytes.Equal(again, payload) {
			t.Fatalf("decoded %+v re-encodes to %x, not %x", res, again, payload)
		}
	})
}
