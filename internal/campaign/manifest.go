package campaign

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"fmt"

	"pipesched/internal/dag"
	"pipesched/internal/fleet/store"
	"pipesched/internal/machine"
)

// manifestSchema versions the trace key and the record encoding: bump
// it and every prior manifest entry silently misses (recompiles), never
// misparses. Schema 2 keys traces by field hashes (contentSum) instead
// of rendered text; schema 3 stores the binary record of encodeRecord
// instead of JSON.
const manifestSchema = 3

// Manifest is the durable campaign state: one crash-safe store entry
// per compiled trace, keyed by the content of the member blocks × the
// machine × the scheduler mode. A re-run after editing one block
// changes only the keys of the traces containing it — everything else
// is a warm hit, which is exactly what makes campaigns incremental.
//
// It reuses internal/fleet/store, so it inherits the CRC-32C +
// atomic-rename crash-safety and the quarantine-on-corruption recovery
// semantics: a rotted manifest entry degrades to a recompile, never to
// a wrong schedule (and every hit is re-verified by simulation before
// it is served — see Lookup).
type Manifest struct {
	st *store.Store
	// keyHead binds the schema, machine and mode into every trace key:
	// entries from other machines or modes can share the directory
	// without colliding.
	keyHead []byte
}

// OpenManifest opens (or creates) the manifest directory for one
// machine × mode combination. The recovery report is the store's:
// corrupt entries are quarantined, never fatal.
func OpenManifest(dir string, m *machine.Machine, mode machine.SchedMode) (*Manifest, store.RecoveryReport, error) {
	st, rep, err := store.Open(dir)
	if err != nil {
		return nil, rep, err
	}
	msum := sha256.Sum256([]byte(m.String()))
	head := fmt.Sprintf("campaign-trace/v%d\n%x\n%s\n", manifestSchema, msum[:8], mode.String())
	return &Manifest{st: st, keyHead: []byte(head)}, rep, nil
}

func (mf *Manifest) Close() { mf.st.Close() }

// TraceKey is the invalidation unit: the hash of every member block's
// label-stripped content hash, in trace order, under the machine, mode
// and schema version. Editing any member block — or reordering the
// members — changes the key; renaming a block or touching other blocks
// of the program does not.
func (mf *Manifest) TraceKey(t *Trace) string {
	var scratch [512]byte // a trace of up to ~14 blocks hashes without allocating
	buf := append(scratch[:0], mf.keyHead...)
	for _, b := range t.Blocks {
		sum := contentSum(b.IR)
		buf = append(buf, sum[:]...)
	}
	sum := sha256.Sum256(buf)
	return hex.EncodeToString(sum[:])
}

// Lookup returns the stored result for a trace, re-verified: the
// recorded schedule must still simulate cleanly over the merged graph
// rebuilt from today's source. Any mismatch — schema drift, record rot
// that survived the CRC, a stale schedule — degrades to a miss, so a
// warm campaign serves only schedules that verify right now.
func (mf *Manifest) Lookup(t *Trace, m *machine.Machine, mode machine.SchedMode) (*TraceResult, bool) {
	payload, ok := mf.st.Get(mf.TraceKey(t))
	if !ok {
		return nil, false
	}
	res, err := decodeRecord(payload)
	if err != nil {
		return nil, false
	}
	merged, err := t.Merged()
	if err != nil {
		return nil, false
	}
	mg, err := dag.Build(merged)
	if err != nil {
		return nil, false
	}
	if err := verifyTrace(res, mg, m, mode); err != nil {
		return nil, false
	}
	return res, true
}

// Record durably stores one trace result under its key.
func (mf *Manifest) Record(t *Trace, res *TraceResult) error {
	return mf.st.Put(mf.TraceKey(t), encodeRecord(res))
}

// Len reports the number of servable manifest entries.
func (mf *Manifest) Len() int { return mf.st.Len() }

// QuarantinedCount exposes the store's corruption accounting.
func (mf *Manifest) QuarantinedCount() int { return mf.st.QuarantinedCount() }

// recordTag leads every manifest record: three magic bytes, then the
// schema. A payload with another lead, such as a schema-2 JSON record
// ('{'), is not decoded.
var recordTag = [4]byte{'c', 't', 'r', manifestSchema}

// Flag bits of a record's flags byte; any other bit set is malformed.
const (
	flagUsedMerged = 1 << iota
	flagOptimal
)

var errBadRecord = errors.New("campaign: malformed manifest record")

// encodeRecord renders res as a manifest record: recordTag; the name,
// length-prefixed; Blocks, Tuples, ColdNOPs, BaselineNOPs, MergedNOPs
// and DeliveredNOPs as zig-zag varints; one flags byte; then Order,
// Eta, Pipes and IssueTicks, each a uvarint length and that many
// zig-zag varints. An empty slice and a nil one encode alike.
func encodeRecord(res *TraceResult) []byte {
	arrays := [...][]int{res.Order, res.Eta, res.Pipes, res.IssueTicks}
	size := len(recordTag) + binary.MaxVarintLen64 + len(res.Name) + 6*binary.MaxVarintLen64 + 1
	for _, a := range arrays {
		size += binary.MaxVarintLen64 + 2*len(a) // most values fit in two bytes
	}
	buf := make([]byte, 0, size)
	buf = append(buf, recordTag[:]...)
	buf = binary.AppendUvarint(buf, uint64(len(res.Name)))
	buf = append(buf, res.Name...)
	for _, c := range [...]int{res.Blocks, res.Tuples, res.ColdNOPs, res.BaselineNOPs, res.MergedNOPs, res.DeliveredNOPs} {
		buf = binary.AppendVarint(buf, int64(c))
	}
	var flags byte
	if res.UsedMerged {
		flags |= flagUsedMerged
	}
	if res.Optimal {
		flags |= flagOptimal
	}
	buf = append(buf, flags)
	for _, a := range arrays {
		buf = binary.AppendUvarint(buf, uint64(len(a)))
		for _, v := range a {
			buf = binary.AppendVarint(buf, int64(v))
		}
	}
	return buf
}

// decodeRecord parses a record of encodeRecord. It is strict, so every
// payload it accepts re-encodes to the same bytes: a foreign tag, a
// truncation, an overlong varint, an unknown flag bit, a length beyond
// the bytes left or trailing bytes is an error. No length is trusted
// before the bytes it needs are there, so it allocates at most in
// proportion to the payload. An empty slice decodes as nil.
func decodeRecord(payload []byte) (*TraceResult, error) {
	if !bytes.HasPrefix(payload, recordTag[:]) {
		return nil, fmt.Errorf("%w: no schema-%d tag", errBadRecord, manifestSchema)
	}
	d := recordDecoder{b: payload[len(recordTag):]}
	res := &TraceResult{Name: string(d.bytes())}
	for _, c := range [...]*int{&res.Blocks, &res.Tuples, &res.ColdNOPs, &res.BaselineNOPs, &res.MergedNOPs, &res.DeliveredNOPs} {
		*c = d.int()
	}
	if flags := d.byte(); flags&^(flagUsedMerged|flagOptimal) != 0 {
		d.fail("unknown flag bits")
	} else {
		res.UsedMerged, res.Optimal = flags&flagUsedMerged != 0, flags&flagOptimal != 0
	}
	for _, a := range [...]*[]int{&res.Order, &res.Eta, &res.Pipes, &res.IssueTicks} {
		*a = d.ints()
	}
	if d.err == nil && len(d.b) > 0 {
		d.fail("trailing bytes")
	}
	if d.err != nil {
		return nil, d.err
	}
	return res, nil
}

// recordDecoder reads a record front to back. After its first failure
// every read returns zero values and err keeps that failure.
type recordDecoder struct {
	b   []byte
	err error
}

func (d *recordDecoder) fail(what string) {
	if d.err == nil {
		d.err = fmt.Errorf("%w: %s", errBadRecord, what)
	}
	d.b = nil
}

// uvarint reads one minimal uvarint: an encoding with a redundant
// trailing zero byte would not re-encode to itself.
func (d *recordDecoder) uvarint() uint64 {
	v, n := binary.Uvarint(d.b)
	if n <= 0 || (n > 1 && d.b[n-1] == 0) {
		d.fail("bad varint")
		return 0
	}
	d.b = d.b[n:]
	return v
}

// int reads one zig-zag varint as binary.AppendVarint writes it.
func (d *recordDecoder) int() int {
	u := d.uvarint()
	v := int64(u >> 1)
	if u&1 != 0 {
		v = ^v
	}
	if int64(int(v)) != v {
		d.fail("value overflows int")
		return 0
	}
	return int(v)
}

// byte reads one byte.
func (d *recordDecoder) byte() byte {
	if len(d.b) == 0 {
		d.fail("truncated")
		return 0
	}
	c := d.b[0]
	d.b = d.b[1:]
	return c
}

// bytes reads a length-prefixed run of bytes, aliasing the payload.
func (d *recordDecoder) bytes() []byte {
	n := d.uvarint()
	if n > uint64(len(d.b)) {
		d.fail("length exceeds the bytes left")
		return nil
	}
	s := d.b[:n]
	d.b = d.b[n:]
	return s
}

// ints reads a length-prefixed run of varints. Each takes at least one
// byte, so a length beyond the bytes left is refused before allocating.
func (d *recordDecoder) ints() []int {
	n := d.uvarint()
	if n > uint64(len(d.b)) {
		d.fail("count exceeds the bytes left")
		return nil
	}
	if n == 0 {
		return nil
	}
	s := make([]int, n)
	for i := range s {
		s[i] = d.int()
	}
	return s
}
