package campaign

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"

	"pipesched/internal/dag"
	"pipesched/internal/fleet/store"
	"pipesched/internal/machine"
)

// manifestSchema versions the trace key and the TraceRecord encoding:
// bump it and every prior manifest entry silently misses (recompiles),
// never misparses. Schema 2 keys traces by field hashes (contentSum)
// instead of rendered text.
const manifestSchema = 2

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

// TraceRecord is the JSON payload of one manifest entry.
type TraceRecord struct {
	Schema int          `json:"schema"`
	Result *TraceResult `json:"result"`
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
// rebuilt from today's source. Any mismatch — schema drift, JSON rot
// that survived the CRC, a stale schedule — degrades to a miss, so a
// warm campaign serves only schedules that verify right now.
func (mf *Manifest) Lookup(t *Trace, m *machine.Machine, mode machine.SchedMode) (*TraceResult, bool) {
	payload, ok := mf.st.Get(mf.TraceKey(t))
	if !ok {
		return nil, false
	}
	var rec TraceRecord
	if err := json.Unmarshal(payload, &rec); err != nil || rec.Schema != manifestSchema || rec.Result == nil {
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
	if err := verifyTrace(rec.Result, mg, m, mode); err != nil {
		return nil, false
	}
	return rec.Result, true
}

// Record durably stores one trace result under its key.
func (mf *Manifest) Record(t *Trace, res *TraceResult) error {
	payload, err := json.Marshal(&TraceRecord{Schema: manifestSchema, Result: res})
	if err != nil {
		return err
	}
	return mf.st.Put(mf.TraceKey(t), payload)
}

// Len reports the number of servable manifest entries.
func (mf *Manifest) Len() int { return mf.st.Len() }

// QuarantinedCount exposes the store's corruption accounting.
func (mf *Manifest) QuarantinedCount() int { return mf.st.QuarantinedCount() }
