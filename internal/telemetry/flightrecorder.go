package telemetry

import (
	"encoding/json"
	"fmt"
	"io"
	"math/bits"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync/atomic"
	"time"
)

// FlightRecorder is the black-box ring: a fixed-size lock-free buffer
// of the most recent completed span records in this process. Writers
// claim a slot with one atomic add and publish with one atomic pointer
// store, so recording costs no locks and never blocks the compile path.
// Readers (Snapshot, the /debug/flightrecorder endpoint, crash dumps)
// see a consistent recent window — each slot is read atomically, so a
// snapshot is a set of complete records even under concurrent writes.
type FlightRecorder struct {
	slots []atomic.Pointer[SpanRecord]
	mask  uint64
	pos   atomic.Uint64
}

// NewFlightRecorder returns a ring holding the last `size` records
// (rounded up to a power of two, minimum 64).
func NewFlightRecorder(size int) *FlightRecorder {
	if size < 64 {
		size = 64
	}
	if size&(size-1) != 0 {
		size = 1 << bits.Len(uint(size))
	}
	return &FlightRecorder{
		slots: make([]atomic.Pointer[SpanRecord], size),
		mask:  uint64(size - 1),
	}
}

// Cap returns the ring capacity.
func (r *FlightRecorder) Cap() int {
	if r == nil {
		return 0
	}
	return len(r.slots)
}

// Record stores one completed span, overwriting the oldest entry once
// the ring is full. rec must not be mutated after the call.
func (r *FlightRecorder) Record(rec *SpanRecord) {
	if r == nil || rec == nil {
		return
	}
	i := r.pos.Add(1) - 1
	r.slots[i&r.mask].Store(rec)
}

// Len returns the number of records currently held.
func (r *FlightRecorder) Len() int {
	if r == nil {
		return 0
	}
	n := r.pos.Load()
	if n > uint64(len(r.slots)) {
		n = uint64(len(r.slots))
	}
	return int(n)
}

// Snapshot copies out the ring's records, oldest first (by span start
// time — slot order is racy under concurrent writes, so wall order is
// reimposed here).
func (r *FlightRecorder) Snapshot() []SpanRecord {
	if r == nil {
		return nil
	}
	out := make([]SpanRecord, 0, r.Len())
	for i := range r.slots {
		if p := r.slots[i].Load(); p != nil {
			out = append(out, *p)
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if !out[i].Start.Equal(out[j].Start) {
			return out[i].Start.Before(out[j].Start)
		}
		return out[i].SpanID < out[j].SpanID
	})
	return out
}

// WriteJSONL serializes the current snapshot in the sink wire format
// (one Event with Kind "trace" per line) — the same shape JSONLSink
// writes, so `pipesched trace` reads dumps and sink files identically.
func (r *FlightRecorder) WriteJSONL(w io.Writer) error {
	enc := json.NewEncoder(w)
	for _, rec := range r.Snapshot() {
		e := rec.Event()
		e.Time = rec.Start.Add(rec.Dur)
		if err := enc.Encode(e); err != nil {
			return err
		}
	}
	return nil
}

// Trigger fires a black-box event: the trigger counter increments and,
// if the tracer has a DumpDir, the ring is dumped to
// flightrecorder-<unixnano>-<reason>.jsonl there — rate-limited to one
// dump per DumpInterval so trigger storms (a run of 5xx responses)
// cost one file, not thousands. Returns the dump path, or "" when no
// dump was written.
func (t *Tracer) Trigger(reason string) string {
	if t == nil {
		return ""
	}
	t.triggers.Inc()
	if t.cfg.DumpDir == "" {
		return ""
	}
	now := time.Now()
	last := t.lastDump.Load()
	if now.UnixNano()-last < int64(t.cfg.DumpInterval) {
		return ""
	}
	if !t.lastDump.CompareAndSwap(last, now.UnixNano()) {
		return "" // another trigger won the slot
	}
	path := filepath.Join(t.cfg.DumpDir,
		fmt.Sprintf("flightrecorder-%d-%s.jsonl", now.UnixNano(), sanitizeReason(reason)))
	if err := t.dumpTo(path, reason, now); err != nil {
		return ""
	}
	t.dumps.Inc()
	return path
}

// DumpNow writes the ring to path unconditionally (no rate limit) —
// the SIGQUIT handler uses it so an operator's explicit ask always
// produces a file.
func (t *Tracer) DumpNow(path, reason string) error {
	if t == nil {
		return fmt.Errorf("telemetry: no tracer installed")
	}
	err := t.dumpTo(path, reason, time.Now())
	if err == nil {
		t.dumps.Inc()
	}
	return err
}

func (t *Tracer) dumpTo(path, reason string, now time.Time) error {
	if dir := filepath.Dir(path); dir != "." {
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return err
		}
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	// Header line identifies the dump: reason, node, capacity. Same
	// Event envelope, Kind "flight_dump", so line-oriented readers skip
	// or surface it uniformly.
	enc := json.NewEncoder(f)
	head := Event{
		Time: now,
		Kind: "flight_dump",
		Name: reason,
		Node: t.cfg.Node,
		Fields: map[string]int64{
			"records":  int64(t.rec.Len()),
			"capacity": int64(t.rec.Cap()),
		},
	}
	if err := enc.Encode(head); err != nil {
		f.Close()
		return err
	}
	if err := t.rec.WriteJSONL(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// sanitizeReason maps an arbitrary trigger reason to a filename-safe
// token.
func sanitizeReason(reason string) string {
	if reason == "" {
		return "unknown"
	}
	var sb strings.Builder
	for _, r := range reason {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9', r == '-', r == '_':
			sb.WriteRune(r)
		default:
			sb.WriteByte('_')
		}
	}
	const max = 40
	s := sb.String()
	if len(s) > max {
		s = s[:max]
	}
	return s
}
