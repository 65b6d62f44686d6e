package telemetry

import (
	"bytes"
	"encoding/json"
	"fmt"
	"sort"
)

// chromeEvent is one entry of the Chrome trace_event format (the JSON
// consumed by chrome://tracing and https://ui.perfetto.dev).
type chromeEvent struct {
	Name string         `json:"name"`
	Cat  string         `json:"cat,omitempty"`
	Ph   string         `json:"ph"`
	Ts   int64          `json:"ts"`
	Dur  int64          `json:"dur,omitempty"`
	Pid  int            `json:"pid"`
	Tid  int            `json:"tid"`
	S    string         `json:"s,omitempty"` // instant-event scope
	Args map[string]any `json:"args,omitempty"`
}

// ChromeTraceRequest converts completed distributed-trace spans (from a
// JSONL sink file or a flight-recorder dump — see `pipesched trace`)
// into Chrome trace_event JSON rendering one request's full fleet
// journey on one timeline: each fleet node is a process row, concurrent
// spans within a node (hedged replica attempts, parallel stages) pack
// onto separate thread rows, and instant points (breaker decisions,
// degradations, failover skips) render in place.
//
// Spans without a node of their own inherit the nearest ancestor's, so
// pipeline stages group under the node that executed them. The output
// is deterministic for a given span set: processes are ordered
// front-door-first then by node name, and within a process spans are
// ordered, and packed greedily onto rows, by start time.
func ChromeTraceRequest(spans []SpanRecord) ([]byte, error) {
	if len(spans) == 0 {
		return nil, fmt.Errorf("telemetry: no trace spans")
	}
	byID := make(map[uint64]*SpanRecord, len(spans))
	for i := range spans {
		byID[spans[i].SpanID] = &spans[i]
	}
	// Resolve each span's node by walking up the parent chain. Cycles
	// are impossible with honest IDs but guard anyway.
	nodeOf := func(r *SpanRecord) string {
		cur, hops := r, 0
		for cur != nil && hops < 64 {
			if cur.Node != "" {
				return cur.Node
			}
			cur = byID[cur.Parent]
			hops++
		}
		return ""
	}

	// pid per node: front door / router ("") first, then nodes sorted.
	nodes := map[string]bool{}
	resolved := make([]string, len(spans))
	for i := range spans {
		resolved[i] = nodeOf(&spans[i])
		nodes[resolved[i]] = true
	}
	var order []string
	for n := range nodes {
		order = append(order, n)
	}
	sort.Slice(order, func(i, j int) bool {
		if (order[i] == "") != (order[j] == "") {
			return order[i] == ""
		}
		return order[i] < order[j]
	})
	pidOf := map[string]int{}
	for i, n := range order {
		pidOf[n] = i + 1
	}

	// Base the synthetic clock at the earliest span start so timestamps
	// are small, positive microseconds.
	base := spans[0].Start
	for _, s := range spans {
		if s.Start.Before(base) {
			base = s.Start
		}
	}

	// Within each process, pack spans onto rows: sort by start, assign
	// each span the lowest row whose previous occupant has ended.
	type placed struct {
		idx, pid, tid int
		ts, dur       int64
	}
	ps := make([]placed, len(spans))
	for i := range spans {
		ps[i] = placed{idx: i, pid: pidOf[resolved[i]]}
	}
	sort.Slice(ps, func(a, b int) bool {
		sa, sb := &spans[ps[a].idx], &spans[ps[b].idx]
		switch {
		case ps[a].pid != ps[b].pid:
			return ps[a].pid < ps[b].pid
		case !sa.Start.Equal(sb.Start):
			return sa.Start.Before(sb.Start)
		}
		return sa.SpanID < sb.SpanID
	})
	var rowEnd []int64 // per-row end timestamp, µs, of the current process
	for i := range ps {
		if i == 0 || ps[i].pid != ps[i-1].pid {
			rowEnd = rowEnd[:0]
		}
		s := &spans[ps[i].idx]
		// End is floored like start, so an instant recorded inside a
		// span never renders past the span's end.
		ts := s.Start.Sub(base).Microseconds()
		dur := s.Start.Add(s.Dur).Sub(base).Microseconds() - ts
		row := -1
		for r, end := range rowEnd {
			if end <= ts {
				row = r
				break
			}
		}
		if row == -1 {
			row = len(rowEnd)
			rowEnd = append(rowEnd, 0)
		}
		rowEnd[row] = ts + dur
		ps[i].tid, ps[i].ts, ps[i].dur = row+1, ts, dur
	}
	// Encode one event at a time: a trace of many search points then
	// costs little beyond its spans and the JSON itself.
	var buf bytes.Buffer
	buf.WriteString(`{"displayTimeUnit":"ms","traceEvents":[`)
	enc := json.NewEncoder(&buf)
	more := false
	put := func(ev chromeEvent) error {
		if more {
			buf.WriteByte(',')
		}
		more = true
		return enc.Encode(ev)
	}
	for i, p := range ps {
		if i == 0 || p.pid != ps[i-1].pid {
			name := order[p.pid-1]
			if name == "" {
				name = "front door / router"
			}
			if err := put(chromeEvent{Name: "process_name", Ph: "M", Pid: p.pid,
				Args: map[string]any{"name": name}}); err != nil {
				return nil, err
			}
		}
		s := &spans[p.idx]
		args := make(map[string]any, len(s.Attrs)+3)
		args["trace_id"], args["span_id"] = s.TraceID, s.SpanID
		for k, v := range s.Attrs {
			args[k] = v
		}
		if s.Err != "" {
			args["err"] = s.Err
		}
		ev := chromeEvent{Name: s.Name, Cat: "trace", Ts: p.ts, Pid: p.pid, Tid: p.tid, Args: args}
		if s.Dur > 0 {
			ev.Ph, ev.Dur = "X", p.dur
		} else {
			ev.Ph, ev.S = "i", "t"
		}
		if err := put(ev); err != nil {
			return nil, err
		}
	}
	buf.WriteString("]}\n")
	return buf.Bytes(), nil
}
