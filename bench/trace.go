package main

import (
	"fmt"
	"runtime/metrics"
	"sort"
	"strconv"
	"sync"
	"time"

	"pipesched"
)

// recorder keeps the spans of a traced run in memory until the run ends.
// The benchmark records spans around its own calls into each layer's
// public functions; nothing inside the program is instrumented. A nil
// *recorder records nothing, so traced and untraced runs share code.
type recorder struct {
	mu     sync.Mutex
	base   time.Time
	spans  []span
	sample []metrics.Sample
}

type span struct {
	name       string // the layer function called, e.g. "core.Find"
	layer      string // per-layer metric prefix; "" for spans outside the compile layers
	unit       string // shared by every span of one block, request or trace
	parent     int    // index of the parent span, -1 for a root
	start, end time.Duration
	blocks     int    // blocks the span processed: the per-block denominator
	allocs     uint64 // heap objects allocated while open, children included
	counted    bool   // allocs was measured
}

// spanCap bounds the spans one traced run keeps (about 100 bytes each);
// a traced phase that reaches it stops early.
const spanCap = 200_000

// allocsMetric counts heap allocations without stopping the world, as
// runtime.ReadMemStats would.
const allocsMetric = "/gc/heap/allocs:objects"

func newRecorder() *recorder {
	return &recorder{base: time.Now(), sample: []metrics.Sample{{Name: allocsMetric}}}
}

// begin opens a span and returns its index, or -1 on a nil recorder.
// countAllocs measures the heap allocations made while the span is open.
// The runtime counts allocations per process, so only spans whose work
// runs alone on one goroutine ask for it.
func (r *recorder) begin(name, layer, unit string, parent int, countAllocs bool) int {
	if r == nil {
		return -1
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	s := span{name: name, layer: layer, unit: unit, parent: parent, blocks: 1, counted: countAllocs}
	if countAllocs {
		s.allocs = r.readAllocs()
	}
	s.start = time.Since(r.base)
	r.spans = append(r.spans, s)
	return len(r.spans) - 1
}

// end closes span i.
func (r *recorder) end(i int) {
	if r == nil {
		return
	}
	now := time.Since(r.base)
	r.mu.Lock()
	defer r.mu.Unlock()
	s := &r.spans[i]
	s.end = now
	if s.counted {
		s.allocs = r.readAllocs() - s.allocs
	}
}

// setBlocks records that span i processed n blocks.
func (r *recorder) setBlocks(i, n int) {
	if r == nil {
		return
	}
	r.mu.Lock()
	r.spans[i].blocks = n
	r.mu.Unlock()
}

// stage runs f inside a span of a compile layer and counts its allocations.
func (r *recorder) stage(name, layer, unit string, parent int, f func()) {
	i := r.begin(name, layer, unit, parent, true)
	f()
	r.end(i)
}

// full reports whether the recorder holds spanCap spans.
func (r *recorder) full() bool {
	if r == nil {
		return false
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.spans) >= spanCap
}

func (r *recorder) readAllocs() uint64 {
	metrics.Read(r.sample)
	return r.sample[0].Value.Uint64()
}

// spanTotal is the folded time of every span with one name (or, from
// byLayer, of every span of one compile layer).
type spanTotal struct {
	layer         string
	calls, blocks int
	selfNS        float64 // durations minus the parts covered by child spans
	totalNS       float64
	allocs        float64 // self allocations of counted spans
}

// totals folds the spans by name. A span's self time is its duration
// minus the part of that interval its child spans cover; overlapping
// children, as concurrent requests have, are counted once.
func (r *recorder) totals() map[string]*spanTotal {
	r.mu.Lock()
	defer r.mu.Unlock()
	kids := make(map[int][]int)
	for i, s := range r.spans {
		if s.parent >= 0 {
			kids[s.parent] = append(kids[s.parent], i)
		}
	}
	out := map[string]*spanTotal{}
	for i, s := range r.spans {
		t := out[s.name]
		if t == nil {
			t = &spanTotal{layer: s.layer}
			out[s.name] = t
		}
		dur := s.end - s.start
		t.calls++
		t.blocks += s.blocks
		t.totalNS += float64(dur)
		t.selfNS += float64(dur - covered(r.spans, kids[i], s.start, s.end))
		if s.counted {
			self := s.allocs
			for _, k := range kids[i] {
				if r.spans[k].counted {
					self -= r.spans[k].allocs
				}
			}
			t.allocs += float64(self)
		}
	}
	return out
}

// covered is the length of the union of the child intervals within [lo, hi].
func covered(spans []span, kids []int, lo, hi time.Duration) time.Duration {
	type iv struct{ s, e time.Duration }
	ivs := make([]iv, 0, len(kids))
	for _, k := range kids {
		s, e := max(spans[k].start, lo), min(spans[k].end, hi)
		if e > s {
			ivs = append(ivs, iv{s, e})
		}
	}
	sort.Slice(ivs, func(a, b int) bool { return ivs[a].s < ivs[b].s })
	var sum, reach time.Duration
	for _, v := range ivs {
		if v.s > reach {
			reach = v.s
		}
		if v.e > reach {
			sum += v.e - reach
			reach = v.e
		}
	}
	return sum
}

// byLayer sums the span totals of each compile layer.
func byLayer(tot map[string]*spanTotal) map[string]*spanTotal {
	out := map[string]*spanTotal{}
	for _, l := range compileLayers {
		out[l] = &spanTotal{layer: l}
	}
	for _, t := range tot {
		if o := out[t.layer]; o != nil {
			o.calls += t.calls
			o.blocks += t.blocks
			o.selfNS += t.selfNS
			o.totalNS += t.totalNS
			o.allocs += t.allocs
		}
	}
	return out
}

// selfTable renders every span name's self time, largest first.
func selfTable(tot map[string]*spanTotal) []string {
	names := make([]string, 0, len(tot))
	var all float64
	for n, t := range tot {
		names = append(names, n)
		all += t.selfNS
	}
	sort.Slice(names, func(a, b int) bool { return tot[names[a]].selfNS > tot[names[b]].selfNS })
	lines := []string{fmt.Sprintf("%-28s %9s %12s %7s %12s", "span", "calls", "self_ms", "self%", "total_ms")}
	for _, n := range names {
		t := tot[n]
		lines = append(lines, fmt.Sprintf("%-28s %9d %12.3f %6.1f%% %12.3f",
			n, t.calls, t.selfNS/1e6, 100*share(t.selfNS, all), t.totalNS/1e6))
	}
	return lines
}

// chromeSpanLimit bounds the spans written to the Chrome trace file; the
// per-layer numbers use every span.
const chromeSpanLimit = 20_000

// chrome renders the first chromeSpanLimit spans as Chrome trace_event
// JSON, in the format `pipesched trace -chrome` writes: each span's unit
// is its trace ID, so one block, request or trace reads as one tree.
func (r *recorder) chrome(node string) ([]byte, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	n := min(len(r.spans), chromeSpanLimit)
	recs := make([]pipesched.TraceSpanRecord, n)
	for i, s := range r.spans[:n] {
		var parent uint64
		if s.parent >= 0 {
			parent = uint64(s.parent) + 1 // a parent always precedes its children
		}
		attrs := map[string]string{"blocks": strconv.Itoa(s.blocks)}
		if s.layer != "" {
			attrs["layer"] = s.layer
		}
		if s.counted {
			attrs["allocs"] = strconv.FormatUint(s.allocs, 10)
		}
		recs[i] = pipesched.TraceSpanRecord{
			TraceID: s.unit, SpanID: uint64(i) + 1, Parent: parent, Name: s.name, Node: node,
			Start: r.base.Add(s.start), Dur: s.end - s.start, Attrs: attrs,
		}
	}
	return pipesched.ChromeTraceRequest(recs)
}

// compileLayerMetrics stores the per-layer time and allocation metrics of
// every compile layer, and the sum of the layers' self time per block.
func compileLayerMetrics(o *outcome, layers map[string]*spanTotal) (sumNS float64) {
	for _, l := range compileLayers {
		t := layers[l]
		o.metrics[l+".ns_per_block"] = share(t.selfNS, float64(t.blocks))
		o.metrics[l+".allocs_per_block"] = share(t.allocs, float64(t.blocks))
		sumNS += share(t.selfNS, float64(t.blocks))
	}
	return sumNS
}
