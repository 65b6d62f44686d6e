// Package telemetry is the zero-dependency observability layer of the
// scheduler pipeline: an atomic metrics registry (counters, gauges,
// histograms with fixed log2 buckets), one span per pipeline stage
// (StartStage), request tracing with a flight recorder, and a Sink
// interface for structured events.
//
// The layer is nil-by-default: until Install is called, every
// instrumentation site in the pipeline reduces to one atomic pointer
// load and an immediate return (BenchmarkTelemetryDisabled guards the
// overhead). When installed, metric updates are single atomic adds —
// safe under any number of concurrent compilations — and events flow to
// the registered Sink, if any.
//
// Exporters live in sibling files: Prometheus text + expvar + pprof over
// HTTP (Serve), a JSONL event sink (NewJSONLSink), and a Chrome
// trace_event converter for request traces (ChromeTraceRequest).
package telemetry

import (
	"fmt"
	"math"
	"math/bits"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
)

// Counter is a monotonically increasing atomic metric.
type Counter struct {
	v atomic.Int64
}

// Add increments the counter by n (negative n is ignored: counters only
// go up, matching the Prometheus contract).
func (c *Counter) Add(n int64) {
	if c == nil || n <= 0 {
		return
	}
	c.v.Add(n)
}

// Inc increments the counter by one.
func (c *Counter) Inc() { c.Add(1) }

// Value returns the current count.
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is an atomic metric that can go up and down.
type Gauge struct {
	v atomic.Int64
}

// Set stores an absolute value.
func (g *Gauge) Set(v int64) {
	if g == nil {
		return
	}
	g.v.Store(v)
}

// Add moves the gauge by delta (may be negative).
func (g *Gauge) Add(delta int64) {
	if g == nil {
		return
	}
	g.v.Add(delta)
}

// Inc moves the gauge up by one.
func (g *Gauge) Inc() { g.Add(1) }

// Value returns the current level.
func (g *Gauge) Value() int64 {
	if g == nil {
		return 0
	}
	return g.v.Load()
}

// histBuckets is the fixed bucket count of every histogram: bucket i
// counts observations v with v < 2^i (cumulative export adds them up),
// so the boundaries are 1, 2, 4, ... 2^(histBuckets-1), +Inf. 40 doubling
// buckets span 1 unit to ~10^12 units — microseconds to ~12 days.
const histBuckets = 40

// Histogram is an atomic histogram with fixed log2 bucket boundaries.
// Observations are non-negative int64 values in an arbitrary unit (the
// pipeline records stage durations in microseconds); Unit scales the
// exported boundaries (see Registry.WritePrometheus).
type Histogram struct {
	buckets [histBuckets]atomic.Int64 // buckets[i]: 2^(i-1) <= v < 2^i (i=0: v < 1)
	count   atomic.Int64
	sum     atomic.Int64

	// exemplars[i] is the most recent traced observation that landed in
	// bucket i, so a p99 bucket links to a concrete trace ID. Lazily
	// allocated on the first ObserveExemplar — histograms on untraced
	// paths pay nothing.
	exemplars atomic.Pointer[[histBuckets]atomic.Pointer[Exemplar]]
}

// Exemplar links one histogram bucket to a concrete traced request.
type Exemplar struct {
	TraceID string
	Value   int64 // native-unit observation
	Unix    int64 // observation time, unix seconds
}

// bucketOf returns the bucket index a value lands in.
func bucketOf(v int64) int {
	if v < 0 {
		v = 0
	}
	i := bits.Len64(uint64(v)) // v < 2^i, v >= 2^(i-1)
	if i >= histBuckets {
		i = histBuckets - 1
	}
	return i
}

// Observe records one value. Negative values clamp to zero.
func (h *Histogram) Observe(v int64) {
	if h == nil {
		return
	}
	if v < 0 {
		v = 0
	}
	h.buckets[bucketOf(v)].Add(1)
	h.count.Add(1)
	h.sum.Add(v)
}

// ObserveExemplar records one value and, when traceID is non-empty,
// remembers it as the bucket's exemplar so the exported series links to
// a concrete trace.
func (h *Histogram) ObserveExemplar(v int64, traceID string, unixSec int64) {
	h.Observe(v)
	if h == nil || traceID == "" {
		return
	}
	ex := h.exemplars.Load()
	if ex == nil {
		ex = new([histBuckets]atomic.Pointer[Exemplar])
		if !h.exemplars.CompareAndSwap(nil, ex) {
			ex = h.exemplars.Load()
		}
	}
	if v < 0 {
		v = 0
	}
	ex[bucketOf(v)].Store(&Exemplar{TraceID: traceID, Value: v, Unix: unixSec})
}

// Exemplar returns bucket i's exemplar, or nil if none was recorded.
func (h *Histogram) Exemplar(i int) *Exemplar {
	if h == nil || i < 0 || i >= histBuckets {
		return nil
	}
	ex := h.exemplars.Load()
	if ex == nil {
		return nil
	}
	return ex[i].Load()
}

// Count returns the number of observations.
func (h *Histogram) Count() int64 {
	if h == nil {
		return 0
	}
	return h.count.Load()
}

// Sum returns the running total of observed values.
func (h *Histogram) Sum() int64 {
	if h == nil {
		return 0
	}
	return h.sum.Load()
}

// Bucket returns the non-cumulative count of bucket i (observations in
// [2^(i-1), 2^i), with bucket 0 holding v < 1).
func (h *Histogram) Bucket(i int) int64 {
	if h == nil || i < 0 || i >= histBuckets {
		return 0
	}
	return h.buckets[i].Load()
}

// NumBuckets returns the fixed bucket count.
func (h *Histogram) NumBuckets() int { return histBuckets }

// UpperBound returns the exclusive upper boundary of bucket i in the
// histogram's native unit: 2^i for i < NumBuckets()-1, +Inf for the last.
func (h *Histogram) UpperBound(i int) float64 {
	if i >= histBuckets-1 {
		return math.Inf(1)
	}
	return float64(int64(1) << uint(i))
}

// Quantile estimates the q-th quantile (0..1) from the bucket counts by
// assuming observations sit at their bucket's upper bound — a
// conservative (over-) estimate matching Prometheus histogram_quantile
// semantics on log buckets. Returns 0 for an empty histogram.
func (h *Histogram) Quantile(q float64) float64 {
	if h == nil {
		return 0
	}
	total := h.count.Load()
	if total == 0 {
		return 0
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	rank := int64(math.Ceil(q * float64(total)))
	if rank < 1 {
		rank = 1
	}
	var seen int64
	for i := 0; i < histBuckets; i++ {
		seen += h.buckets[i].Load()
		if seen >= rank {
			if i == histBuckets-1 {
				return float64(int64(1) << uint(i-1)) // open-ended: lower bound
			}
			return h.UpperBound(i)
		}
	}
	return h.UpperBound(histBuckets - 1)
}

// kind tags a metric family for the Prometheus TYPE line.
type kind int

const (
	kindCounter kind = iota
	kindGauge
	kindHistogram
)

// family is one named metric family with zero or more labeled series.
type family struct {
	name string
	help string
	kind kind
	unit float64 // histogram only: multiplier from native unit to exported unit

	mu     sync.Mutex
	series map[string]any // rendered label string -> *Counter | *Gauge | *Histogram
	order  []string       // label strings in first-registration order
}

// Registry is a set of named metric families. The zero value is not
// usable; create with NewRegistry. All methods are safe for concurrent
// use; the get-or-create calls take a lock, so instrumentation should
// resolve metric pointers once and hold them (as Metrics does).
type Registry struct {
	mu       sync.Mutex
	families map[string]*family
	order    []string
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{families: map[string]*family{}}
}

// Labels is an ordered label set, rendered as {k1="v1",k2="v2"}. Pairs
// must come in key,value order; odd-length sets panic.
func renderLabels(kv []string) string {
	if len(kv) == 0 {
		return ""
	}
	if len(kv)%2 != 0 {
		panic("telemetry: odd label key/value list")
	}
	type pair struct{ k, v string }
	pairs := make([]pair, 0, len(kv)/2)
	for i := 0; i < len(kv); i += 2 {
		pairs = append(pairs, pair{kv[i], kv[i+1]})
	}
	sort.Slice(pairs, func(i, j int) bool { return pairs[i].k < pairs[j].k })
	var sb strings.Builder
	sb.WriteByte('{')
	for i, p := range pairs {
		if i > 0 {
			sb.WriteByte(',')
		}
		fmt.Fprintf(&sb, "%s=%q", p.k, p.v)
	}
	sb.WriteByte('}')
	return sb.String()
}

// getFamily returns the named family, creating it with the given help
// and kind on first use. Re-registering with a different kind panics —
// that is always an instrumentation bug.
func (r *Registry) getFamily(name, help string, k kind, unit float64) *family {
	r.mu.Lock()
	defer r.mu.Unlock()
	f, ok := r.families[name]
	if !ok {
		f = &family{name: name, help: help, kind: k, unit: unit, series: map[string]any{}}
		r.families[name] = f
		r.order = append(r.order, name)
		return f
	}
	if f.kind != k {
		panic(fmt.Sprintf("telemetry: metric %q re-registered with different type", name))
	}
	return f
}

func (f *family) get(labels string, make func() any) any {
	f.mu.Lock()
	defer f.mu.Unlock()
	s, ok := f.series[labels]
	if !ok {
		s = make()
		f.series[labels] = s
		f.order = append(f.order, labels)
	}
	return s
}

// Counter returns the counter with the given name and label key/value
// pairs, creating it on first use.
func (r *Registry) Counter(name, help string, labels ...string) *Counter {
	f := r.getFamily(name, help, kindCounter, 1)
	return f.get(renderLabels(labels), func() any { return &Counter{} }).(*Counter)
}

// Gauge returns the gauge with the given name and labels.
func (r *Registry) Gauge(name, help string, labels ...string) *Gauge {
	f := r.getFamily(name, help, kindGauge, 1)
	return f.get(renderLabels(labels), func() any { return &Gauge{} }).(*Gauge)
}

// Histogram returns the log2-bucket histogram with the given name and
// labels. unit is the multiplier from the histogram's native unit to the
// exported unit (e.g. 1e-6 for microsecond observations exported as
// seconds); it is fixed by the first registration of the family.
func (r *Registry) Histogram(name, help string, unit float64, labels ...string) *Histogram {
	if unit <= 0 {
		unit = 1
	}
	f := r.getFamily(name, help, kindHistogram, unit)
	return f.get(renderLabels(labels), func() any { return &Histogram{} }).(*Histogram)
}

// snapshotFamilies returns the families and their series in registration
// order, holding the locks only long enough to copy the maps.
func (r *Registry) snapshotFamilies() []*family {
	r.mu.Lock()
	fams := make([]*family, 0, len(r.order))
	for _, name := range r.order {
		fams = append(fams, r.families[name])
	}
	r.mu.Unlock()
	return fams
}
