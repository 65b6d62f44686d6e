package stats

import (
	"math"
	"slices"
	"sync"
)

// Window is a sliding window over the most recent samples that answers
// percentile queries such as "what is p95 right now?". Beside the ring
// it keeps its non-NaN samples in ascending order, so Observe costs two
// binary searches and a shift of at most the window, and a read
// interpolates without sorting. It is safe for concurrent use.
type Window struct {
	mu         sync.Mutex
	buf        []float64 // ring buffer
	sorted     []float64 // the ring's non-NaN samples, ascending
	n          int       // samples stored (<= len(buf))
	i          int       // next write position
	minSamples int
}

// NewWindow returns a window over the last size samples whose P95 stays
// 0 until it holds minSamples of them, guarding the cold start.
func NewWindow(size, minSamples int) *Window {
	return &Window{buf: make([]float64, size), sorted: make([]float64, 0, size), minSamples: minSamples}
}

// Observe adds a sample, evicting the oldest once the window is full.
func (w *Window) Observe(x float64) {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.n == len(w.buf) {
		if old := w.buf[w.i]; !math.IsNaN(old) {
			// -0 and +0 compare equal, so either may go: no percentile
			// can tell them apart.
			j, _ := slices.BinarySearch(w.sorted, old)
			w.sorted = slices.Delete(w.sorted, j, j+1)
		}
	} else {
		w.n++
	}
	w.buf[w.i] = x
	w.i = (w.i + 1) % len(w.buf)
	if !math.IsNaN(x) {
		j, _ := slices.BinarySearch(w.sorted, x)
		w.sorted = slices.Insert(w.sorted, j, x)
	}
}

// Samples returns how many samples the window holds.
func (w *Window) Samples() int {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.n
}

// Quantiles returns the requested percentiles over the window, in
// order. With no samples every answer is 0.
func (w *Window) Quantiles(ps ...float64) []float64 {
	_, qs := w.Snapshot(ps...)
	return qs
}

// Snapshot returns how many samples the window holds and the requested
// percentiles over them, both read from one state of the window.
func (w *Window) Snapshot(ps ...float64) (samples int, qs []float64) {
	w.mu.Lock()
	defer w.mu.Unlock()
	qs = make([]float64, len(ps))
	for i, p := range ps {
		qs[i] = sortedPercentile(w.sorted, p)
	}
	return w.n, qs
}

// P95 returns the 95th percentile, or 0 while the window holds fewer
// than its minimum sample count.
func (w *Window) P95() float64 {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.n < w.minSamples {
		return 0
	}
	return sortedPercentile(w.sorted, 95)
}
