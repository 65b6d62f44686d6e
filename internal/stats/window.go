package stats

import "sync"

// Window is a sliding window over the most recent samples that answers
// percentile queries such as "what is p95 right now?". It is safe for
// concurrent use.
type Window struct {
	mu         sync.Mutex
	buf        []float64 // ring buffer
	n          int       // samples stored (<= len(buf))
	i          int       // next write position
	minSamples int
}

// NewWindow returns a window over the last size samples whose P95 stays
// 0 until it holds minSamples of them, guarding the cold start.
func NewWindow(size, minSamples int) *Window {
	return &Window{buf: make([]float64, size), minSamples: minSamples}
}

// Observe adds a sample, evicting the oldest once the window is full.
func (w *Window) Observe(x float64) {
	w.mu.Lock()
	defer w.mu.Unlock()
	w.buf[w.i] = x
	w.i = (w.i + 1) % len(w.buf)
	if w.n < len(w.buf) {
		w.n++
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
	w.mu.Lock()
	defer w.mu.Unlock()
	out := make([]float64, len(ps))
	if w.n == 0 {
		return out
	}
	for i, p := range ps {
		out[i] = Percentile(w.buf[:w.n], p)
	}
	return out
}

// P95 returns the 95th percentile, or 0 while the window holds fewer
// than its minimum sample count.
func (w *Window) P95() float64 {
	if w.Samples() < w.minSamples {
		return 0
	}
	return w.Quantiles(95)[0]
}
