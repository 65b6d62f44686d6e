// Package stats provides the small statistics toolkit used by the
// experiment drivers: means, deviations, percentiles, per-group
// aggregation and histogram binning for the paper's figures.
package stats

import (
	"fmt"
	"math"
	"sort"
)

// Mean returns the arithmetic mean of xs (0 for empty input).
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// StdDev returns the population standard deviation of xs.
func StdDev(xs []float64) float64 {
	if len(xs) < 2 {
		return 0
	}
	m := Mean(xs)
	s := 0.0
	for _, x := range xs {
		d := x - m
		s += d * d
	}
	return math.Sqrt(s / float64(len(xs)))
}

// Percentile returns the p-th percentile (0..100) by linear
// interpolation over the sorted sample. NaN samples are dropped before
// ranking (sort.Float64s would otherwise scatter them and poison the
// interpolation); a NaN p or an input with no non-NaN samples returns 0,
// like the empty input.
func Percentile(xs []float64, p float64) float64 {
	sorted := make([]float64, 0, len(xs))
	for _, x := range xs {
		if !math.IsNaN(x) {
			sorted = append(sorted, x)
		}
	}
	sort.Float64s(sorted)
	return sortedPercentile(sorted, p)
}

// sortedPercentile is Percentile over an ascending, NaN-free sample.
func sortedPercentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 || math.IsNaN(p) {
		return 0
	}
	if p <= 0 {
		return sorted[0]
	}
	if p >= 100 {
		return sorted[len(sorted)-1]
	}
	rank := p / 100 * float64(len(sorted)-1)
	lo := int(math.Floor(rank))
	hi := int(math.Ceil(rank))
	if lo == hi {
		return sorted[lo]
	}
	frac := rank - float64(lo)
	return sorted[lo]*(1-frac) + sorted[hi]*frac
}

// MinMax returns the extrema of xs; both zero for empty input.
func MinMax(xs []float64) (min, max float64) {
	if len(xs) == 0 {
		return 0, 0
	}
	min, max = xs[0], xs[0]
	for _, x := range xs[1:] {
		if x < min {
			min = x
		}
		if x > max {
			max = x
		}
	}
	return min, max
}

// Group aggregates y values by integer key (e.g. block size).
type Group struct {
	Key   int
	Ys    []float64
	Count int
}

// GroupBy buckets (key, y) pairs by key and returns groups in ascending
// key order.
func GroupBy(keys []int, ys []float64) []Group {
	if len(keys) != len(ys) {
		panic("stats: GroupBy length mismatch")
	}
	byKey := map[int]*Group{}
	for i, k := range keys {
		g, ok := byKey[k]
		if !ok {
			g = &Group{Key: k}
			byKey[k] = g
		}
		g.Ys = append(g.Ys, ys[i])
		g.Count++
	}
	out := make([]Group, 0, len(byKey))
	for _, g := range byKey {
		out = append(out, *g)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Key < out[j].Key })
	return out
}

// Histogram bins xs into n equal-width bins over [min, max].
type Histogram struct {
	Min, Max float64
	Width    float64
	Counts   []int
}

// NewHistogram builds an n-bin histogram of xs. n must be positive.
func NewHistogram(xs []float64, n int) Histogram {
	if n <= 0 {
		panic("stats: histogram needs at least one bin")
	}
	h := Histogram{Counts: make([]int, n)}
	if len(xs) == 0 {
		return h
	}
	h.Min, h.Max = MinMax(xs)
	if h.Max == h.Min {
		h.Max = h.Min + 1
	}
	h.Width = (h.Max - h.Min) / float64(n)
	for _, x := range xs {
		bin := int((x - h.Min) / h.Width)
		if bin >= n {
			bin = n - 1
		}
		if bin < 0 {
			bin = 0
		}
		h.Counts[bin]++
	}
	return h
}

// BinLabel renders the i-th bin's range like "[4.0,8.0)".
func (h Histogram) BinLabel(i int) string {
	lo := h.Min + float64(i)*h.Width
	return fmt.Sprintf("[%.1f,%.1f)", lo, lo+h.Width)
}

// LinearFit returns slope and intercept of the least-squares line through
// the points; both zero when fewer than two points are given.
func LinearFit(xs, ys []float64) (slope, intercept float64) {
	if len(xs) != len(ys) || len(xs) < 2 {
		return 0, 0
	}
	mx, my := Mean(xs), Mean(ys)
	num, den := 0.0, 0.0
	for i := range xs {
		num += (xs[i] - mx) * (ys[i] - my)
		den += (xs[i] - mx) * (xs[i] - mx)
	}
	if den == 0 {
		return 0, my
	}
	slope = num / den
	return slope, my - slope*mx
}
