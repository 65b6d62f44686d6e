package stats

import (
	"math"
	"math/rand"
	"sync"
	"testing"
)

func TestWindowColdStartAndEviction(t *testing.T) {
	w := NewWindow(4, 3)
	if q := w.Quantiles(50, 95); q[0] != 0 || q[1] != 0 {
		t.Fatalf("empty window quantiles = %v, want zeros", q)
	}
	w.Observe(1)
	w.Observe(2)
	if p := w.P95(); p != 0 {
		t.Fatalf("P95 below the minimum sample count = %v, want 0", p)
	}
	w.Observe(3)
	if p := w.P95(); !almostEq(p, 2.9) {
		t.Fatalf("P95 of {1,2,3} = %v, want 2.9", p)
	}
	// Two more samples evict 1 and 2: the window holds {3, 10, 20, 30}.
	for _, x := range []float64{10, 20, 30} {
		w.Observe(x)
	}
	if n := w.Samples(); n != 4 {
		t.Fatalf("Samples = %d, want the window size 4", n)
	}
	if q := w.Quantiles(0, 100); q[0] != 3 || q[1] != 30 {
		t.Fatalf("min/max after eviction = %v, want [3 30]", q)
	}
}

// TestWindowConcurrent shares one window between writers and readers;
// run under -race it shows the window needs no outside locking.
func TestWindowConcurrent(t *testing.T) {
	w := NewWindow(64, 8)
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				w.Observe(1)
				w.P95()
				w.Quantiles(50, 99)
			}
		}()
	}
	wg.Wait()
	if n := w.Samples(); n != 64 {
		t.Fatalf("Samples = %d, want the window size 64", n)
	}
	if p := w.P95(); p != 1 {
		t.Fatalf("P95 of all-1 samples = %v, want 1", p)
	}
}

// TestWindowMatchesPercentile: after every Observe, Quantiles and P95
// answer exactly what Percentile answers over the ring's current
// contents. The streams mix NaN, ±Inf, ±0 and runs of duplicates, and
// run long enough to wrap each ring three times. Ring sizes run from 1
// to 300: every size up to 16, sparser above, since the reference
// checks cost the square of the size. Each step asks for p95 and two
// percentiles drawn from a list with NaN, out-of-range and
// interpolated ranks.
func TestWindowMatchesPercentile(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	specials := []float64{math.NaN(), math.Inf(1), math.Inf(-1), 0, math.Copysign(0, -1)}
	ps := []float64{math.NaN(), -5, 0, 1, 37.5, 50, 66.6, 99, 99.9, 100, 120}
	same := func(a, b float64) bool { return a == b || math.IsNaN(a) && math.IsNaN(b) }
	for size := 1; size <= 300; size += 1 + size/16 {
		minSamples := rng.Intn(size + 2)
		w := NewWindow(size, minSamples)
		var ring []float64 // the window's contents, oldest first
		x := 0.0
		for k := 0; k < 3*size+7; k++ {
			switch r := rng.Intn(10); {
			case r < 2:
				x = specials[rng.Intn(len(specials))]
			case r < 5: // repeat the last sample: runs of duplicates
			default:
				x = float64(rng.Intn(20)) - 5 + rng.Float64()*float64(rng.Intn(2))
			}
			w.Observe(x)
			if ring = append(ring, x); len(ring) > size {
				ring = ring[1:]
			}
			ask := []float64{ps[rng.Intn(len(ps))], 95, ps[rng.Intn(len(ps))]}
			got := w.Quantiles(ask...)
			want := make([]float64, len(ask))
			for i, p := range ask {
				if want[i] = Percentile(ring, p); !same(got[i], want[i]) {
					t.Fatalf("size %d after %d samples: P%v = %v, want %v (ring %v)", size, k+1, p, got[i], want[i], ring)
				}
			}
			if len(ring) < minSamples {
				want[1] = 0
			}
			if got := w.P95(); !same(got, want[1]) {
				t.Fatalf("size %d (min %d) after %d samples: P95 = %v, want %v", size, minSamples, k+1, got, want[1])
			}
		}
	}
}

// TestWindowAllocatesNothing: the fleet's hedge delay and the server's
// admission read P95 on every request, and the windows observe a sample
// per answered request or dequeued flight; neither call allocates.
func TestWindowAllocatesNothing(t *testing.T) {
	w := NewWindow(256, 16)
	for i := 0; i < 1000; i++ {
		w.Observe(float64(i % 97))
	}
	if a := testing.AllocsPerRun(100, func() { w.P95() }); a != 0 {
		t.Errorf("P95 allocates %v times, want 0", a)
	}
	x := 0.0
	if a := testing.AllocsPerRun(100, func() { x++; w.Observe(x) }); a != 0 {
		t.Errorf("Observe allocates %v times, want 0", a)
	}
}
