package stats

import (
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
