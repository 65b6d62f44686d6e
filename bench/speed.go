package main

import (
	"math/rand"
	"slices"
	"time"
)

// The machines this benchmark runs on are shared, and their speed drifts
// by tens of percent over seconds to minutes as neighbours load them. A
// prober measures that drift: between the workload's units it times a
// fixed reference computation, which never calls pipesched, so no change
// to the program can speed it up or slow it down. Every wall-clock metric
// is then reported at reference speed, multiplied by speedFactor. On the
// calibration machine running undisturbed the factor is about 1 and the
// numbers are plain wall-clock times; the raw times and the factor are
// printed above the result line.
//
// The reference computation sorts 32 KiB of integers: branchy integer work
// in cache, like the compiler's, which tracks its speed from second to
// second far better than memory-bound work does. It allocates nothing, so
// the program's garbage collector neither waits for it nor slows it, and
// its data is small enough that the program's own cache use cannot evict
// it for long.
type prober struct {
	pristine, work []uint64
	sink           uint64

	total  time.Duration // time spent in slices
	slices int
	last   time.Time
}

const (
	// probeEvery is how much workload time passes between slices; a
	// slice takes about a millisecond, one or two percent of the run.
	probeEvery = 100 * time.Millisecond
	// probeSorts is how many sorts one slice times.
	probeSorts = 6
	// refSlice is the mean slice time on the calibration machine
	// (README.md, "Calibration"); it only sets the scale of the metrics.
	refSlice = 1700 * time.Microsecond
)

func newProber() *prober {
	rng := rand.New(rand.NewSource(1))
	p := &prober{pristine: make([]uint64, 4096), work: make([]uint64, 4096), last: time.Now()}
	for i := range p.pristine {
		p.pristine[i] = rng.Uint64()
	}
	return p
}

// slice runs the reference computation once and times it.
func (p *prober) slice() {
	t0 := time.Now()
	for r := 0; r < probeSorts; r++ {
		copy(p.work, p.pristine)
		slices.Sort(p.work)
		p.sink += p.work[r]
	}
	p.last = time.Now()
	p.total += p.last.Sub(t0)
	p.slices++
}

// tick runs a slice when probeEvery has passed since the last one, and
// returns the time it took (0 when no slice ran). Callers leave that time
// out of what they measure.
func (p *prober) tick() time.Duration {
	if time.Since(p.last) < probeEvery {
		return 0
	}
	t := p.total
	p.slice()
	return p.total - t
}

// probeMark is a point in a run: the slices run so far and their time.
type probeMark struct {
	total  time.Duration
	slices int
}

func (p *prober) mark() probeMark { return probeMark{p.total, p.slices} }

// slowdown is how much slower than reference speed the machine ran since
// m, by the slices run since then: the traced run compares its halves
// with it, as the machine may change speed between them.
func (p *prober) slowdown(m probeMark) float64 {
	if p.slices == m.slices {
		p.slice()
	}
	mean := (p.total - m.total) / time.Duration(p.slices-m.slices)
	return float64(mean) / float64(refSlice)
}

// speedFactor converts this run's wall-clock times to reference speed.
func (p *prober) speedFactor() float64 { return 1 / p.slowdown(probeMark{}) }

// toReferenceSpeed scales every wall-clock metric of defs by factor f: a
// time by f, a rate by 1/f. It prints the raw values first.
func (o *outcome) toReferenceSpeed(defs []metricDef, f float64) {
	o.notef("speed factor %.4f: raw values of the scaled metrics follow", f)
	for _, d := range defs {
		v := o.metrics[d.name]
		switch d.unit {
		case "s", "ms", "ns":
			o.metrics[d.name] = v * f
		case "1/s":
			o.metrics[d.name] = v / f
		default:
			continue
		}
		o.notef("  raw %-28s %.6g %s", d.name, v, d.unit)
	}
}
