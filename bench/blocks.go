package main

import (
	"context"
	"fmt"
	"math/rand"
	"slices"
	"time"

	"pipesched"
	"pipesched/internal/synth"
)

// blockCorpusSeed pins the block stream every block workload draws from,
// so paper-example and scoreboard compile the first 200 of paper-sim's 400
// blocks. The run's -seed orders the blocks, not which blocks they are.
const blockCorpusSeed = 1990

// warmupUnits is how many units each set-up compiles before timing starts.
const warmupUnits = 32

// blockCorpus returns the first n sources of a pinned stream of synthetic
// blocks: the paper's Figure 5 size distribution over 8 variables and 6
// constants, about 20 tuples a block with a tail past 40.
func blockCorpus(seed int64, n int) ([]string, error) {
	rng := rand.New(rand.NewSource(seed))
	srcs := make([]string, n)
	for i := range srcs {
		b, err := synth.Generate(rng, synth.Params{
			Statements: synth.SizeDistribution(rng, 1)[0], Variables: 8, Constants: 6,
		})
		if err != nil {
			return nil, err
		}
		srcs[i] = b.Source
	}
	return srcs, nil
}

// blockWorkload compiles a pinned corpus with pipesched.CompileCtx, one
// block at a time on one goroutine, in whole passes over the corpus.
type blockWorkload struct {
	machine func() *pipesched.Machine
	sched   pipesched.SchedMode
	blocks  int
	tail    float64 // the percentile latency_tail_ms reports
}

func (w blockWorkload) options() pipesched.Options {
	return pipesched.Options{Optimize: true, Sched: w.sched}
}

type blockSetup struct {
	m    *pipesched.Machine
	srcs []string
}

func (w blockWorkload) setup() (blockSetup, error) {
	srcs, err := blockCorpus(blockCorpusSeed, w.blocks)
	if err != nil {
		return blockSetup{}, err
	}
	m := w.machine()
	for _, src := range srcs[:min(warmupUnits, len(srcs))] {
		if c, err := pipesched.CompileCtx(context.Background(), src, m, w.options()); c == nil {
			return blockSetup{}, fmt.Errorf("warm-up: %w", err)
		}
	}
	return blockSetup{m, srcs}, nil
}

// blockTally is the deterministic total of one whole pass.
type blockTally struct{ nops, ticks, optimal int }

func (w blockWorkload) run(cfg runConfig) (*outcome, error) {
	st, setupS, err := timeSetups(w.setup, nil)
	if err != nil {
		return nil, err
	}
	o := newOutcome()
	o.metrics["setup_s"] = setupS
	rng := rand.New(rand.NewSource(cfg.seed))
	n := len(st.srcs)
	opts := w.options()
	budget := cfg.budget
	if cfg.trace {
		budget /= 2 // the other half runs traced
	}

	// Timed phase: CompileCtx with tracing off. first keeps each block's
	// result from the first pass for the checks; later passes must repeat it.
	first := make([]*pipesched.Compiled, n)
	var lat latencies
	var passMS []float64
	var tallies []blockTally
	var probing time.Duration
	untracedFrom := cfg.probe.mark()
	start := time.Now()
	for len(passMS) == 0 || time.Since(start)-probing < budget {
		var t blockTally
		p0, probed := time.Now(), probing
		for _, i := range rng.Perm(n) {
			t0 := time.Now()
			c, _ := pipesched.CompileCtx(context.Background(), st.srcs[i], st.m, opts)
			lat.add(time.Since(t0))
			probing += cfg.probe.tick()
			if c == nil {
				o.failed++
				continue
			}
			t.nops += c.TotalNOPs
			t.ticks += c.Ticks
			if c.Optimal {
				t.optimal++
			}
			if first[i] == nil {
				first[i] = c
			} else if c.TotalNOPs != first[i].TotalNOPs || !slices.Equal(c.Order, first[i].Order) {
				o.problemf("block %d: pass %d scheduled it differently from pass 1", i, len(passMS)+1)
			}
		}
		passMS = append(passMS, ms(time.Since(p0)-(probing-probed)))
		tallies = append(tallies, t)
	}
	elapsed := time.Since(start) - probing
	o.attempted = len(lat)
	rss, err := peakRSSMiB()
	if err != nil {
		return nil, err
	}
	for p, t := range tallies {
		if t != tallies[0] {
			o.problemf("pass %d totals %+v differ from pass 1 %+v", p+1, t, tallies[0])
		}
	}
	o.notef("%s: %d blocks x %d passes in %.2fs", cfg.name, n, len(passMS), elapsed.Seconds())

	k := &checker{seed: cfg.seed, m: st.m, rp: replica{m: st.m, sched: w.sched, optimize: true}, o: o}
	if !cfg.trace {
		o.metrics["throughput_per_s"] = float64(len(lat)) / elapsed.Seconds()
		o.setTail(lat, w.tail)
		o.metrics["cold_run_ms"] = latencies(passMS).pct(50)
		o.metrics["optimal_share"] = share(float64(tallies[0].optimal), float64(n))
		o.metrics["nops_per_block"] = share(float64(tallies[0].nops), float64(n))
		o.metrics["ticks_per_block"] = share(float64(tallies[0].ticks), float64(n))
		o.metrics["peak_rss_mb"] = rss
		for i, c := range first {
			if c != nil {
				k.block(fmt.Sprintf("block %d", i), st.srcs[i], c, nil)
			}
		}
		k.summary()
		return o, nil
	}

	// Traced phase: the replica, one span per stage, checked block by
	// block against the untraced results.
	untracedSlow := cfg.probe.slowdown(untracedFrom)
	tracedFrom := cfg.probe.mark()
	tr := newRecorder()
	o.spans = tr
	var counts layerCounts
	replicaOf := make([]*staged, n)
	tstart := time.Now()
	probing = 0
	tracedBlocks := 0
	for pass := 0; pass == 0 || (time.Since(tstart)-probing < budget && !tr.full()); pass++ {
		for _, i := range rng.Perm(n) {
			unit := fmt.Sprintf("block%d.pass%d", i, pass+1)
			root := tr.begin("replica.CompileCtx", "", unit, -1, true)
			s, err := k.rp.fromSource(tr, unit, root, st.srcs[i])
			tr.end(root)
			probing += cfg.probe.tick()
			tracedBlocks++
			o.attempted++
			if err != nil {
				o.failed++
				o.problemf("block %d: replica: %v", i, err)
				continue
			}
			counts.add(s)
			replicaOf[i] = s
		}
	}
	o.slowdown = cfg.probe.slowdown(tracedFrom)
	tracedNS := float64(time.Since(tstart)-probing) / float64(tracedBlocks) / o.slowdown
	untracedNS := float64(elapsed) / float64(len(lat)) / untracedSlow
	for i, c := range first {
		if c != nil && replicaOf[i] != nil {
			k.block(fmt.Sprintf("block %d", i), st.srcs[i], c, replicaOf[i])
		}
	}
	k.summary()

	tot := tr.totals()
	layers := byLayer(tot)
	sum := compileLayerMetrics(o, layers)
	counts.store(o, layers["core"].selfNS)
	o.metrics["trace.overhead_share"] = tracedNS/untracedNS - 1
	o.metrics["cache.hit_share"] = 0
	o.zero(serviceOnly)
	o.zero(campaignOnly)
	o.report = append(o.report, selfTable(tot)...)
	o.notef("at reference speed: layers sum to %.0f ns/block; the traced replica took %.0f ns/block, untraced CompileCtx %.0f",
		sum/o.slowdown, tracedNS, untracedNS)
	return o, nil
}
