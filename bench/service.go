package main

import (
	"context"
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	"pipesched"
	"pipesched/internal/fleet"
	"pipesched/internal/server"
)

const (
	// serviceCorpusSeed pins the service's block stream.
	serviceCorpusSeed = 1991
	serviceClients    = 2
	serviceNodes      = 2
	// serviceHotShare is the chance a request goes to the hot set; the
	// rest walk a cycle longer than both nodes' LRUs together, so they
	// always miss.
	serviceHotShare = 0.5
	// serviceSampleEvery picks the misses whose output is checked: a small
	// fixed sample keeps the checker from inflating peak_rss_mb.
	serviceSampleEvery = 64
	// serviceCompileSample is how many cycle sources the traced run also
	// compiles directly, with CompileCtx and with the replica.
	serviceCompileSample = 1024
)

// serviceWorkload is a closed loop of serviceClients clients, each sending
// its next request when the last one returns, to an in-process fleet of
// serviceNodes nodes with one worker and a memory-only LRU each.
type serviceWorkload struct {
	hot, cycle int // hot-set size and miss-cycle length
}

type serviceSetup struct {
	m    *pipesched.Machine
	fl   *fleet.Fleet
	srcs []string          // the hot set, then the cycle
	reqs []*server.Request // one per source, shared read-only by the clients
}

func (w serviceWorkload) setup() (*serviceSetup, error) {
	srcs, err := blockCorpus(serviceCorpusSeed, w.hot+w.cycle)
	if err != nil {
		return nil, err
	}
	st := &serviceSetup{m: pipesched.SimulationMachine(), fl: fleet.New(fleet.Config{}), srcs: srcs}
	for i := 0; i < serviceNodes; i++ {
		st.fl.AddNode(fleet.NewNode(fmt.Sprintf("node%d", i), "", server.Config{Workers: 1}))
	}
	for _, src := range srcs {
		st.reqs = append(st.reqs, &server.Request{
			Source: src, Machine: server.MachineSpec{Preset: "simulation"},
			Options: server.RequestOptions{Optimize: true},
		})
	}
	// The warm-up is the hot set, so hot requests hit from the start.
	for _, req := range st.reqs[:w.hot] {
		if resp, err := st.fl.Submit(context.Background(), req); resp == nil || resp.Compiled == nil {
			st.close()
			return nil, fmt.Errorf("warm-up: %w", err)
		}
	}
	return st, nil
}

func (st *serviceSetup) close() {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	_ = st.fl.Shutdown(ctx) // a node that fails to drain in time is abandoned at exit
}

// clientStats is what one client saw.
type clientStats struct {
	all, hit, miss latencies
	waitMiss       latencies // queue wait of the misses
	failed         int       // requests without a compiled answer
	hits, deduped  int
	fastPath       int
	retries        int
	// first keeps the first answer for each checked source: the hot set
	// and every serviceSampleEvery-th cycle source.
	first map[int]*pipesched.Compiled
	// answers is the first answer per source; every later answer for the
	// source must repeat it.
	answers  []answer
	problems []string
}

// answer is the code a source compiled to, in brief.
type answer struct {
	nops, ticks   int32
	optimal, seen bool
}

func (cs *clientStats) answered(i int, a answer, who string) {
	switch prev := cs.answers[i]; {
	case !prev.seen:
		cs.answers[i] = a
	case prev != a:
		cs.problems = append(cs.problems, fmt.Sprintf("source %d: %s %+v, earlier %+v", i, who, a, prev))
	}
}

// stream runs the closed loop until the clients have run for budget, and
// returns each client's view and the time they ran. The clients pause
// every probeEvery for one prober slice. Spans go to tr when it is non-nil.
func (w serviceWorkload) stream(st *serviceSetup, seed int64, budget time.Duration, tr *recorder, p *prober) ([]*clientStats, time.Duration) {
	offset := rand.New(rand.NewSource(seed)).Int63n(int64(w.cycle))
	var next atomic.Int64
	out := make([]*clientStats, serviceClients)
	rngs := make([]*rand.Rand, serviceClients)
	sent := make([]int, serviceClients)
	for k := range out {
		out[k] = &clientStats{first: map[int]*pipesched.Compiled{}, answers: make([]answer, len(st.reqs))}
		rngs[k] = rand.New(rand.NewSource(seed*serviceClients + int64(k) + 1))
	}
	var ran time.Duration
	for ran < budget && !tr.full() {
		segment := min(probeEvery, budget-ran)
		start := time.Now()
		var wg sync.WaitGroup
		for k, cs := range out {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for time.Since(start) < segment && !tr.full() {
					i := rngs[k].Intn(w.hot)
					if rngs[k].Float64() >= serviceHotShare {
						i = w.hot + int((offset+next.Add(1)-1)%int64(w.cycle))
					}
					w.request(cs, st, i, k, sent[k], tr)
					sent[k]++
				}
			}()
		}
		wg.Wait()
		ran += time.Since(start)
		p.slice()
	}
	return out, ran
}

// request sends source i through the fleet and records the answer in cs.
func (w serviceWorkload) request(cs *clientStats, st *serviceSetup, i, client, n int, tr *recorder) {
	req := st.reqs[i]
	root, sub := -1, -1
	if tr != nil {
		unit := fmt.Sprintf("req%d.%d", client, n)
		root = tr.begin("client.request", "", unit, -1, false)
		fp := tr.begin("server.Fingerprint", "", unit, root, false)
		_, _ = server.Fingerprint(req) // timed only; fleet.Submit fingerprints again
		tr.end(fp)
		sub = tr.begin("fleet.Submit", "", unit, root, false)
	}
	t0 := time.Now()
	resp, _ := st.fl.Submit(context.Background(), req) // a degraded answer still carries its schedule
	d := time.Since(t0)
	tr.end(sub)
	tr.end(root)
	cs.all.add(d)
	if resp == nil || resp.Compiled == nil {
		cs.failed++ // a hard error or an overload rejection
		return
	}
	c := resp.Compiled
	if resp.Cached {
		cs.hits++
		cs.hit.add(d)
	} else {
		cs.miss.add(d)
		cs.waitMiss.add(resp.Wait)
	}
	if resp.Deduped {
		cs.deduped++
	}
	if resp.FastPath {
		cs.fastPath++
	}
	cs.retries += resp.Retries
	cs.answered(i, answer{int32(c.TotalNOPs), int32(c.Ticks), c.Optimal, true}, "answered")
	if _, ok := cs.first[i]; !ok && (i < w.hot || (i-w.hot)%serviceSampleEvery == 0) {
		cs.first[i] = c
	}
}

// mergeClients sums the clients' views; answers for one source must agree
// across clients too.
func mergeClients(clients []*clientStats) *clientStats {
	sum := &clientStats{first: map[int]*pipesched.Compiled{}, answers: make([]answer, len(clients[0].answers))}
	for _, cs := range clients {
		sum.all = append(sum.all, cs.all...)
		sum.hit = append(sum.hit, cs.hit...)
		sum.miss = append(sum.miss, cs.miss...)
		sum.waitMiss = append(sum.waitMiss, cs.waitMiss...)
		sum.failed += cs.failed
		sum.hits += cs.hits
		sum.deduped += cs.deduped
		sum.fastPath += cs.fastPath
		sum.retries += cs.retries
		sum.problems = append(sum.problems, cs.problems...)
		for i, c := range cs.first {
			sum.first[i] = c
		}
		for i, a := range cs.answers {
			if a.seen {
				sum.answered(i, a, "another client got")
			}
		}
	}
	return sum
}

// quality stores the code-quality metrics over the distinct sources
// answered, each counted once, as the block workloads count each block
// of their corpus once.
func (cs *clientStats) quality(o *outcome) {
	var seen, optimal, nops, ticks float64
	for _, a := range cs.answers {
		if a.seen {
			seen++
			nops += float64(a.nops)
			ticks += float64(a.ticks)
			if a.optimal {
				optimal++
			}
		}
	}
	o.metrics["optimal_share"] = share(optimal, seen)
	o.metrics["nops_per_block"] = share(nops, seen)
	o.metrics["ticks_per_block"] = share(ticks, seen)
	o.notef("code quality over the %.0f of %d sources answered", seen, len(cs.answers))
}

// total is the sum of l.
func total(l latencies) float64 {
	var s float64
	for _, v := range l {
		s += v
	}
	return s
}

func (w serviceWorkload) run(cfg runConfig) (*outcome, error) {
	st, setupS, err := timeSetups(w.setup, func(s *serviceSetup) { s.close() })
	if err != nil {
		return nil, err
	}
	defer st.close()
	o := newOutcome()
	o.metrics["setup_s"] = setupS
	budget := cfg.budget
	if cfg.trace {
		budget /= 2
	}
	untracedFrom := cfg.probe.mark()
	clients, elapsed := w.stream(st, cfg.seed, budget, nil, cfg.probe)
	sum := mergeClients(clients)
	rss, err := peakRSSMiB()
	if err != nil {
		return nil, err
	}
	o.attempted, o.failed = len(sum.all), sum.failed
	o.problems = append(o.problems, sum.problems...)
	o.notef("%s: %d requests in %.2fs, %d hits, %d misses", cfg.name, len(sum.all), elapsed.Seconds(), sum.hits, len(sum.miss))

	k := &checker{seed: cfg.seed, m: st.m, rp: replica{m: st.m, optimize: true}, o: o}
	for i, c := range sum.first {
		k.block(fmt.Sprintf("source %d", i), st.srcs[i], c, nil)
	}
	k.summary()
	if !cfg.trace {
		o.metrics["throughput_per_s"] = float64(len(sum.all)) / elapsed.Seconds()
		o.setTail(sum.all, 99)
		o.metrics["cold_run_ms"] = sum.miss.pct(50)
		sum.quality(o)
		o.metrics["peak_rss_mb"] = rss
		return o, nil
	}

	// Traced run: the same loop with spans around server.Fingerprint and
	// fleet.Submit, then the miss sources compiled directly, once with
	// CompileCtx and once with the replica, for the compile layers.
	untracedSlow := cfg.probe.slowdown(untracedFrom)
	streamFrom := cfg.probe.mark()
	tr := newRecorder()
	o.spans = tr
	tclients, telapsed := w.stream(st, cfg.seed, budget, tr, cfg.probe)
	streamSlow := cfg.probe.slowdown(streamFrom)
	compileFrom := cfg.probe.mark()
	tsum := mergeClients(tclients)
	o.attempted += len(tsum.all)
	o.failed += tsum.failed
	o.problems = append(o.problems, tsum.problems...)
	var compile latencies
	var counts layerCounts
	for i, src := range st.srcs[w.hot : w.hot+min(serviceCompileSample, w.cycle)] {
		unit := fmt.Sprintf("source%d", w.hot+i)
		sp := tr.begin("pipesched.CompileCtx", "", unit, -1, true)
		t0 := time.Now()
		c, err := pipesched.CompileCtx(context.Background(), src, st.m, pipesched.Options{Optimize: true})
		compile.add(time.Since(t0))
		tr.end(sp)
		root := tr.begin("replica.CompileCtx", "", unit, -1, true)
		s, rerr := k.rp.fromSource(tr, unit, root, src)
		tr.end(root)
		cfg.probe.tick()
		o.attempted++
		if c == nil || rerr != nil {
			o.failed++
			o.problemf("source %d: CompileCtx: %v; replica: %v", w.hot+i, err, rerr)
			continue
		}
		counts.add(s)
		if err := sameAsReplica(c, s); err != nil {
			o.problemf("source %d: CompileCtx and the traced replica differ: %v", w.hot+i, err)
		}
	}

	// The compile layers were timed in the compile pass; the service
	// numbers are compared at reference speed, as the machine may have
	// changed speed between the phases.
	o.slowdown = cfg.probe.slowdown(compileFrom)
	tot := tr.totals()
	layers := byLayer(tot)
	compileLayerMetrics(o, layers)
	counts.store(o, layers["core"].selfNS)
	n := float64(len(tsum.all))
	missP50, compileP50 := tsum.miss.pct(50)/streamSlow, compile.pct(50)/o.slowdown
	o.metrics["trace.overhead_share"] = (float64(telapsed)/n/streamSlow)/(float64(elapsed)/float64(len(sum.all))/untracedSlow) - 1
	o.metrics["cache.hit_share"] = share(float64(tsum.hits), n)
	o.metrics["server.dedup_share"] = share(float64(tsum.deduped), n)
	o.metrics["server.fast_path_share"] = share(float64(tsum.fastPath), n)
	o.metrics["server.retries_per_request"] = share(float64(tsum.retries), n)
	o.metrics["server.queue_wait_share"] = share(total(tsum.waitMiss), total(tsum.miss))
	o.metrics["service.overhead_share"] = share(missP50-compileP50, missP50)
	o.zero(campaignOnly)
	fp := tot["server.Fingerprint"]
	o.report = append(o.report, selfTable(tot)...)
	o.notef("at reference speed:")
	o.notef("%-32s %.6g ms", "fleet.hit_p50_ms", tsum.hit.pct(50)/streamSlow)
	o.notef("%-32s %.6g ms", "fleet.miss_p50_ms", missP50)
	o.notef("%-32s %.6g ms", "fleet.miss_p99_ms", tsum.miss.pct(99)/streamSlow)
	o.notef("%-32s %.6g ms", "server.queue_wait_p50_ms", tsum.waitMiss.pct(50)/streamSlow)
	o.notef("%-32s %.6g ms", "server.queue_wait_p99_ms", tsum.waitMiss.pct(99)/streamSlow)
	o.notef("%-32s %.6g ns", "server.fingerprint_ns", share(fp.totalNS, float64(fp.calls))/streamSlow)
	o.notef("%-32s %.6g ms", "pipesched.compile_p50_ms", compileP50)
	return o, nil
}
