package main

import (
	"context"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"syscall"
	"time"

	"pipesched"
	"pipesched/internal/campaign"
	"pipesched/internal/frontend"
	"pipesched/internal/ir"
	"pipesched/internal/machine"
	"pipesched/internal/opt"
	"pipesched/internal/synth"
	"pipesched/internal/tuplegen"
)

const (
	// campaignCorpusSeed pins the program corpus; the run's -seed draws
	// the edits.
	campaignCorpusSeed  = 1992
	campaignConcurrency = 2
)

// campaignWorkload runs whole-program campaigns with campaign.Runner and
// campaign.LocalCompiler, two traces at a time. A run first populates a
// manifest with a cold run that records every trace. Each pass then runs
// the corpus cold without a manifest, and runs it once per edit against
// the manifest, each edit a one-line change to a different program, so
// nearly every trace is a manifest hit.
//
// The timed cold runs leave the manifest out because the manifest fsyncs
// every trace it records: on the shared disk this benchmark was
// calibrated on, a cold run with records took from 200 to 670 ms from one
// run to the next, a spread beyond any bound. The populating run's time
// is printed but not reported.
type campaignWorkload struct {
	programs int // corpus size
	edits    int // edit runs per pass
}

type campaignSetup struct {
	m      *pipesched.Machine
	inputs []campaign.Input
	dir    string // manifest directories live here
}

// campaignCorpus generates the pinned programs: 2 to 6 blocks of at most 4
// statements over 6 variables and 4 constants, 30% of blocks branching.
func campaignCorpus(n int) ([]campaign.Input, error) {
	rng := rand.New(rand.NewSource(campaignCorpusSeed))
	inputs := make([]campaign.Input, n)
	for i := range inputs {
		p, err := synth.GenerateProgram(rng, synth.ProgramParams{
			Blocks: 2 + rng.Intn(5), BlockStatements: 4, Variables: 6, Constants: 4, BranchPercent: 30,
		})
		if err != nil {
			return nil, err
		}
		inputs[i] = campaign.Input{Name: fmt.Sprintf("p%03d.psrc", i), Source: p.Source}
	}
	return inputs, nil
}

// editRuns draws the input sets of one pass's edit runs from rng: the
// corpus with one statement of a different program changed in each. The
// constant the edit adds is the pass's own, so no edit run finds an
// earlier pass's edit in the manifest.
func editRuns(inputs []campaign.Input, rng *rand.Rand, n, pass int) [][]campaign.Input {
	var runs [][]campaign.Input
	for _, p := range rng.Perm(len(inputs))[:min(n, len(inputs))] {
		lines := strings.Split(inputs[p].Source, "\n")
		var stmts []int
		for j, l := range lines {
			if strings.Contains(l, " = ") {
				stmts = append(stmts, j)
			}
		}
		j := stmts[rng.Intn(len(stmts))]
		lines[j] = strings.Replace(lines[j], " = ", fmt.Sprintf(" = %d + ", 98765+pass), 1)
		edited := slices.Clone(inputs)
		edited[p].Source = strings.Join(lines, "\n")
		runs = append(runs, edited)
	}
	return runs
}

func (w campaignWorkload) setup(dir string) (*campaignSetup, error) {
	inputs, err := campaignCorpus(w.programs)
	if err != nil {
		return nil, err
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	st := &campaignSetup{m: pipesched.SimulationMachine(), inputs: inputs, dir: dir}
	if _, _, err := st.runnerRun(nil, inputs[:min(warmupUnits, len(inputs))]); err != nil {
		return nil, fmt.Errorf("warm-up: %w", err)
	}
	return st, nil
}

// campaignTotals are the totals of one campaign run.
type campaignTotals struct {
	programs, blocks, traces, tuples, baseline, delivered, saved, hits, recompiled, optimal int
}

// outputs are the totals every run over the same inputs must repeat. How
// traces were served is left out: when two programs share a trace, the
// runner's two workers race to record it, and the second finds it in the
// manifest or compiles it again depending on which finishes first.
func (t campaignTotals) outputs() campaignTotals {
	t.hits, t.recompiled = 0, 0
	return t
}

func totalsOf(rep *campaign.Report) campaignTotals {
	t := campaignTotals{
		programs: rep.TotalPrograms, blocks: rep.TotalBlocks, traces: rep.TotalTraces, tuples: rep.TotalTuples,
		baseline: rep.BaselineNOPs, delivered: rep.DeliveredNOPs, saved: rep.NOPsSaved,
		hits: rep.ManifestHits, recompiled: rep.Recompiled,
	}
	for _, p := range rep.Programs {
		if p.Optimal {
			t.optimal++
		}
	}
	return t
}

// runnerRun is one campaign run the way `pipesched campaign` does it: a
// fresh Runner, over mf when it is not nil.
func (st *campaignSetup) runnerRun(mf *campaign.Manifest, inputs []campaign.Input) (*campaign.Report, time.Duration, error) {
	r, err := campaign.NewRunner(campaign.Config{
		Machine: st.m, Compiler: &campaign.LocalCompiler{M: st.m}, Manifest: mf,
		Concurrency: campaignConcurrency, Optimize: true,
	})
	if err != nil {
		return nil, 0, err
	}
	t0 := time.Now()
	rep, err := r.Run(context.Background(), inputs)
	d := time.Since(t0)
	if err == nil && rep.Failed > 0 {
		err = fmt.Errorf("%d programs failed", rep.Failed)
	}
	return rep, d, err
}

// populate opens a fresh manifest named name and records every trace of
// the corpus in it with one cold run.
func (st *campaignSetup) populate(name string) (*campaign.Manifest, *campaign.Report, time.Duration, error) {
	mf, _, err := campaign.OpenManifest(filepath.Join(st.dir, name), st.m, machine.SchedMode{})
	if err != nil {
		return nil, nil, 0, err
	}
	rep, d, err := st.runnerRun(mf, st.inputs)
	if err != nil {
		mf.Close()
		return nil, nil, 0, fmt.Errorf("populating run: %w", err)
	}
	return mf, rep, d, nil
}

func (w campaignWorkload) run(cfg runConfig) (*outcome, error) {
	st, setupS, err := timeSetups(func() (*campaignSetup, error) { return w.setup(cfg.workDir) }, nil)
	if err != nil {
		return nil, err
	}
	o := newOutcome()
	o.metrics["setup_s"] = setupS
	budget := cfg.budget
	if cfg.trace {
		budget /= 2
	}
	mf, rep, d, err := st.populate("manifest")
	if err != nil {
		return nil, err
	}
	defer mf.Close()
	cold := totalsOf(rep)
	o.notef("manifest on %s, populated by a cold run recording %d traces in %.1f ms", fsType(st.dir), cold.traces, ms(d))

	// Timed phase: whole passes of one cold run and the edit runs.
	var coldMS []float64
	var edits latencies
	var runTime time.Duration
	var editTotals [][]campaignTotals // per pass, per edit run
	rng := rand.New(rand.NewSource(cfg.seed))
	untracedFrom := cfg.probe.mark()
	for pass := 0; pass == 0 || runTime < budget; pass++ {
		runs := append([][]campaign.Input{st.inputs}, editRuns(st.inputs, rng, w.edits, pass)...)
		totals := make([]campaignTotals, len(runs))
		for r, in := range runs {
			manifest := mf
			if r == 0 {
				manifest = nil
			}
			rep, d, err := st.runnerRun(manifest, in)
			cfg.probe.tick()
			o.attempted += len(in)
			runTime += d
			if err != nil {
				o.failed++
				if rep != nil {
					o.failed += max(rep.Failed, 1) - 1
				}
				o.problemf("pass %d run %d: %v", pass+1, r, err)
				continue
			}
			totals[r] = totalsOf(rep)
			if r == 0 {
				coldMS = append(coldMS, ms(d))
			} else {
				edits.add(d)
			}
			o.checkCampaignRun(fmt.Sprintf("pass %d run %d", pass+1, r), totals[r], cold, r == 0)
		}
		editTotals = append(editTotals, totals[1:])
	}
	rss, err := peakRSSMiB()
	if err != nil {
		return nil, err
	}
	o.notef("%s: %d programs x %d passes of 1 cold + %d edit runs in %.2fs of runs", cfg.name, len(st.inputs), len(coldMS), w.edits, runTime.Seconds())

	if !cfg.trace {
		o.metrics["throughput_per_s"] = float64(o.attempted) / runTime.Seconds()
		o.setTail(edits, 95)
		o.metrics["cold_run_ms"] = latencies(coldMS).pct(50)
		o.metrics["optimal_share"] = share(float64(cold.optimal), float64(cold.programs))
		o.metrics["nops_per_block"] = share(float64(cold.delivered), float64(cold.blocks))
		o.metrics["ticks_per_block"] = share(float64(cold.tuples+cold.delivered), float64(cold.blocks))
		o.metrics["peak_rss_mb"] = rss
		// The check: a replay of the populating run and of the first pass's
		// edit runs must reproduce Runner.Run's totals.
		rmf, err := st.replayPopulate(&replicaCompiler{rp: replica{m: st.m}}, "check", cold, o)
		if err != nil {
			return nil, err
		}
		defer rmf.Close()
		st.replayPass(&replicaCompiler{rp: replica{m: st.m}}, rmf, rand.New(rand.NewSource(cfg.seed)), w.edits, 0, cold, editTotals, o)
		return o, nil
	}

	// Traced run: the populating run and then whole passes replayed with a
	// span per campaign-layer call and per compile stage; then the lowering
	// inside ParseProgram repeated once for the front half of the compile
	// layers.
	untracedSlow := cfg.probe.slowdown(untracedFrom)
	tr := newRecorder()
	o.spans = tr
	rc := &replicaCompiler{rp: replica{m: st.m}, tr: tr}
	rmf, err := st.replayPopulate(rc, "trace", cold, o)
	if err != nil {
		return nil, err
	}
	defer rmf.Close()
	untracedPrograms := o.attempted
	var passTime time.Duration
	var passPrograms, hits, lookups int
	rrng := rand.New(rand.NewSource(cfg.seed))
	tracedFrom := cfg.probe.mark()
	for pass := 0; pass == 0 || (passTime < budget && !tr.full()); pass++ {
		t0 := time.Now()
		for _, t := range st.replayPass(rc, rmf, rrng, w.edits, pass, cold, editTotals, o) {
			hits += t.hits
			lookups += t.traces
		}
		passTime += time.Since(t0)
		passPrograms += len(st.inputs) * (1 + w.edits)
		cfg.probe.slice()
	}
	o.slowdown = cfg.probe.slowdown(tracedFrom)
	o.attempted += passPrograms + len(st.inputs)
	if err := lower(tr, st.inputs, &rc.counts); err != nil {
		return nil, err
	}
	tot := tr.totals()
	layers := byLayer(tot)
	compileLayerMetrics(o, layers)
	rc.counts.store(o, layers["core"].selfNS)
	runs := tot["campaign.Run"].totalNS
	o.metrics["trace.overhead_share"] = (float64(passTime)/float64(passPrograms)/o.slowdown)/(float64(runTime)/float64(untracedPrograms)/untracedSlow) - 1
	o.metrics["cache.hit_share"] = share(float64(hits), float64(lookups))
	o.metrics["campaign.parse_share"] = share(tot["campaign.ParseProgram"].totalNS, runs)
	o.metrics["campaign.schedule_share"] = share(tot["campaign.ScheduleTrace"].totalNS, runs)
	o.metrics["manifest.lookup_share"] = share(tot["manifest.Lookup"].totalNS, runs)
	o.metrics["manifest.record_share"] = share(tot["manifest.Record"].totalNS, runs)
	o.metrics["campaign.nops_saved_per_trace"] = share(float64(cold.saved), float64(cold.traces))
	o.zero(serviceOnly)
	o.report = append(o.report, selfTable(tot)...)
	per := func(name string, scale float64) float64 {
		t := tot[name]
		return share(t.totalNS, float64(t.calls)) / scale
	}
	o.notef("%-32s %.6g us", "campaign.parse_us_per_program", per("campaign.ParseProgram", 1e3))
	o.notef("%-32s %.6g us", "campaign.traces_us_per_program", per("campaign.Traces", 1e3))
	o.notef("%-32s %.6g us", "campaign.merge_us_per_trace", per("campaign.Merged", 1e3))
	o.notef("%-32s %.6g ms", "campaign.schedule_ms_per_trace", per("campaign.ScheduleTrace", 1e6))
	o.notef("%-32s %.6g us", "manifest.lookup_us_per_trace", per("manifest.Lookup", 1e3))
	o.notef("%-32s %.6g us", "manifest.record_us_per_trace", per("manifest.Record", 1e3))
	return o, nil
}

// checkCampaignRun reports a run whose totals break the campaign's
// invariants: a cold run must repeat the populating run's totals, and an
// edit run must serve every trace, from the manifest or fresh, never
// delivering more NOPs than its per-block baseline.
func (o *outcome) checkCampaignRun(name string, t, cold campaignTotals, isCold bool) {
	switch {
	case isCold && t.outputs() != cold.outputs():
		o.problemf("%s: cold totals %+v differ from the populating run's %+v", name, t, cold)
	case t.hits+t.recompiled != t.traces:
		o.problemf("%s: %d hits and %d recompiled for %d traces", name, t.hits, t.recompiled, t.traces)
	case t.delivered > t.baseline:
		o.problemf("%s: delivered %d NOPs, more than the per-block baseline %d", name, t.delivered, t.baseline)
	}
}

// replayPopulate replays the populating run into a fresh manifest, checks
// its totals, and returns the manifest.
func (st *campaignSetup) replayPopulate(rc *replicaCompiler, name string, cold campaignTotals, o *outcome) (*campaign.Manifest, error) {
	mf, _, err := campaign.OpenManifest(filepath.Join(st.dir, name), st.m, machine.SchedMode{})
	if err != nil {
		return nil, err
	}
	if got, err := st.replay(rc, mf, st.inputs, name+".populate"); err != nil {
		o.problemf("replay %s of the populating run: %v", name, err)
	} else if got.outputs() != cold.outputs() {
		o.problemf("replay %s of the populating run: totals %+v, Runner.Run %+v", name, got, cold)
	}
	return mf, nil
}

// replayPass replays pass number pass: the cold run without a manifest,
// then the pass's edit runs, drawn from rng as the timed pass drew them,
// against mf. Totals that differ from Runner.Run's are problems; the edit
// runs' totals are returned.
func (st *campaignSetup) replayPass(rc *replicaCompiler, mf *campaign.Manifest, rng *rand.Rand, edits, pass int,
	cold campaignTotals, editTotals [][]campaignTotals, o *outcome) []campaignTotals {
	name := fmt.Sprintf("replay of pass %d", pass+1)
	if got, err := st.replay(rc, nil, st.inputs, fmt.Sprintf("pass%d.cold", pass+1)); err != nil {
		o.problemf("%s, cold run: %v", name, err)
	} else {
		o.checkCampaignRun(name+", cold run", got, cold, true)
	}
	var out []campaignTotals
	for e, in := range editRuns(st.inputs, rng, edits, pass) {
		got, err := st.replay(rc, mf, in, fmt.Sprintf("pass%d.edit%d", pass+1, e+1))
		if err != nil {
			o.problemf("%s, edit run %d: %v", name, e+1, err)
			continue
		}
		out = append(out, got)
		if pass < len(editTotals) && got.outputs() != editTotals[pass][e].outputs() {
			o.problemf("%s, edit run %d: totals %+v, Runner.Run %+v", name, e+1, got, editTotals[pass][e])
		}
	}
	return out
}

// replay repeats one Runner.Run a trace at a time, on one goroutine,
// through the campaign package's public functions, with the replica as
// the compiler. It returns the totals Runner.Run would report. A nil mf
// runs cold without a manifest.
func (st *campaignSetup) replay(rc *replicaCompiler, mf *campaign.Manifest, inputs []campaign.Input, run string) (campaignTotals, error) {
	tr := rc.tr
	mode := machine.SchedMode{}
	dedup := campaign.NewDedupCompiler(rc)
	root := tr.begin("campaign.Run", "", run, -1, true)
	defer tr.end(root)
	t := campaignTotals{programs: len(inputs)}
	for _, in := range inputs {
		sp := tr.begin("campaign.ParseProgram", "", in.Name, root, true)
		g, err := campaign.ParseProgram(in.Name, in.Source, true)
		tr.end(sp)
		if err != nil {
			return t, err
		}
		sp = tr.begin("campaign.Traces", "", in.Name, root, true)
		traces := g.Traces()
		tr.end(sp)
		t.blocks += len(g.Blocks)
		optimal := true
		for _, trc := range traces {
			unit := in.Name + "/" + trc.Name()
			sp = tr.begin("campaign.Merged", "", unit, root, true)
			_, err := trc.Merged()
			tr.end(sp)
			if err != nil {
				return t, err
			}
			var res *campaign.TraceResult
			hit := false
			if mf != nil {
				sp = tr.begin("manifest.Lookup", "", unit, root, true)
				res, hit = mf.Lookup(trc, st.m, mode)
				tr.end(sp)
			}
			if hit {
				t.hits++
			} else {
				sp = tr.begin("campaign.ScheduleTrace", "", unit, root, true)
				rc.unit, rc.parent = unit, sp
				res, err = campaign.ScheduleTrace(context.Background(), trc, st.m, mode, dedup)
				tr.end(sp)
				if err != nil {
					return t, err
				}
				if mf != nil {
					sp = tr.begin("manifest.Record", "", unit, root, true)
					err = mf.Record(trc, res)
					tr.end(sp)
					if err != nil {
						return t, err
					}
				}
				t.recompiled++
			}
			t.traces++
			t.tuples += res.Tuples
			t.baseline += res.BaselineNOPs
			t.delivered += res.DeliveredNOPs
			t.saved += res.NOPsSaved()
			optimal = optimal && res.Optimal
		}
		if optimal {
			t.optimal++
		}
	}
	return t, nil
}

// replicaCompiler is a replay's campaign.Compiler: the replica, with its
// spans under the ScheduleTrace span of the trace being compiled.
type replicaCompiler struct {
	rp     replica
	tr     *recorder
	unit   string
	parent int
	counts layerCounts
}

func (rc *replicaCompiler) Compile(_ context.Context, b *ir.Block) (*pipesched.Compiled, error) {
	sp := rc.tr.begin("campaign.Compiler", "", rc.unit, rc.parent, true)
	s, err := rc.rp.fromBlock(rc.tr, rc.unit, sp, b)
	rc.tr.end(sp)
	if err != nil {
		return nil, err
	}
	rc.counts.add(s)
	return s.compiled(b, rc.rp.sched), nil
}

// lower repeats the lowering campaign.ParseProgram does for every
// program, one span per call: frontend.ParseFile, then tuplegen.Generate
// and opt.Optimize per block.
func lower(tr *recorder, inputs []campaign.Input, counts *layerCounts) error {
	for _, in := range inputs {
		root := tr.begin("replica.ParseProgram", "", in.Name, -1, true)
		sp := tr.begin("frontend.ParseFile", "frontend", in.Name, root, true)
		parsed, err := frontend.ParseFile(in.Source)
		tr.end(sp)
		if err != nil {
			return err
		}
		tr.setBlocks(sp, len(parsed))
		for i, np := range parsed {
			label := np.Name
			if label == "" {
				label = fmt.Sprintf("block%d", i)
			}
			var b *ir.Block
			tr.stage("tuplegen.Generate", "tuplegen", in.Name, root, func() { b, err = tuplegen.Generate(np.Program, label) })
			if err != nil {
				return err
			}
			n := b.Len()
			tr.stage("opt.Optimize", "opt", in.Name, root, func() { b = opt.Optimize(b) })
			counts.lower(n, b.Len())
		}
		tr.end(root)
	}
	return nil
}

// fsType names the filesystem holding dir, for the run's record.
func fsType(dir string) string {
	var s syscall.Statfs_t
	if err := syscall.Statfs(dir, &s); err != nil {
		return "unknown (" + err.Error() + ")"
	}
	switch s.Type {
	case 0xEF53:
		return "ext4"
	case 0x01021994:
		return "tmpfs"
	case 0x794C7630:
		return "overlayfs"
	case 0x58465342:
		return "xfs"
	case 0x9123683E:
		return "btrfs"
	}
	return fmt.Sprintf("filesystem type %#x", s.Type)
}
