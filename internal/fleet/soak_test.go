package fleet

import (
	"context"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"pipesched/internal/dag"
	"pipesched/internal/faultinject"
	"pipesched/internal/machine"
	"pipesched/internal/server"
	"pipesched/internal/sim"
	"pipesched/internal/telemetry"
)

// TestSoakFleetChaos is the fleet's kill-nodes soak: concurrent clients
// drive mixed traffic through the router while a chaos goroutine
// crashes and restarts random nodes mid-flight. Invariants:
//
//   - nothing hangs (watchdog);
//   - every delivered schedule sim-verifies, whatever rung and
//     whichever node survived to produce it;
//   - no silent drops (resp and err never both nil) and every error is
//     typed;
//   - after the storm, killing and restarting every node recovers at
//     least 90% of the durable cache entries (here: all of them), and
//     deliberately corrupted entries are quarantined — never a startup
//     failure.
func TestSoakFleetChaos(t *testing.T) {
	const nodes = 3
	f := New(Config{
		Replicas: 2,
		Metrics:  telemetry.NewMetrics(telemetry.NewRegistry()),
		// Probe fast so the healthy gauge tracks the churn.
		ProbeInterval: 20 * time.Millisecond,
	})
	defer f.Close()
	dirs := make([]string, nodes)
	for i := 0; i < nodes; i++ {
		id := fmt.Sprintf("node-%d", i)
		dirs[i] = filepath.Join(t.TempDir(), id)
		f.AddNode(NewNode(id, dirs[i], testServerConfig()))
	}

	// Stretch every search a little so kills land mid-flight instead of
	// between requests.
	inj := faultinject.New().Seed(99).
		Plan(faultinject.Search, faultinject.Plan{Delay: 2 * time.Millisecond, Prob: 0.7})
	defer faultinject.Activate(inj)()

	clients := 6
	perClient := 120
	if testing.Short() {
		perClient = 35
	}

	// Chaos: one node down at a time, killed and restarted on a jittered
	// cadence, so a request's two-replica chain always has a live member
	// (modulo transition windows, which surface as typed no_replicas).
	stopChaos := make(chan struct{})
	var chaosWG sync.WaitGroup
	var kills atomic.Int64
	chaosWG.Add(1)
	go func() {
		defer chaosWG.Done()
		rng := rand.New(rand.NewSource(7))
		for {
			select {
			case <-stopChaos:
				return
			default:
			}
			id := fmt.Sprintf("node-%d", rng.Intn(nodes))
			f.Node(id).Kill()
			kills.Add(1)
			time.Sleep(time.Duration(2+rng.Intn(8)) * time.Millisecond)
			f.RestartNode(id)
			time.Sleep(time.Duration(2+rng.Intn(8)) * time.Millisecond)
		}
	}()

	type outcome struct {
		resp *server.Response
		err  error
	}
	results := make(chan outcome, clients*perClient)
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(c + 1)))
			for i := 0; i < perClient; i++ {
				var req *server.Request
				switch rng.Intn(10) {
				case 0: // invalid: typed rejection at the router
					req = &server.Request{Machine: server.MachineSpec{Preset: "simulation"}}
				case 1: // source input: exercises the frontend
					req = &server.Request{
						Source:  fmt.Sprintf("b = %d\na = b * a\n", rng.Intn(50)),
						Machine: server.MachineSpec{Preset: "simulation"},
					}
				default: // tuple input over a handful of keys: dedup + caches
					req = tupleRequest(rng.Intn(8))
				}
				ctx, cancel := context.Background(), context.CancelFunc(func() {})
				if rng.Intn(6) == 0 { // caller-side chaos: tiny deadlines
					ctx, cancel = context.WithTimeout(ctx, time.Duration(rng.Intn(3))*time.Millisecond)
				}
				resp, err := f.Submit(ctx, req)
				cancel()
				results <- outcome{resp, err}
			}
		}(c)
	}

	// The watchdog IS the assertion that nothing hangs.
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(2 * time.Minute):
		t.Fatal("fleet soak hung: not every request terminated")
	}
	close(stopChaos)
	chaosWG.Wait()
	close(results)

	m := machine.Presets()["simulation"]()
	verified, hard := 0, 0
	typed := map[string]int{}
	for o := range results {
		if o.err != nil {
			code := server.ErrorCode(o.err)
			if code == "error" {
				t.Fatalf("untyped error escaped the taxonomy: %v", o.err)
			}
			typed[code]++
		}
		if o.resp == nil || o.resp.Compiled == nil {
			if o.err == nil {
				t.Fatal("silent drop: no result and no error")
			}
			hard++
			continue
		}
		// Independent legality re-verification of every delivered
		// schedule, whatever node and rung produced it.
		c := o.resp.Compiled
		g, err := dag.Build(c.Original)
		if err != nil {
			t.Fatalf("verification DAG build failed: %v", err)
		}
		if _, err := sim.Run(sim.Input{
			Graph: g, M: m, Order: c.Order, Eta: c.Eta, Pipes: c.Pipes,
		}, sim.NOPPadding); err != nil {
			t.Fatalf("delivered schedule (quality %v) failed simulation: %v", c.Quality, err)
		}
		verified++
	}
	t.Logf("fleet soak: %d schedules sim-verified, %d hard failures, %d kills, typed errors %v, failovers=%d hedges=%d",
		verified, hard, kills.Load(), typed, f.met.failovers.Value(), f.met.hedges.Value())
	if verified == 0 {
		t.Fatal("soak produced no verifiable schedules")
	}
	if kills.Load() == 0 {
		t.Fatal("chaos goroutine never killed a node")
	}

	// Make every node live again (chaos may have left one down), then
	// crash the whole fleet and restart it: the warm-restart contract is
	// that at least 90% of durable entries survive (here, with no
	// corruption, all of them must).
	durableBefore := 0
	for i := 0; i < nodes; i++ {
		id := fmt.Sprintf("node-%d", i)
		f.RestartNode(id)
		if st := f.Node(id).DiskStore(); st != nil {
			durableBefore += st.Len()
		}
	}
	if durableBefore == 0 {
		t.Fatal("soak left no durable cache entries to recover")
	}
	recoveredTotal := 0
	for i := 0; i < nodes; i++ {
		id := fmt.Sprintf("node-%d", i)
		f.Node(id).Kill()
		f.RestartNode(id)
		rep := f.Node(id).DiskRecovery()
		if rep.Quarantined != 0 {
			t.Errorf("node %s quarantined %d entries with no corruption injected", id, rep.Quarantined)
		}
		recoveredTotal += rep.Recovered
	}
	if float64(recoveredTotal) < 0.9*float64(durableBefore) {
		t.Fatalf("warm restart recovered %d of %d durable entries (< 90%%)", recoveredTotal, durableBefore)
	}
	// Warm restart means warm answers: a repeat of a cached tuple request
	// is served from the durable tier without recompiling.
	resp, err := f.Submit(context.Background(), tupleRequest(0))
	if err != nil || resp == nil || resp.Compiled == nil {
		t.Fatalf("post-restart submit: resp=%v err=%v", resp, err)
	}
	if !resp.Cached {
		t.Error("post-restart submit recompiled: durable tier did not come back warm")
	}

	// Corruption drill: rot two entries on one node's disk; its restart
	// must quarantine exactly those two and keep the rest — never fail.
	victim := "node-0"
	n := f.Node(victim)
	before := n.DiskStore().Len()
	if before < 3 {
		t.Skipf("node %s holds only %d durable entries; corruption drill needs 3+", victim, before)
	}
	n.Kill()
	names, err := filepath.Glob(filepath.Join(dirs[0], "*.pce"))
	if err != nil || len(names) < 3 {
		t.Fatalf("glob %s: %v (%d files)", dirs[0], err, len(names))
	}
	if err := os.Truncate(names[0], 3); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(names[1], []byte("garbage, not a cache entry"), 0o644); err != nil {
		t.Fatal(err)
	}
	f.RestartNode(victim)
	rep := n.DiskRecovery()
	if rep.Quarantined != 2 {
		t.Errorf("corruption drill: quarantined %d entries, want 2", rep.Quarantined)
	}
	if rep.Recovered != before-2 {
		t.Errorf("corruption drill: recovered %d entries, want %d", rep.Recovered, before-2)
	}
	if !n.Healthy() {
		t.Fatal("node did not come back healthy after corrupted restart")
	}

	// A clean drain must succeed with nothing left in flight.
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := f.Shutdown(ctx); err != nil {
		t.Fatalf("post-soak drain: %v", err)
	}
}
