package fleet

import (
	"context"
	"fmt"
	"math/rand"
	"os"
	"os/exec"
	"path/filepath"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"pipesched/internal/dag"
	"pipesched/internal/fleet/supervisor"
	"pipesched/internal/machine"
	"pipesched/internal/netchaos"
	"pipesched/internal/server"
	"pipesched/internal/sim"
	"pipesched/internal/telemetry"
)

// buildWorkerBinary compiles the pipesched CLI once for the soak: the
// workers are REAL processes running the real binary, not test doubles.
func buildWorkerBinary(t *testing.T) string {
	t.Helper()
	bin := filepath.Join(t.TempDir(), "pipesched")
	cmd := exec.Command("go", "build", "-o", bin, "pipesched/cmd/pipesched")
	cmd.Env = os.Environ()
	out, err := cmd.CombinedOutput()
	if err != nil {
		t.Fatalf("building worker binary: %v\n%s", err, out)
	}
	return bin
}

// TestSoakFleetProcessChaos is the out-of-process capstone: three REAL
// worker processes (the pipesched binary) under a supervisor, each
// behind a netchaos proxy, driven by concurrent clients while chaos
// SIGKILLs workers, partitions links and corrupts response streams.
// Invariants:
//
//   - nothing hangs (watchdog);
//   - every delivered schedule independently sim-verifies;
//   - no silent drops, and every error is typed;
//   - the supervisor restarts killed workers (and the crash-loop breaker
//     gives up on a persistently-broken one, which leaves the ring);
//   - a request that failed over mid-storm leaves a trace naming two
//     distinct worker PIDs;
//   - after SIGKILLing every worker, the durable tier comes back warm
//     (>= 90% cache hit rate on re-asked keys);
//   - a corrupted durable cache entry is quarantined on restart, never a
//     startup failure.
func TestSoakFleetProcessChaos(t *testing.T) {
	if testing.Short() && os.Getenv("PIPESCHED_SOAK") == "" {
		t.Skip("process soak skipped in -short (set PIPESCHED_SOAK=1 to force)")
	}
	bin := buildWorkerBinary(t)

	reg := telemetry.NewRegistry()
	pm := telemetry.NewMetrics(reg)
	col := &spanCollector{}
	pm.SetSink(col)
	telemetry.InstallTracer(telemetry.NewTracer(pm, telemetry.TracerConfig{Node: "router"}))
	defer telemetry.UninstallTracer()

	f := New(Config{Replicas: 2, Metrics: pm, ProbeInterval: 50 * time.Millisecond})
	defer f.Close()

	// Storm SIGKILLs must never trip the breaker (restart cadence is
	// far slower than the window allows); the give-up drill later uses
	// its own tightly-wound supervisor.
	sup := supervisor.New(supervisor.Config{
		ReadyTimeout:    15 * time.Second,
		BackoffBase:     50 * time.Millisecond,
		BackoffMax:      500 * time.Millisecond,
		CrashLoopLimit:  50,
		CrashLoopWindow: time.Minute,
		DrainTimeout:    3 * time.Second,
		Metrics:         pm,
	})
	defer sup.Stop()

	const workers = 3
	ids := make([]string, workers)
	proxies := make([]*netchaos.Proxy, workers)
	remotes := make([]*RemoteNode, workers)
	dirs := make([]string, workers)
	for i := 0; i < workers; i++ {
		id := fmt.Sprintf("w%d", i)
		ids[i] = id
		dirs[i] = filepath.Join(t.TempDir(), id)
		proxy, err := netchaos.New("127.0.0.1:0", "", reg)
		if err != nil {
			t.Fatal(err)
		}
		defer proxy.Close()
		proxies[i] = proxy

		rn := NewRemoteNode(id, "", RemoteConfig{AttemptTimeout: 2 * time.Second, Metrics: pm})
		remotes[i] = rn
		f.AddBackend(rn)

		factory := func() *exec.Cmd {
			cmd := exec.Command(bin, "worker", "-node", id, "-addr", "127.0.0.1:0", "-cache-dir", dirs[i])
			cmd.Stderr = nil // workers log to stderr; keep the test output quiet
			return cmd
		}
		// The supervisor↔router glue: every (re)start repoints the chaos
		// proxy at the fresh worker port and revives the backend. The
		// router keeps dialing the proxy's stable address throughout.
		_, err = sup.Start(id, factory, supervisor.Events{
			Ready: func(_ *supervisor.Worker, addr string, _ int) {
				proxy.SetTarget(addr)
				rn.SetTarget(proxy.Addr())
			},
		})
		if err != nil {
			t.Fatal(err)
		}
	}

	awaitHealthy := func(what string) {
		t.Helper()
		deadline := time.Now().Add(30 * time.Second)
		for time.Now().Before(deadline) {
			n := 0
			for _, rn := range remotes {
				if rn.Healthy() {
					n++
				}
			}
			if n == workers {
				return
			}
			time.Sleep(20 * time.Millisecond)
		}
		t.Fatalf("timed out waiting for all workers healthy (%s)", what)
	}
	awaitHealthy("boot")

	tracer := telemetry.ActiveTracer()
	m := machine.Presets()["simulation"]()
	verify := func(resp *server.Response) {
		t.Helper()
		if resp == nil || resp.Compiled == nil {
			return
		}
		cc := resp.Compiled
		g, err := dag.Build(cc.Original)
		if err != nil {
			t.Errorf("verification DAG build failed: %v", err)
			return
		}
		if _, err := sim.Run(sim.Input{Graph: g, M: m, Order: cc.Order, Eta: cc.Eta, Pipes: cc.Pipes}, sim.NOPPadding); err != nil {
			t.Errorf("delivered schedule (quality %v) failed simulation: %v", cc.Quality, err)
		}
	}

	// Warm-up: seed every key once so each worker's durable tier holds
	// its share and every backend has a known PID for the trace drill.
	const keys = 10
	for i := 0; i < keys; i++ {
		resp, err := f.Submit(context.Background(), tupleRequest(i))
		if err != nil || resp == nil || resp.Compiled == nil {
			t.Fatalf("warm-up key %d: resp=%v err=%v", i, resp, err)
		}
	}

	// ---- Storm: concurrent clients vs. process- and network-chaos ----
	// Time-boxed, not count-boxed: the clients must still be firing when
	// the chaos lands, however fast requests complete.
	clients, stormDur := 4, 8*time.Second
	if testing.Short() {
		clients, stormDur = 3, 3*time.Second
	}
	stormEnd := time.Now().Add(stormDur)
	stopChaos := make(chan struct{})
	var chaosWG sync.WaitGroup
	var kills, partitions atomic.Int64
	chaosWG.Add(1)
	go func() {
		defer chaosWG.Done()
		rng := rand.New(rand.NewSource(13))
		for {
			select {
			case <-stopChaos:
				return
			default:
			}
			i := rng.Intn(workers)
			switch rng.Intn(3) {
			case 0: // process chaos: SIGKILL; the supervisor respawns
				sup.Worker(ids[i]).Kill()
				kills.Add(1)
			case 1: // network chaos: brief full partition, then heal
				proxies[i].Partition(true)
				partitions.Add(1)
				time.Sleep(time.Duration(50+rng.Intn(100)) * time.Millisecond)
				proxies[i].Partition(false)
			case 2: // byte-level chaos: seeded mid-body drops for a while
				proxies[i].SetPlan(netchaos.Plan{DropAfter: 200, Prob: 0.5, Times: 3}, rng.Int63())
			}
			time.Sleep(time.Duration(100+rng.Intn(150)) * time.Millisecond)
		}
	}()

	type outcome struct {
		resp *server.Response
		err  error
	}
	results := make(chan outcome, 4096)
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(100 + c)))
			for time.Now().Before(stormEnd) {
				// Every request is traced: the storm itself produces the
				// failover traces the PID assertion mines afterwards.
				ctx, root := tracer.StartRoot(context.Background(), "soak.request", telemetry.TraceContext{})
				cancel := context.CancelFunc(func() {})
				if rng.Intn(10) == 0 { // caller-side chaos: tiny deadlines
					ctx, cancel = context.WithTimeout(ctx, time.Duration(1+rng.Intn(5))*time.Millisecond)
				}
				resp, err := f.Submit(ctx, tupleRequest(rng.Intn(keys)))
				cancel()
				root.End()
				select {
				case results <- outcome{resp, err}:
				default: // channel full: the invariants have ample samples
				}
				time.Sleep(time.Duration(2+rng.Intn(8)) * time.Millisecond)
			}
		}(c)
	}

	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(3 * time.Minute):
		t.Fatal("process soak hung: not every request terminated")
	}
	close(stopChaos)
	chaosWG.Wait()
	close(results)

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
		verify(o.resp)
		verified++
	}
	t.Logf("process soak: %d schedules sim-verified, %d hard failures, %d kills, %d partitions, typed errors %v, failovers=%d hedges=%d",
		verified, hard, kills.Load(), partitions.Load(), typed, f.met.failovers.Value(), f.met.hedges.Value())
	if verified == 0 {
		t.Fatal("soak produced no verifiable schedules")
	}
	if kills.Load() == 0 || partitions.Load() == 0 {
		t.Fatalf("chaos did not exercise both levers: kills=%d partitions=%d", kills.Load(), partitions.Load())
	}

	// Quiesce: heal the network and let the supervisor bring every
	// worker back.
	for _, p := range proxies {
		p.Partition(false)
		p.SetPlan(netchaos.Plan{}, 1)
	}
	awaitHealthy("post-storm")
	restarts := 0
	for _, id := range ids {
		restarts += sup.Worker(id).Restarts()
	}
	if restarts == 0 {
		t.Fatal("storm SIGKILLs produced no supervisor restarts")
	}

	// ---- Failover trace drill: two distinct worker PIDs in one trace --
	// Partition one worker and submit across all keys: a request whose
	// primary sits behind the partition fails over, and its trace must
	// name BOTH process incarnations — the partitioned one it tried
	// (last-known PID) and the one that answered (PID header).
	twoPIDTrace := func() bool {
		byTrace := map[string]map[string]bool{}
		for _, s := range col.named("fleet.rpc") {
			if pid := s.Attrs["pid"]; pid != "" {
				if byTrace[s.TraceID] == nil {
					byTrace[s.TraceID] = map[string]bool{}
				}
				byTrace[s.TraceID][pid] = true
			}
		}
		for _, pids := range byTrace {
			if len(pids) >= 2 {
				return true
			}
		}
		return false
	}
	proxies[0].Partition(true)
	deadline := time.Now().Add(20 * time.Second)
	for !twoPIDTrace() {
		if time.Now().After(deadline) {
			t.Fatal("no trace with two distinct worker PIDs after failover drill")
		}
		for i := 0; i < keys; i++ {
			ctx, root := tracer.StartRoot(context.Background(), "soak.failover", telemetry.TraceContext{})
			_, _ = f.Submit(ctx, tupleRequest(i))
			root.End()
		}
	}
	proxies[0].Partition(false)
	awaitHealthy("post-drill")

	// ---- Warm-restart drill: SIGKILL everyone, demand a warm cache ----
	// Re-seed all keys (the storm may have displaced some), then kill
	// every process and require >= 90% of the keys to come back cached
	// from the recovered durable tier.
	for i := 0; i < keys; i++ {
		if _, err := f.Submit(context.Background(), tupleRequest(i)); err != nil {
			t.Fatalf("re-seed key %d: %v", i, err)
		}
	}
	pidsBefore := map[string]int{}
	for i, rn := range remotes {
		pidsBefore[ids[i]] = rn.PID()
		sup.Worker(ids[i]).Kill()
	}
	// Health flags lag a SIGKILL (the router only learns from a failed
	// RPC or probe), so wait for proof of rebirth: a probe answering
	// with a NEW pid on every worker.
	for i, rn := range remotes {
		deadline := time.Now().Add(30 * time.Second)
		for {
			rctx, rcancel := context.WithTimeout(context.Background(), 2*time.Second)
			st, _, err := rn.Probe(rctx)
			rcancel()
			if err == nil && st.PID != 0 && st.PID != pidsBefore[ids[i]] {
				break
			}
			if time.Now().After(deadline) {
				t.Fatalf("worker %s never came back with a new pid (last %+v, err %v)", ids[i], st, err)
			}
			time.Sleep(50 * time.Millisecond)
		}
	}
	awaitHealthy("post-restart")
	hits := 0
	for i := 0; i < keys; i++ {
		resp, err := f.Submit(context.Background(), tupleRequest(i))
		if err != nil || resp == nil || resp.Compiled == nil {
			t.Fatalf("post-restart key %d: resp=%v err=%v", i, resp, err)
		}
		verify(resp)
		if resp.Cached || resp.DiskHit {
			hits++
		}
	}
	if float64(hits) < 0.9*float64(keys) {
		t.Fatalf("post-restart warm hit rate %d/%d < 90%%: durable tier did not survive SIGKILL", hits, keys)
	}
	t.Logf("warm restart: %d/%d keys served from recovered cache", hits, keys)

	// ---- Corruption drill: rot one durable entry, restart, quarantine --
	victim := 0
	names, err := filepath.Glob(filepath.Join(dirs[victim], "*.pce"))
	if err != nil || len(names) == 0 {
		t.Fatalf("no durable entries on %s to corrupt (%v, %d files)", ids[victim], err, len(names))
	}
	if err := os.Truncate(names[0], 3); err != nil {
		t.Fatal(err)
	}
	sup.Worker(ids[victim]).Kill()
	awaitHealthy("post-corruption")
	qdeadline := time.Now().Add(15 * time.Second)
	for {
		rctx, rcancel := context.WithTimeout(context.Background(), 5*time.Second)
		st, _, err := remotes[victim].Probe(rctx)
		rcancel()
		if err == nil && st.Quarantined >= 1 {
			if st.Recovered == 0 {
				t.Errorf("corruption drill recovered nothing alongside the quarantine: %+v", st)
			}
			break
		}
		if time.Now().After(qdeadline) {
			t.Fatalf("corrupted entry never quarantined (last status %+v, err %v)", st, err)
		}
		time.Sleep(50 * time.Millisecond)
	}

	// ---- Crash-loop give-up: a broken worker leaves the ring ----------
	drill := supervisor.New(supervisor.Config{
		ReadyTimeout:    10 * time.Second,
		BackoffBase:     10 * time.Millisecond,
		BackoffMax:      50 * time.Millisecond,
		CrashLoopLimit:  3,
		CrashLoopWindow: time.Minute,
		Metrics:         pm,
	})
	defer drill.Stop()
	var broken atomic.Bool
	extraDir := filepath.Join(t.TempDir(), "w3")
	rn3 := NewRemoteNode("w3", "", RemoteConfig{AttemptTimeout: 2 * time.Second, Metrics: pm})
	f.AddBackend(rn3)
	gaveUp := make(chan struct{})
	w3, err := drill.Start("w3", func() *exec.Cmd {
		if broken.Load() {
			// The post-deploy pathology: the binary crashes on boot.
			return exec.Command("/bin/sh", "-c", "exit 1")
		}
		return exec.Command(bin, "worker", "-node", "w3", "-addr", "127.0.0.1:0", "-cache-dir", extraDir)
	}, supervisor.Events{
		Ready:  func(_ *supervisor.Worker, addr string, _ int) { rn3.SetTarget(addr) },
		GiveUp: func(_ *supervisor.Worker) { close(gaveUp) },
	})
	if err != nil {
		t.Fatal(err)
	}
	hdeadline := time.Now().Add(30 * time.Second)
	for !rn3.Healthy() {
		if time.Now().After(hdeadline) {
			t.Fatal("w3 never became healthy")
		}
		time.Sleep(20 * time.Millisecond)
	}
	broken.Store(true)
	w3.Kill()
	select {
	case <-gaveUp:
	case <-time.After(30 * time.Second):
		t.Fatalf("crash loop never gave up (state %v, restarts %d)", w3.State(), w3.Restarts())
	}
	if w3.State() != supervisor.GaveUp {
		t.Fatalf("state = %v, want gave_up", w3.State())
	}
	// The give-up is the signal to take the node off the ring; traffic
	// must keep flowing on the survivors.
	rn3.MarkDown()
	rmctx, rmcancel := context.WithTimeout(context.Background(), 10*time.Second)
	if err := f.RemoveNode(rmctx, "w3"); err != nil {
		t.Fatalf("removing given-up node: %v", err)
	}
	rmcancel()
	for _, m := range f.Members() {
		if m == "w3" {
			t.Fatal("given-up node still on the ring")
		}
	}
	for i := 0; i < keys; i++ {
		resp, err := f.Submit(context.Background(), tupleRequest(i))
		if err != nil || resp == nil || resp.Compiled == nil {
			t.Fatalf("post-give-up key %d: resp=%v err=%v", i, resp, err)
		}
	}

	// ---- Clean shutdown ----------------------------------------------
	sctx, scancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer scancel()
	if err := f.Shutdown(sctx); err != nil {
		t.Fatalf("post-soak drain: %v", err)
	}
	sup.Stop()
	drill.Stop()
}
