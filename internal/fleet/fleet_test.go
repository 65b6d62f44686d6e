package fleet

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"testing"
	"time"

	"pipesched/internal/faultinject"
	"pipesched/internal/server"
	"pipesched/internal/telemetry"
)

// testServerConfig mirrors the server package's test configuration: a
// small, fast per-node setup.
func testServerConfig() server.Config {
	return server.Config{
		Workers:          2,
		QueueDepth:       8,
		DefaultTimeout:   2 * time.Second,
		MaxRetries:       2,
		RetryBase:        time.Millisecond,
		RetryMax:         2 * time.Millisecond,
		BreakerThreshold: 3,
		BreakerCooldown:  100 * time.Millisecond,
		CacheEntries:     64,
	}
}

func tupleRequest(n int) *server.Request {
	return &server.Request{
		ID: fmt.Sprintf("req-%d", n),
		Tuples: fmt.Sprintf(`b%d:
  1: Const %d
  2: Load #x
  3: Mul @1, @2
  4: Add @3, @1
  5: Store #y, @4`, n, n+1),
		Machine: server.MachineSpec{Preset: "simulation"},
	}
}

// resolved resolves req for a direct Backend.Submit call.
func resolved(t *testing.T, req *server.Request) *server.Resolved {
	t.Helper()
	r, err := server.Resolve(req)
	if err != nil {
		t.Fatal(err)
	}
	return r
}

// newTestFleet builds a fleet of n durable nodes over t.TempDir stores.
func newTestFleet(t *testing.T, n int, cfg Config) *Fleet {
	t.Helper()
	if cfg.Metrics == nil {
		cfg.Metrics = telemetry.NewMetrics(telemetry.NewRegistry())
	}
	f := New(cfg)
	t.Cleanup(f.Close)
	for i := 0; i < n; i++ {
		id := fmt.Sprintf("node-%d", i)
		f.AddNode(NewNode(id, t.TempDir()+"/"+id, testServerConfig()))
	}
	return f
}

func TestFleetRoutesAndCaches(t *testing.T) {
	f := newTestFleet(t, 3, Config{})
	ctx := context.Background()
	req := tupleRequest(1)

	r1, err := f.Submit(ctx, req)
	if err != nil || r1 == nil || r1.Compiled == nil {
		t.Fatalf("first submit: resp=%v err=%v", r1, err)
	}
	if r1.Cached {
		t.Fatal("first submit reported cached")
	}
	r2, err := f.Submit(ctx, req)
	if err != nil || r2 == nil || r2.Compiled == nil {
		t.Fatalf("second submit: resp=%v err=%v", r2, err)
	}
	if !r2.Cached {
		t.Fatal("identical request was not served from the routed node's cache: routing is not sticky")
	}
}

func TestFleetInvalidRequestRejectedAtRouter(t *testing.T) {
	f := newTestFleet(t, 2, Config{})
	_, err := f.Submit(context.Background(), &server.Request{Machine: server.MachineSpec{Preset: "simulation"}})
	if !errors.Is(err, server.ErrInvalidRequest) {
		t.Fatalf("err = %v, want ErrInvalidRequest", err)
	}
	if code := server.ErrorCode(err); code != "invalid_request" {
		t.Fatalf("ErrorCode = %q", code)
	}
}

func TestFleetFailoverOnDeadPrimary(t *testing.T) {
	f := newTestFleet(t, 3, Config{Replicas: 2})
	req := tupleRequest(2)
	key, err := server.Fingerprint(req)
	if err != nil {
		t.Fatal(err)
	}
	ids := f.ring.replicas(key, 2)
	f.Node(ids[0]).Kill()

	resp, err := f.Submit(context.Background(), req)
	if err != nil || resp == nil || resp.Compiled == nil {
		t.Fatalf("submit with dead primary: resp=%v err=%v", resp, err)
	}
	if got := f.met.failovers.Value(); got == 0 {
		t.Fatal("failover counter did not move")
	}
}

func TestFleetNoReplicasWhenChainDead(t *testing.T) {
	f := newTestFleet(t, 3, Config{Replicas: 2})
	req := tupleRequest(3)
	key, err := server.Fingerprint(req)
	if err != nil {
		t.Fatal(err)
	}
	for _, id := range f.ring.replicas(key, 2) {
		f.Node(id).Kill()
	}
	_, err = f.Submit(context.Background(), req)
	if !errors.Is(err, ErrNoReplicas) {
		t.Fatalf("err = %v, want ErrNoReplicas", err)
	}
	if code := server.ErrorCode(err); code != "no_replicas" {
		t.Fatalf("ErrorCode = %q", code)
	}
	// The third node is alive, so other keys still compile.
	if f.met.noReplicas.Value() == 0 {
		t.Fatal("no-replica counter did not move")
	}
}

// TestFleetRestartRecoversKilledNode holds the durable tier's recovery
// contract: after the whole fleet crashes and restarts, at least 90% of
// the written entries come back, none is quarantined, and at least 90%
// of a replay is served from cache without recompiling. A single
// restarted node then serves its key from disk.
func TestFleetRestartRecoversKilledNode(t *testing.T) {
	f := newTestFleet(t, 2, Config{})
	ctx := context.Background()
	reqs := make([]*server.Request, 24)
	for i := range reqs {
		reqs[i] = tupleRequest(4 + i)
		if _, err := f.Submit(ctx, reqs[i]); err != nil {
			t.Fatal(err)
		}
	}

	written, recovered, quarantined := 0, 0, 0
	for _, id := range f.Members() {
		if st := f.Node(id).DiskStore(); st != nil {
			written += st.Len()
		}
		f.Node(id).Kill()
	}
	for _, id := range f.Members() {
		f.RestartNode(id)
		rep := f.Node(id).DiskRecovery()
		recovered += rep.Recovered
		quarantined += rep.Quarantined
	}
	if written == 0 || recovered*10 < written*9 {
		t.Errorf("full restart recovered %d of %d durable entries, want >= 90%%", recovered, written)
	}
	if quarantined != 0 {
		t.Errorf("full restart quarantined %d entries with no corruption injected", quarantined)
	}
	hits := 0
	for _, req := range reqs {
		resp, err := f.Submit(ctx, req)
		if err != nil {
			t.Fatalf("replay %s: %v", req.ID, err)
		}
		if resp.Cached {
			hits++
		}
	}
	if hits*10 < len(reqs)*9 {
		t.Errorf("replay after full restart: %d of %d cache hits, want >= 90%%", hits, len(reqs))
	}

	req := reqs[0]
	key, _ := server.Fingerprint(req)
	primary := f.ring.primary(key)
	f.Node(primary).Kill()
	if f.Node(primary).Healthy() {
		t.Fatal("killed node reports healthy")
	}
	f.RestartNode(primary)
	if !f.Node(primary).Healthy() {
		t.Fatal("restarted node reports unhealthy")
	}
	// The durable entry survived the crash: the restarted node serves it
	// from disk even though its memory cache died.
	resp, err := f.Submit(ctx, req)
	if err != nil || resp == nil {
		t.Fatalf("post-restart submit: %v", err)
	}
	if !resp.Cached || !resp.DiskHit {
		t.Fatalf("post-restart submit: Cached=%v DiskHit=%v, want durable warm hit", resp.Cached, resp.DiskHit)
	}
	if f.met.recovered.Value() == 0 {
		t.Fatal("fleet recovery counter did not move")
	}
}

func TestFleetHedgeLaunches(t *testing.T) {
	// Every search sleeps well past the hedge delay, so the router fires
	// its one hedged retry at the next replica; whichever answers first
	// wins and the request still succeeds.
	inj := faultinject.New().Seed(1).
		Plan(faultinject.Search, faultinject.Plan{Delay: 50 * time.Millisecond, Prob: 1})
	defer faultinject.Activate(inj)()

	f := newTestFleet(t, 3, Config{Replicas: 2, HedgeDelay: time.Millisecond})
	resp, err := f.Submit(context.Background(), tupleRequest(5))
	if err != nil || resp == nil || resp.Compiled == nil {
		t.Fatalf("submit: resp=%v err=%v", resp, err)
	}
	if f.met.hedges.Value() != 1 {
		t.Fatalf("hedges = %d, want 1", f.met.hedges.Value())
	}
}

func TestFleetHedgeDelayTracksObservedP95(t *testing.T) {
	f := New(Config{HedgeDelay: 123 * time.Millisecond})
	defer f.Close()
	if got := f.hedgeDelay(); got != 123*time.Millisecond {
		t.Fatalf("cold hedge delay = %v, want configured fallback", got)
	}
	for i := 0; i < latWindowMinSamples; i++ {
		f.lat.Observe(0.010) // 10ms
	}
	got := f.hedgeDelay()
	if got < 5*time.Millisecond || got > 20*time.Millisecond {
		t.Fatalf("observed hedge delay = %v, want ~10ms p95", got)
	}
}

func TestFleetAddNodeHandsOffKeyRange(t *testing.T) {
	f := newTestFleet(t, 2, Config{})
	ctx := context.Background()
	// Populate durable entries across the two nodes.
	reqs := make([]*server.Request, 12)
	for i := range reqs {
		reqs[i] = tupleRequest(100 + i)
		if _, err := f.Submit(ctx, reqs[i]); err != nil {
			t.Fatal(err)
		}
	}
	n3 := NewNode("node-new", t.TempDir()+"/node-new", testServerConfig())
	f.AddNode(n3)

	// Every key whose primary is now the new node must be present in its
	// durable store (handed off), so the new node starts warm.
	owned := 0
	for _, req := range reqs {
		key, _ := server.Fingerprint(req)
		if f.ring.primary(key) != "node-new" {
			continue
		}
		owned++
		if _, ok := n3.DiskStore().Get(key); !ok {
			t.Errorf("key %q routed to the new node but not handed off", key)
			continue
		}
		resp, err := f.Submit(ctx, req)
		if err != nil {
			t.Fatal(err)
		}
		if !resp.Cached {
			t.Errorf("handed-off key %q recompiled instead of serving warm", key)
		}
	}
	if owned == 0 {
		t.Skip("no test key moved to the new node; vnode layout left it empty (unlikely but legal)")
	}
	if f.met.handoff.Value() == 0 {
		t.Fatal("handoff counter did not move")
	}
}

func TestFleetRemoveNodeDrainsAndHandsOff(t *testing.T) {
	f := newTestFleet(t, 3, Config{Replicas: 2})
	ctx := context.Background()
	// Find a request whose primary we will remove.
	var victim string
	var victimReqs []*server.Request
	for i := 0; i < 18; i++ {
		req := tupleRequest(200 + i)
		if _, err := f.Submit(ctx, req); err != nil {
			t.Fatal(err)
		}
		key, _ := server.Fingerprint(req)
		p := f.ring.primary(key)
		if victim == "" {
			victim = p
		}
		if p == victim {
			victimReqs = append(victimReqs, req)
		}
	}

	// A slow request in flight on the victim must survive the removal:
	// graceful drain delivers accepted answers.
	inj := faultinject.New().Seed(2).
		Plan(faultinject.Search, faultinject.Plan{Delay: 100 * time.Millisecond, Prob: 1})
	restore := faultinject.Activate(inj)

	slow := tupleRequest(999)
	// Steer the slow request onto the victim by brute force: find an n
	// whose primary is the victim.
	for n := 1000; ; n++ {
		key, _ := server.Fingerprint(tupleRequest(n))
		if f.ring.primary(key) == victim {
			slow = tupleRequest(n)
			break
		}
	}
	type outcome struct {
		resp *server.Response
		err  error
	}
	ch := make(chan outcome, 1)
	go func() {
		resp, err := f.Submit(ctx, slow)
		ch <- outcome{resp, err}
	}()
	time.Sleep(20 * time.Millisecond) // let it be accepted on the victim

	rctx, cancel := context.WithTimeout(ctx, 5*time.Second)
	defer cancel()
	if err := f.RemoveNode(rctx, victim); err != nil {
		t.Fatalf("RemoveNode: %v", err)
	}
	restore()

	o := <-ch
	if o.err != nil || o.resp == nil || o.resp.Compiled == nil {
		t.Fatalf("in-flight request dropped by graceful removal: resp=%v err=%v", o.resp, o.err)
	}

	if f.Node(victim) != nil {
		t.Fatal("victim still a member")
	}
	if err := f.RemoveNode(ctx, victim); !errors.Is(err, ErrUnknownNode) {
		t.Fatalf("second removal err = %v, want ErrUnknownNode", err)
	}

	// The departed node's durable entries moved to their new owners and
	// still serve warm.
	for _, req := range victimReqs {
		key, _ := server.Fingerprint(req)
		owner := f.Node(f.ring.primary(key))
		if owner == nil {
			t.Fatalf("key %q has no owner after removal", key)
		}
		if _, ok := owner.DiskStore().Get(key); !ok {
			t.Errorf("key %q not handed off to %s", key, owner.ID())
		}
	}
	if f.met.handoff.Value() == 0 {
		t.Fatal("handoff counter did not move")
	}
}

func TestFleetHandoffCopiesVerifiedBytes(t *testing.T) {
	f := newTestFleet(t, 1, Config{})
	n0 := f.Node("node-0")
	if err := n0.DiskStore().Put("some-key", []byte("payload-bytes")); err != nil {
		t.Fatal(err)
	}
	n1 := NewNode("node-1", t.TempDir()+"/n1", testServerConfig())
	f.AddNode(n1)
	if f.ring.primary("some-key") == "node-1" {
		got, ok := n1.DiskStore().Get("some-key")
		if !ok || !bytes.Equal(got, []byte("payload-bytes")) {
			t.Fatalf("handoff copy = %q, %v", got, ok)
		}
	}
}

func TestFleetShutdownIdempotent(t *testing.T) {
	f := newTestFleet(t, 2, Config{})
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
	defer cancel()
	if err := f.Shutdown(ctx); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	if err := f.Shutdown(ctx); err != nil {
		t.Fatalf("second shutdown: %v", err)
	}
	if _, err := f.Submit(context.Background(), tupleRequest(7)); err == nil {
		t.Fatal("submit after shutdown succeeded")
	}
}

// RestartNode restarts a killed in-process node and records its recovery
// scan in the fleet counters — the chaos soaks' lever. A no-op for
// unknown, live, or remote members (remote workers are restarted by
// their supervisor; the probe loop picks up the new incarnation and
// folds its recovery scan).
func (f *Fleet) RestartNode(id string) {
	n := f.Node(id)
	if n == nil || n.Healthy() {
		return
	}
	n.Restart()
	rep := n.DiskRecovery()
	f.RecordRecovery(RecoveryStats{Recovered: rep.Recovered, Quarantined: rep.Quarantined})
}

// TestFleetHitAllocs pins what one cache hit through a 2-node in-process
// fleet allocates, the service bench's hot path. The router resolves the
// request once and the node admits it as resolved; resolving it twice
// cost about 49 allocations more (114 a hit). Rendering the preset
// machine's text per request and sorting the hedge window cost 27 more
// (65 a hit). Building the preset machine on every hit, not on the miss
// that compiles with it, cost 13 more (30 a hit), and hashing the key
// through io.WriteString and Fprintf 8 more on top (38 a hit).
func TestFleetHitAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates on its own")
	}
	f := New(Config{})
	t.Cleanup(f.Close)
	for _, id := range []string{"node0", "node1"} {
		f.AddNode(NewNode(id, "", server.Config{Workers: 1}))
	}
	req := &server.Request{
		Source:  "b = 15\na = b * a\nc = a + b\nd = c * a\n",
		Machine: server.MachineSpec{Preset: "simulation"},
		Options: server.RequestOptions{Optimize: true},
	}
	if _, err := f.Submit(context.Background(), req); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(200, func() {
		if resp, err := f.Submit(context.Background(), req); err != nil || !resp.Cached {
			t.Fatalf("want a cache hit, got (%+v, %v)", resp, err)
		}
	})
	if allocs > 17 {
		t.Errorf("one fleet hit allocates %.0f times, want ≤ 17", allocs)
	}
}
