package fleet

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"time"

	"pipesched"
	"pipesched/internal/fleet/store"
	"pipesched/internal/server"
	"pipesched/internal/stats"
	"pipesched/internal/telemetry"
)

// Config tunes one Fleet. The zero value is usable.
type Config struct {
	// Replicas is the replica-set size per key: how many distinct ring
	// nodes a request may fail over across (and durable cache handoff
	// targets). Default 2, clamped to the fleet size at routing time.
	Replicas int
	// VirtualNodes is the ring points per node; default 64.
	VirtualNodes int
	// ProbeInterval is the health-probe period; default 250ms.
	ProbeInterval time.Duration
	// HedgeDelay is the hedged-retry delay used until enough request
	// latencies have been observed to estimate a p95; default 100ms.
	// Once samples exist, the hedge fires after the observed p95.
	HedgeDelay time.Duration
	// Metrics wires the fleet into a telemetry metric set. Nil leaves
	// fleet metrics off.
	Metrics *pipesched.Telemetry

	now func() time.Time // test clock; default time.Now
}

func (c Config) withDefaults() Config {
	if c.Replicas <= 0 {
		c.Replicas = 2
	}
	if c.VirtualNodes <= 0 {
		c.VirtualNodes = defaultVirtualNodes
	}
	if c.ProbeInterval <= 0 {
		c.ProbeInterval = 250 * time.Millisecond
	}
	if c.HedgeDelay <= 0 {
		c.HedgeDelay = 100 * time.Millisecond
	}
	if c.now == nil {
		c.now = time.Now
	}
	return c
}

// fleetMetrics is the fleet-layer metric set; nil fields are no-ops.
type fleetMetrics struct {
	failovers   *telemetry.Counter   // pipesched_fleet_failovers_total
	hedges      *telemetry.Counter   // pipesched_fleet_hedges_total
	hedgeWins   *telemetry.Counter   // pipesched_fleet_hedge_wins_total
	noReplicas  *telemetry.Counter   // pipesched_fleet_no_replica_total
	probeFails  *telemetry.Counter   // pipesched_fleet_probe_failures_total
	handoff     *telemetry.Counter   // pipesched_fleet_handoff_entries_total
	recovered   *telemetry.Counter   // pipesched_fleet_cache_recovered_total
	quarantined *telemetry.Counter   // pipesched_fleet_cache_quarantined_total
	nodes       *telemetry.Gauge     // pipesched_fleet_nodes
	healthy     *telemetry.Gauge     // pipesched_fleet_nodes_healthy
	reqDur      *telemetry.Histogram // pipesched_fleet_request_seconds (µs native)
}

func newFleetMetrics(reg *telemetry.Registry) *fleetMetrics {
	m := &fleetMetrics{}
	if reg == nil {
		return m
	}
	m.failovers = reg.Counter("pipesched_fleet_failovers_total", "Requests moved to the next ring replica after a node-down, draining or overloaded outcome.")
	m.hedges = reg.Counter("pipesched_fleet_hedges_total", "Hedged retries launched after the observed p95 latency elapsed without an answer.")
	m.hedgeWins = reg.Counter("pipesched_fleet_hedge_wins_total", "Requests whose hedged retry answered first.")
	m.noReplicas = reg.Counter("pipesched_fleet_no_replica_total", "Requests that exhausted every replica in their chain.")
	m.probeFails = reg.Counter("pipesched_fleet_probe_failures_total", "Health probes that found a node down.")
	m.handoff = reg.Counter("pipesched_fleet_handoff_entries_total", "Durable cache entries copied to new owners on membership change.")
	m.recovered = reg.Counter("pipesched_fleet_cache_recovered_total", "Durable cache entries recovered across node restarts.")
	m.quarantined = reg.Counter("pipesched_fleet_cache_quarantined_total", "Corrupt durable cache entries quarantined across node restarts.")
	m.nodes = reg.Gauge("pipesched_fleet_nodes", "Nodes in the ring.")
	m.healthy = reg.Gauge("pipesched_fleet_nodes_healthy", "Nodes passing the last health probe.")
	m.reqDur = reg.Histogram("pipesched_fleet_request_seconds", "End-to-end fleet request latency.", 1e-6)
	return m
}

// Latency windows hold recent winning-attempt latencies; the fleet's
// own window answers "what is p95 right now?" for the hedging policy.
const latWindowSize = 256
const latWindowMinSamples = 16

func newLatencyWindow() *stats.Window { return stats.NewWindow(latWindowSize, latWindowMinSamples) }

// NoReplicasError is the concrete error behind ErrNoReplicas: every
// replica in the key's chain was down, draining or overloaded. Last is
// the final replica's outcome.
type NoReplicasError struct {
	Key  string
	Last error
}

func (e *NoReplicasError) Error() string {
	if e.Last == nil {
		return ErrNoReplicas.Error()
	}
	return fmt.Sprintf("%v (last: %v)", ErrNoReplicas, e.Last)
}

// Unwrap makes errors.Is(err, ErrNoReplicas) hold, and lets errors.As
// reach the last replica's outcome — an *server.OverloadError's retry
// hint among them.
func (e *NoReplicasError) Unwrap() []error {
	if e.Last == nil {
		return []error{ErrNoReplicas}
	}
	return []error{ErrNoReplicas, e.Last}
}

// Fleet routes compile requests across a ring of Backends. Create with
// New, populate with AddNode/AddBackend, submit with Submit (or serve
// HTTP with Handler), stop with Shutdown/Close.
type Fleet struct {
	cfg  Config
	ring *ring
	met  *fleetMetrics
	lat  *stats.Window

	mu     sync.RWMutex
	nodes  map[string]Backend
	closed bool

	probeStop chan struct{}
	probeWG   sync.WaitGroup
}

// New starts an empty fleet (and its health-probe loop).
func New(cfg Config) *Fleet {
	cfg = cfg.withDefaults()
	f := &Fleet{
		cfg:       cfg,
		ring:      newRing(cfg.VirtualNodes),
		met:       newFleetMetrics(cfg.Metrics.Registry()),
		lat:       newLatencyWindow(),
		nodes:     map[string]Backend{},
		probeStop: make(chan struct{}),
	}
	f.probeWG.Add(1)
	go f.probeLoop()
	return f
}

// probeLoop periodically probes every backend's health, keeping the
// healthy-node gauge and probe-failure counter current. Routing also
// checks health at submit time, so a probe miss costs at most one
// failover. For remote backends the loop IS the failure detector: it
// drives the backend's network probe, which marks crashed workers down
// and restarted workers back up — and when a probe reveals a new worker
// incarnation (the PID changed), its cache-recovery scan is folded into
// the fleet counters.
func (f *Fleet) probeLoop() {
	defer f.probeWG.Done()
	t := time.NewTicker(f.cfg.ProbeInterval)
	defer t.Stop()
	for {
		select {
		case <-f.probeStop:
			return
		case <-t.C:
			healthy := 0
			for _, b := range f.snapshot() {
				if rp, ok := b.(remoteProber); ok {
					ctx, cancel := context.WithTimeout(context.Background(), f.cfg.ProbeInterval)
					st, restarted, err := rp.Probe(ctx)
					cancel()
					if err == nil && restarted {
						f.RecordRecovery(RecoveryStats{Recovered: st.Recovered, Quarantined: st.Quarantined})
					}
				}
				if b.Healthy() {
					healthy++
				} else {
					f.met.probeFails.Inc()
				}
			}
			f.met.healthy.Set(int64(healthy))
		}
	}
}

// snapshot returns the current backend set.
func (f *Fleet) snapshot() []Backend {
	f.mu.RLock()
	defer f.mu.RUnlock()
	out := make([]Backend, 0, len(f.nodes))
	for _, n := range f.nodes {
		out = append(out, n)
	}
	return out
}

// Backend returns the member with the given ID, or nil.
func (f *Fleet) Backend(id string) Backend {
	f.mu.RLock()
	defer f.mu.RUnlock()
	return f.nodes[id]
}

// Node returns the in-process member with the given ID, or nil when the
// ID is unknown or names a remote backend.
func (f *Fleet) Node(id string) *Node {
	n, _ := f.Backend(id).(*Node)
	return n
}

// Members returns the current node IDs, sorted.
func (f *Fleet) Members() []string { return f.ring.members() }

// AddNode joins the in-process node n to the ring; see AddBackend.
func (f *Fleet) AddNode(n *Node) { f.AddBackend(n) }

// AddBackend joins b to the ring and — when its durable store is
// directly readable (in-process nodes) — hands it the cache entries it
// now owns: every key whose primary moved onto b is copied from its
// previous holder, so the new member starts warm for its key range.
// Remote workers recover their own cache directory instead.
func (f *Fleet) AddBackend(b Backend) {
	f.mu.Lock()
	f.nodes[b.ID()] = b
	total := len(f.nodes)
	f.mu.Unlock()
	f.ring.add(b.ID())
	f.met.nodes.Set(int64(total))
	f.handoffTo(b)
}

// handoffTo copies every durable entry whose primary is now b from the
// other members' stores into b's store. Copies are raw verified bytes;
// the source keeps its copy (it is now a ring replica for the key, or
// harmless content-addressed surplus). Members without a readable store
// (remote workers) neither give nor receive handoff copies.
func (f *Fleet) handoffTo(b Backend) {
	db, ok := b.(diskBacked)
	if !ok {
		return
	}
	dst := db.DiskStore()
	if dst == nil {
		return
	}
	for _, o := range f.snapshot() {
		if o.ID() == b.ID() {
			continue
		}
		od, ok := o.(diskBacked)
		if !ok {
			continue
		}
		src := od.DiskStore()
		if src == nil {
			continue
		}
		for _, key := range src.Keys() {
			if f.ring.primary(key) != b.ID() {
				continue
			}
			if payload, ok := src.Get(key); ok {
				if dst.Put(key, payload) == nil {
					f.met.handoff.Inc()
				}
			}
		}
	}
}

// RemoveNode gracefully leaves id from the fleet: the node stops
// receiving new requests immediately, accepted in-flight work drains
// (degrading at ctx expiry), and its durable cache entries are handed
// off to their new ring owners. The node's transient state — circuit
// breakers, in-memory cache, queue — dies with its server.
func (f *Fleet) RemoveNode(ctx context.Context, id string) error {
	f.mu.Lock()
	n := f.nodes[id]
	if n == nil {
		f.mu.Unlock()
		return fmt.Errorf("%w: %s", ErrUnknownNode, id)
	}
	delete(f.nodes, id)
	total := len(f.nodes)
	f.mu.Unlock()
	f.ring.remove(id) // no new routes from here on
	f.met.nodes.Set(int64(total))

	// Capture the store before Shutdown drops the server reference; the
	// store stays readable after the drain (it holds no descriptors).
	// Remote members own their cache directory, so there is nothing to
	// hand off from the router's side.
	var st *store.Store
	if db, ok := n.(diskBacked); ok {
		st = db.DiskStore()
	}
	err := n.Shutdown(ctx)
	if st != nil {
		for _, key := range st.Keys() {
			ownerID := f.ring.primary(key)
			owner, _ := f.Backend(ownerID).(diskBacked)
			if owner == nil {
				continue
			}
			dst := owner.DiskStore()
			if dst == nil {
				continue
			}
			if payload, ok := st.Get(key); ok {
				if dst.Put(key, payload) == nil {
					f.met.handoff.Inc()
				}
			}
		}
	}
	return err
}

// RecordRecovery folds one node restart's recovery scan into the fleet
// counters. Node restarts happen outside the Fleet's control (the
// chaos harness, an operator), so whoever restarts a node reports it.
func (f *Fleet) RecordRecovery(rep RecoveryStats) {
	f.met.recovered.Add(int64(rep.Recovered))
	f.met.quarantined.Add(int64(rep.Quarantined))
}

// RecoveryStats mirrors store.RecoveryReport without exporting the
// store package through the fleet API.
type RecoveryStats struct {
	Recovered   int
	Quarantined int
}

// hedgeDelay returns how long Submit waits for the active attempt
// before launching the hedged retry: the observed p95 request latency,
// or the configured fallback while samples are scarce.
func (f *Fleet) hedgeDelay() time.Duration {
	if p := f.lat.P95(); p > 0 {
		d := time.Duration(p * float64(time.Second))
		if d < time.Millisecond {
			d = time.Millisecond
		}
		return d
	}
	return f.cfg.HedgeDelay
}

// clampHedgeDelay decides whether a hedged retry is worth arming for a
// request with the given context: when the remaining deadline is no
// longer than the hedge delay, the hedge would launch with no time left
// to win, so it reports ok=false and no hedge is armed. Without a
// deadline the delay passes through unchanged.
func clampHedgeDelay(ctx context.Context, delay time.Duration, now time.Time) (time.Duration, bool) {
	dl, has := ctx.Deadline()
	if !has {
		return delay, true
	}
	if remaining := dl.Sub(now); remaining <= delay {
		return 0, false
	}
	return delay, true
}

// failoverWorthy reports whether an outcome should move the request to
// the next ring replica: the node is down, slow past the attempt
// budget, draining, or shedding load. Anything else — a result
// (possibly degraded), an invalid request, a budget error — is a real
// answer and is returned to the caller.
func failoverWorthy(resp *server.Response, err error) bool {
	if err == nil || resp != nil {
		return false
	}
	return errors.Is(err, ErrNodeDown) ||
		errors.Is(err, ErrNodeSlow) ||
		errors.Is(err, server.ErrDraining) ||
		errors.Is(err, server.ErrOverloaded)
}

// attempt is one sub-request's outcome.
type attempt struct {
	resp   *server.Response
	err    error
	b      Backend
	hedged bool // launched by the hedge timer, not by failover
	start  time.Time
	span   *telemetry.TraceSpan // the attempt's "fleet.attempt" span (nil untraced)
}

// Submit routes one request: fingerprint → replica chain → primary,
// with failover on node-down/draining/overload outcomes and one hedged
// retry once the observed p95 latency elapses without an answer. It
// returns the first real answer (Submit semantics match
// server.Submit: a Response possibly carrying a typed degradation
// error, or a typed rejection).
func (f *Fleet) Submit(ctx context.Context, req *server.Request) (*server.Response, error) {
	key, err := server.Fingerprint(req)
	if err != nil {
		return nil, err
	}
	ctx, rspan := telemetry.ActiveTracer().StartSpan(ctx, "fleet.route")
	start := f.cfg.now()
	resp, err := f.submitChain(ctx, key, req)
	// The request histogram carries the trace ID as an exemplar, so a
	// latency outlier on a dashboard links straight to its trace.
	f.met.reqDur.ObserveExemplar(f.cfg.now().Sub(start).Microseconds(),
		rspan.Context().TraceID, f.cfg.now().Unix())
	if resp == nil {
		rspan.Fail(err)
	}
	rspan.End()
	return resp, err
}

// submitChain runs the failover/hedging state machine over the key's
// replica chain.
func (f *Fleet) submitChain(ctx context.Context, key string, req *server.Request) (*server.Response, error) {
	ids := f.ring.replicas(key, f.cfg.Replicas)
	if len(ids) == 0 {
		f.met.noReplicas.Inc()
		return nil, &NoReplicasError{Key: key}
	}
	chain := make([]Backend, 0, len(ids))
	for _, id := range ids {
		if n := f.Backend(id); n != nil {
			chain = append(chain, n)
		}
	}
	if len(chain) == 0 {
		f.met.noReplicas.Inc()
		return nil, &NoReplicasError{Key: key}
	}

	// The losing attempt is abandoned (its node's singleflight keeps or
	// cancels the work per its own waiter accounting).
	subCtx, cancel := context.WithCancel(ctx)
	defer cancel()

	tr := telemetry.ActiveTracer()
	tc := telemetry.TraceContextOf(subCtx) // parent of every attempt span

	results := make(chan attempt, len(chain))
	next := 0 // next chain index to launch
	launch := func(hedged bool) bool {
		// Skip nodes the router already knows are down — each skip is a
		// failover without paying a round trip.
		for next < len(chain) && !chain[next].Healthy() {
			f.met.failovers.Inc()
			tr.Point(tc, "fleet.failover", "node", chain[next].ID(), "reason", "unhealthy")
			next++
		}
		if next >= len(chain) {
			return false
		}
		n := chain[next]
		next++
		// Each attempt gets a sibling span under the route span, so hedged
		// replicas render side by side on the trace timeline; the node's
		// own spans parent under their attempt.
		asp := tr.StartSpanFrom(tc, "fleet.attempt")
		asp.SetAttr("node", n.ID())
		if hedged {
			asp.SetAttr("hedged", "true")
		}
		actx := subCtx
		if atc := asp.Context(); atc.Valid() {
			actx = telemetry.WithTraceContext(subCtx, atc)
		}
		go func(n Backend, hedged bool, start time.Time, asp *telemetry.TraceSpan) {
			resp, err := n.Submit(actx, req)
			results <- attempt{resp: resp, err: err, b: n, hedged: hedged, start: start, span: asp}
		}(n, hedged, f.cfg.now(), asp)
		return true
	}

	pending := 0
	if launch(false) {
		pending++
	}
	// Whatever path exits, abandoned attempts (hedge losers, replies
	// racing a caller cancel) still get their spans closed: a detached
	// drain marks each one "lost" as its node answers.
	defer func() {
		if pending == 0 {
			return
		}
		go func(n int) {
			for i := 0; i < n; i++ {
				a := <-results
				a.span.SetAttr("outcome", "lost")
				a.span.Fail(a.err)
				a.span.End()
			}
		}(pending)
	}()
	if pending == 0 {
		f.met.noReplicas.Inc()
		return nil, &NoReplicasError{Key: key}
	}

	// Hedge only when the hedge could still win: a request arriving with
	// less remaining deadline than the hedge delay would launch a second
	// attempt with no time to answer, doubling load for nothing. A nil
	// timer channel blocks forever, disabling the hedge arm.
	var hedgeC <-chan time.Time
	if d, ok := clampHedgeDelay(ctx, f.hedgeDelay(), f.cfg.now()); ok {
		hedge := time.NewTimer(d)
		defer hedge.Stop()
		hedgeC = hedge.C
	}
	hedgeSpent := false

	var last error
	for pending > 0 {
		select {
		case a := <-results:
			pending--
			if failoverWorthy(a.resp, a.err) {
				last = a.err
				f.met.failovers.Inc()
				a.span.SetAttr("outcome", "failover")
				a.span.Fail(a.err)
				a.span.End()
				if launch(false) {
					pending++
				}
				continue
			}
			// First real answer wins.
			seconds := f.cfg.now().Sub(a.start).Seconds()
			f.lat.Observe(seconds)
			a.b.observeLatency(seconds)
			if a.hedged {
				f.met.hedgeWins.Inc()
			}
			a.span.SetAttr("outcome", "won")
			if a.resp == nil {
				a.span.Fail(a.err)
			}
			a.span.End()
			return a.resp, a.err
		case <-hedgeC:
			if !hedgeSpent {
				hedgeSpent = true
				if launch(true) {
					pending++
					f.met.hedges.Inc()
				}
			}
		case <-ctx.Done():
			if errors.Is(ctx.Err(), context.DeadlineExceeded) {
				return nil, fmt.Errorf("%w: caller deadline expired in fleet routing", pipesched.ErrDeadline)
			}
			return nil, fmt.Errorf("%w: caller abandoned request in fleet routing", pipesched.ErrCanceled)
		}
	}
	f.met.noReplicas.Inc()
	return nil, &NoReplicasError{Key: key, Last: last}
}

// Shutdown gracefully drains the fleet: the probe loop stops and every
// node drains within ctx. The first node error (if any) is returned.
func (f *Fleet) Shutdown(ctx context.Context) error {
	f.mu.Lock()
	if f.closed {
		f.mu.Unlock()
		return nil
	}
	f.closed = true
	f.mu.Unlock()
	close(f.probeStop)
	f.probeWG.Wait()
	var first error
	var wg sync.WaitGroup
	var mu sync.Mutex
	for _, n := range f.snapshot() {
		wg.Add(1)
		go func(n Backend) {
			defer wg.Done()
			if err := n.Shutdown(ctx); err != nil {
				mu.Lock()
				if first == nil {
					first = err
				}
				mu.Unlock()
			}
		}(n)
	}
	wg.Wait()
	return first
}

// Close is Shutdown with an immediate deadline.
func (f *Fleet) Close() {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_ = f.Shutdown(ctx)
}
