// Package server is the compilation service layer: it wraps the
// pipesched anytime pipeline in the robustness machinery a long-running,
// heavily-loaded deployment needs, with one contract: every ACCEPTED
// request terminates with a legal schedule, a typed error, or both —
// never a hang, never a silent drop.
//
// The pieces, in request order:
//
//   - Admission control over a bounded queue: a full queue rejects
//     immediately with ErrOverloaded, and deadline-aware load shedding
//     rejects requests whose compile budget cannot cover the observed
//     p95 queue wait (queueing them could only waste capacity).
//   - Singleflight dedup + a content-addressed LRU result cache:
//     concurrent identical (block, machine, options) requests collapse
//     into one search; clean optimal results are reused outright.
//   - A worker pool with per-request panic isolation and
//     retry-with-backoff+jitter for transient *StageError faults
//     (permanent failures — invalid input, frontend errors — are never
//     retried).
//   - A circuit breaker keyed by block×machine fingerprint: keys whose
//     searches repeatedly blow their budget (λ or deadline) skip
//     straight to the Heuristic rung until a half-open probe proves the
//     search affordable again.
//   - Graceful drain: Shutdown stops admission, lets in-flight work
//     finish (or degrades it to best incumbents when the drain deadline
//     expires), and leaves every waiter answered.
//
// Everything is instrumented through internal/telemetry and
// chaos-proven by the soak test under internal/faultinject.
package server

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"strconv"
	"sync"
	"time"

	"pipesched"
	"pipesched/internal/fleet/store"
	"pipesched/internal/stats"
	"pipesched/internal/telemetry"
)

// Config tunes one Server. The zero value is usable: every field has a
// production-leaning default, applied by New.
type Config struct {
	// Workers is the worker-pool size; default GOMAXPROCS.
	Workers int
	// QueueDepth bounds the work queue; default 64.
	QueueDepth int
	// DefaultTimeout is the per-request compile budget (queue wait +
	// compilation) when the request carries none; default 2s.
	DefaultTimeout time.Duration
	// MaxTimeout caps any requested budget; default 30s.
	MaxTimeout time.Duration
	// MaxRetries bounds retry attempts for transient stage faults;
	// default 2 (three attempts total). Negative disables retries.
	MaxRetries int
	// RetryBase is the first backoff delay; default 10ms. Successive
	// delays double up to RetryMax (default 250ms), each with up to 50%
	// random jitter.
	RetryBase time.Duration
	RetryMax  time.Duration
	// BreakerThreshold is how many consecutive budget failures open a
	// key's circuit; default 3. Negative disables the breaker.
	BreakerThreshold int
	// BreakerCooldown is how long an open circuit waits before the
	// half-open probe; default 5s.
	BreakerCooldown time.Duration
	// CacheEntries sizes the result LRU; default 1024. Negative
	// disables caching.
	CacheEntries int
	// CacheDir, when set, adds a crash-safe persistent cache tier under
	// the in-memory LRU (see diskcache.go): clean optimal results are
	// written through with per-entry checksums and atomic renames, and a
	// restarted server recovers them on startup — corrupt entries are
	// quarantined, never a startup failure. Empty disables the tier.
	CacheDir string
	// Metrics wires the server into a telemetry metric set (usually the
	// one from pipesched.EnableTelemetry()). Nil leaves service metrics
	// off; the pipeline's own nil-by-default telemetry is unaffected
	// either way.
	Metrics *pipesched.Telemetry
	// Node names this server in distributed-trace spans and the /fleet
	// status — set by the fleet layer; "" for a standalone server.
	Node string

	// now is the clock (swapped by tests); default time.Now.
	now func() time.Time
}

const breakerMaxEntries = 4096

func (c Config) withDefaults() Config {
	if c.Workers <= 0 {
		c.Workers = runtime.GOMAXPROCS(0)
	}
	if c.QueueDepth <= 0 {
		c.QueueDepth = 64
	}
	if c.DefaultTimeout <= 0 {
		c.DefaultTimeout = 2 * time.Second
	}
	if c.MaxTimeout <= 0 {
		c.MaxTimeout = 30 * time.Second
	}
	if c.MaxRetries == 0 {
		c.MaxRetries = 2
	}
	if c.MaxRetries < 0 {
		c.MaxRetries = 0
	}
	if c.RetryBase <= 0 {
		c.RetryBase = 10 * time.Millisecond
	}
	if c.RetryMax <= 0 {
		c.RetryMax = 250 * time.Millisecond
	}
	if c.BreakerCooldown <= 0 {
		c.BreakerCooldown = 5 * time.Second
	}
	if c.BreakerThreshold == 0 {
		c.BreakerThreshold = 3
	}
	if c.CacheEntries == 0 {
		c.CacheEntries = 1024
	}
	if c.now == nil {
		c.now = time.Now
	}
	return c
}

// Request is one unit of compilation work. Exactly one of Source
// (single-block source text, compiled through the frontend) or Tuples
// (tuple code in the paper's Figure 3 form) must be set.
type Request struct {
	ID      string         `json:"id,omitempty"`
	Source  string         `json:"source,omitempty"`
	Tuples  string         `json:"tuples,omitempty"`
	Machine MachineSpec    `json:"machine"`
	Options RequestOptions `json:"options"`
	// TimeoutMS is the compile budget in milliseconds (queue wait
	// included); 0 selects the server default.
	TimeoutMS int64 `json:"timeout_ms,omitempty"`
}

// MachineSpec selects the target machine: a named preset or an inline
// description in the textual table format. Preset wins when both are
// set.
type MachineSpec struct {
	Preset string `json:"preset,omitempty"`
	Text   string `json:"text,omitempty"`
}

// RequestOptions is the JSON-facing subset of pipesched.Options a
// service request may set. Search tracing and parallel workers are
// deliberately absent: traces are a debugging tool, and per-request
// worker fan-out would let one request oversubscribe the pool.
type RequestOptions struct {
	Lambda            int64  `json:"lambda,omitempty"`
	Optimize          bool   `json:"optimize,omitempty"`
	Reassociate       bool   `json:"reassociate,omitempty"`
	Registers         int    `json:"registers,omitempty"`
	Mode              string `json:"mode,omitempty"` // nop|explicit|implicit|tera
	ExplainNOPs       bool   `json:"explain_nops,omitempty"`
	AssignPipelines   bool   `json:"assign_pipelines,omitempty"`
	StrongEquivalence bool   `json:"strong_equivalence,omitempty"`
	// Sched selects the scheduler mode in ParseSchedMode's textual form:
	// "paper" (or empty), "minreg-lex", "minreg-k=<k>", or
	// "scoreboard[=<window>x<width>]". It is part of the request
	// fingerprint, so different modes never share cache entries.
	Sched string `json:"sched,omitempty"`
}

// Response is the outcome of one Submit. Compiled and Err follow the
// pipeline's anytime contract: both may be set at once (a degraded but
// legal result travels with its typed reason); Compiled == nil means
// hard failure, Err == nil means a clean result. A shared (deduped or
// cached) Compiled must be treated as immutable.
type Response struct {
	ID       string
	Compiled *pipesched.Compiled
	Err      error
	Cached   bool          // served from the result cache (either tier)
	DiskHit  bool          // the cache hit came from the persistent tier
	Deduped  bool          // collapsed onto an identical in-flight request
	FastPath bool          // breaker open: Heuristic rung, no search
	Retries  int           // transient-fault retry attempts spent
	Wait     time.Duration // time spent queued before a worker picked it up
}

// flight is one in-flight unit of (deduplicated) work: the leader's
// request plus every waiter that collapsed onto it.
type flight struct {
	*Resolved
	block    *pipesched.Block // the parsed tuple block, when Tuples input
	enqueued time.Time
	ctx      context.Context
	cancel   context.CancelFunc
	refs     int // waiters, guarded by Server.mu; 0 → nobody cares, cancel
	done     chan struct{}
	resp     *Response // set before done closes; shared, read-only

	// Distributed-trace linkage: the LEADER's trace context (children —
	// queue wait, breaker decision, compile attempts — parent under it)
	// and the queue-wait span opened at enqueue, ended by the worker.
	tc    telemetry.TraceContext
	qspan *telemetry.TraceSpan
}

// Server is the compile service. Create with New, submit with Submit
// (or serve HTTP with Handler), stop with Shutdown/Close.
type Server struct {
	cfg     Config
	met     *serverMetrics
	breaker *breaker
	cache   *cache
	disk    *diskTier // nil without Config.CacheDir
	diskErr error     // persistent tier unavailable; serving memory-only
	waits   *stats.Window

	baseCtx    context.Context
	cancelBase context.CancelFunc

	mu       sync.Mutex
	draining bool
	flights  map[string]*flight
	jobs     chan *flight

	wg sync.WaitGroup

	rngMu sync.Mutex
	rng   *rand.Rand
}

// New starts a Server with cfg's worker pool running.
func New(cfg Config) *Server {
	cfg = cfg.withDefaults()
	s := &Server{
		cfg:     cfg,
		waits:   stats.NewWindow(waitWindowSize, waitWindowMinSamples),
		flights: map[string]*flight{},
		jobs:    make(chan *flight, cfg.QueueDepth),
		rng:     rand.New(rand.NewSource(cfg.now().UnixNano())),
	}
	s.met = newServerMetrics(cfg.Metrics.Registry())
	s.cache = newCache(cfg.CacheEntries, s.met.cacheEntries, s.met.cacheEvictions)
	if cfg.CacheDir != "" && cfg.CacheEntries > 0 {
		// An unopenable tier degrades to memory-only service; the store's
		// own recovery scan never fails, so diskErr means a real I/O
		// problem with the directory itself.
		s.disk, s.diskErr = openDiskTier(cfg.CacheDir, s.met)
	}
	s.breaker = newBreaker(cfg.BreakerThreshold, cfg.BreakerCooldown, breakerMaxEntries, cfg.now,
		func(to string) { s.met.transitions[to].Inc() })
	s.baseCtx, s.cancelBase = context.WithCancel(context.Background())
	for i := 0; i < cfg.Workers; i++ {
		s.wg.Add(1)
		go s.worker()
	}
	return s
}

// Submit runs one request to completion: validation, admission, dedup,
// cache, queue, breaker, retries. It blocks until the request
// terminates or ctx ends (abandoning the shared flight, which keeps
// running while other waiters remain). A request that executed returns
// a non-nil Response — possibly carrying a degraded-but-legal Compiled
// WITH a typed error (anytime semantics), possibly a nil Compiled when
// the failure was hard — so Wait/Retries metadata survives either way.
// A nil Response means the request never executed: rejected by
// validation or admission control, or abandoned by the caller.
func (s *Server) Submit(ctx context.Context, req *Request) (*Response, error) {
	r, err := Resolve(req)
	if err != nil {
		return nil, err
	}
	return s.SubmitResolved(ctx, r)
}

// SubmitResolved is Submit for a request already resolved, such as the
// one a fleet router resolved to route it.
func (s *Server) SubmitResolved(ctx context.Context, r *Resolved) (*Response, error) {
	ctx, sp := telemetry.ActiveTracer().StartSpan(ctx, "server.submit")
	if sp != nil && s.cfg.Node != "" {
		sp.SetNode(s.cfg.Node)
	}
	resp, err := s.submit(ctx, r)
	if sp != nil {
		annotateSubmit(sp, resp)
		sp.Fail(err)
		sp.End()
	}
	return resp, err
}

// annotateSubmit records the request's service-level outcome on its
// server.submit span.
func annotateSubmit(sp *telemetry.TraceSpan, resp *Response) {
	if resp == nil {
		return
	}
	switch {
	case resp.DiskHit:
		sp.SetAttr("cache", "disk")
	case resp.Cached:
		sp.SetAttr("cache", "memory")
	}
	if resp.Deduped {
		sp.SetAttr("deduped", "true")
	}
	if resp.FastPath {
		sp.SetAttr("fast_path", "true")
	}
	if resp.Retries > 0 {
		sp.SetAttr("retries", strconv.Itoa(resp.Retries))
	}
	if resp.Compiled != nil {
		sp.SetAttr("rung", resp.Compiled.Quality.String())
		if !resp.Compiled.Sched.IsPaper() {
			sp.SetAttr("sched", resp.Compiled.Sched.String())
		}
	}
}

// submit is Submit's body, running under the server.submit span when
// the request is traced.
func (s *Server) submit(ctx context.Context, r *Resolved) (*Response, error) {
	timeout := s.cfg.DefaultTimeout
	if r.Req.TimeoutMS > 0 {
		timeout = time.Duration(r.Req.TimeoutMS) * time.Millisecond
	}
	timeout = min(timeout, s.cfg.MaxTimeout)
	s.met.schedModes[r.opts.Sched.Kind.String()].Inc()
	for attempt := 0; ; attempt++ {
		f, joined, cached, err := s.admit(ctx, r, timeout)
		if err != nil {
			return nil, err
		}
		if cached != nil {
			cached.ID = r.Req.ID
			return cached, nil
		}
		resp := s.await(ctx, f, joined)
		if resp == nil { // caller gave up waiting
			s.leave(f)
			if errors.Is(ctx.Err(), context.DeadlineExceeded) {
				return nil, fmt.Errorf("%w: caller deadline expired while waiting", pipesched.ErrDeadline)
			}
			return nil, fmt.Errorf("%w: caller abandoned request", pipesched.ErrCanceled)
		}
		// If we piggybacked on a flight whose leader abandoned it while
		// it was still queued, the shared outcome is the LEADER's
		// cancellation, not ours — re-admit once instead of surfacing it.
		if joined && attempt < 2 && ctx.Err() == nil &&
			resp.Compiled == nil && errors.Is(resp.Err, pipesched.ErrCanceled) {
			continue
		}
		resp.ID = r.Req.ID
		return resp, resp.Err
	}
}

// admit applies admission control: cache lookup, tuple parse on a
// miss, singleflight join, deadline-aware shedding, bounded enqueue.
// Exactly one of (f, cached, err) paths results: a flight to await
// (joined reports whether it was already in flight), a cache hit, or a
// typed rejection.
func (s *Server) admit(ctx context.Context, r *Resolved, timeout time.Duration) (f *flight, joined bool, cached *Response, err error) {
	tr := telemetry.ActiveTracer()
	_, look := tr.StartSpan(ctx, "cache.lookup")
	if c, ok := s.cache.get(r.Key); ok {
		s.met.cacheHits.Inc()
		look.SetAttr("result", "hit")
		look.End()
		return nil, false, &Response{Compiled: c, Cached: true}, nil
	}
	// LRU miss: consult the persistent tier (when configured) and
	// promote a hit so the next lookup stays in memory.
	if c, ok := s.disk.get(r.Key); ok {
		s.cache.put(r.Key, c)
		s.met.cacheHits.Inc()
		look.SetAttr("result", "disk_hit")
		look.End()
		return nil, false, &Response{Compiled: c, Cached: true, DiskHit: true}, nil
	}
	look.SetAttr("result", "miss")
	look.End()
	s.met.cacheMisses.Inc()

	// Only work that runs needs its tuples parsed; a malformed block is
	// rejected here, before it can join a flight or reach the breaker.
	f = &flight{Resolved: r}
	if r.Req.Tuples != "" {
		if f.block, err = pipesched.ParseBlock(r.Req.Tuples); err != nil {
			return nil, false, nil, fmt.Errorf("%w: %w", ErrInvalidRequest, err)
		}
	}

	s.mu.Lock()
	if s.draining {
		s.mu.Unlock()
		s.met.shed["draining"].Inc()
		return nil, false, nil, ErrDraining
	}
	if lead := s.flights[r.Key]; lead != nil {
		lead.refs++
		s.mu.Unlock()
		s.met.dedup.Inc()
		// The joiner's trace shows the collapse; the leader's trace owns
		// the actual work.
		tr.Point(telemetry.TraceContextOf(ctx), "dedup.join")
		return lead, true, nil, nil
	}
	// Deadline-aware shedding: if the p95 queue wait already eats the
	// whole budget, the request would only time out in line.
	if est := s.waits.P95(); est > 0 && timeout.Seconds() < est {
		s.mu.Unlock()
		s.met.shed["deadline"].Inc()
		return nil, false, nil, &OverloadError{
			Reason:     "deadline cannot cover queue wait",
			RetryAfter: secondsToDuration(est),
		}
	}
	f.enqueued = s.cfg.now()
	f.refs = 1
	f.done = make(chan struct{})
	f.ctx, f.cancel = context.WithTimeout(s.baseCtx, timeout)
	// The flight outlives this (leader) caller's ctx, so trace linkage
	// is carried by value: children of the request parent under the
	// submit span even when a joiner ends up consuming the result.
	f.tc = telemetry.TraceContextOf(ctx)
	f.qspan = tr.StartSpanFrom(f.tc, "queue.wait")
	select {
	case s.jobs <- f:
	default:
		s.mu.Unlock()
		f.cancel()
		f.qspan.Fail(errors.New("queue full"))
		f.qspan.End()
		s.met.shed["full"].Inc()
		retry := time.Second
		if est := s.waits.P95(); est > 0 {
			retry = secondsToDuration(est)
		}
		return nil, false, nil, &OverloadError{Reason: "queue full", RetryAfter: retry}
	}
	s.flights[r.Key] = f
	s.mu.Unlock()
	s.met.admitted.Inc()
	s.met.queueDepth.Add(1)
	return f, false, nil, nil
}

// await blocks until f finishes or ctx ends; it returns nil when the
// caller's ctx ended first (the flight keeps running for any other
// waiters — Submit then calls leave).
func (s *Server) await(ctx context.Context, f *flight, joined bool) *Response {
	select {
	case <-f.done:
		r := *f.resp // shallow copy so each waiter owns its flags
		r.Deduped = joined
		return &r
	case <-ctx.Done():
		return nil
	}
}

// leave drops one waiter from f; the last leaver cancels the flight so
// an abandoned search degrades to its incumbent immediately instead of
// burning budget for nobody.
func (s *Server) leave(f *flight) {
	s.mu.Lock()
	f.refs--
	cancel := f.refs <= 0
	s.mu.Unlock()
	if cancel {
		f.cancel()
	}
}

// worker is one pool goroutine: it drains the queue until Shutdown
// closes it.
func (s *Server) worker() {
	defer s.wg.Done()
	for f := range s.jobs {
		s.execute(f)
	}
}

// execute runs one flight to completion and answers every waiter.
func (s *Server) execute(f *flight) {
	wait := s.cfg.now().Sub(f.enqueued)
	s.met.queueDepth.Add(-1)
	s.met.waitHist.ObserveExemplar(wait.Microseconds(), f.tc.TraceID, time.Now().Unix())
	s.waits.Observe(wait.Seconds())

	if err := f.ctx.Err(); err != nil {
		resp := &Response{Err: mapCtxErr(err), Wait: wait}
		f.qspan.Fail(resp.Err)
		f.qspan.End()
		s.finish(f, resp)
		return
	}
	f.qspan.End()

	decision := s.breaker.allow(f.Key)
	if tr := telemetry.ActiveTracer(); tr != nil && f.tc.Valid() {
		state := "closed"
		switch decision {
		case allowFastPath:
			state = "open"
		case allowProbe:
			state = "half_open"
		}
		tr.Point(f.tc, "breaker.decision", "state", state)
	}
	opts := f.opts
	if decision == allowFastPath {
		opts.HeuristicOnly = true
		s.met.fastPath.Inc()
	}

	resp := s.compileWithRetry(f, opts)
	resp.Wait = wait
	resp.FastPath = decision == allowFastPath

	if decision != allowFastPath {
		s.breaker.record(f.Key, budgetFailure(resp.Err), decision == allowProbe)
	}
	if cacheable(resp) {
		s.cache.put(f.Key, resp.Compiled)
		s.disk.put(f.Key, resp.Compiled)
	}
	s.finish(f, resp)
}

// finish publishes resp to every waiter and retires the flight.
func (s *Server) finish(f *flight, resp *Response) {
	s.met.completed.Inc()
	s.mu.Lock()
	if s.flights[f.Key] == f {
		delete(s.flights, f.Key)
	}
	s.mu.Unlock()
	f.resp = resp
	close(f.done)
	f.cancel()
}

// compileWithRetry runs the compilation, retrying transient stage
// faults with exponential backoff and jitter inside the flight's
// budget. Permanent failures (invalid input, frontend faults) and
// budget outcomes (curtailed/deadline/canceled) return immediately.
// Total retry wall-time is capped by the request deadline: a backoff
// that could not complete before the flight's budget expires is not
// taken at all — the caller gets the previous attempt's answer now
// instead of a worker sleeping the remaining budget away.
func (s *Server) compileWithRetry(f *flight, opts pipesched.Options) *Response {
	tr := telemetry.ActiveTracer()
	attempts := 0
	for {
		aspan := tr.StartSpanFrom(f.tc, "compile.attempt")
		actx := f.ctx
		if aspan != nil {
			aspan.SetAttr("attempt", strconv.Itoa(attempts+1))
			if !opts.Sched.IsPaper() {
				aspan.SetAttr("sched", opts.Sched.String())
			}
			actx = telemetry.WithTraceContext(f.ctx, aspan.Context())
		}
		c, err := s.compileOnce(actx, f, opts)
		if aspan != nil {
			if c != nil {
				aspan.SetAttr("rung", c.Quality.String())
			}
			aspan.Fail(err)
			aspan.End()
		}
		if err == nil || !transientFault(err) || attempts >= s.cfg.MaxRetries || f.ctx.Err() != nil {
			return &Response{Compiled: c, Err: err, Retries: attempts}
		}
		delay := s.backoff(attempts + 1)
		if deadline, ok := f.ctx.Deadline(); ok && s.cfg.now().Add(delay).After(deadline) {
			// The backoff alone would blow the caller's budget; another
			// attempt after it could only do worse.
			return &Response{Compiled: c, Err: err, Retries: attempts}
		}
		attempts++
		s.met.retries.Inc()
		tr.Point(f.tc, "retry.backoff", "delay", delay.String())
		select {
		case <-time.After(delay):
		case <-f.ctx.Done():
			// Budget ran out mid-backoff; the previous attempt's result
			// (legal, possibly degraded) is still the best answer.
			return &Response{Compiled: c, Err: err, Retries: attempts}
		}
	}
}

// compileOnce is one attempt, with a last-resort panic isolation layer
// over the pipeline's own per-stage isolation.
func (s *Server) compileOnce(ctx context.Context, f *flight, opts pipesched.Options) (c *pipesched.Compiled, err error) {
	defer func() {
		if r := recover(); r != nil {
			s.met.panics.Inc()
			// A panic that escaped stage isolation is exactly what the
			// black box exists for: dump the recent span ring.
			telemetry.ActiveTracer().Trigger("panic")
			c, err = nil, fmt.Errorf("%w: compile panicked outside stage isolation: %v", ErrInternal, r)
		}
	}()
	if testHookCompile != nil {
		testHookCompile(ctx)
	}
	if f.block != nil {
		return pipesched.ScheduleCtx(ctx, f.block, f.newMachine(), opts)
	}
	return pipesched.CompileCtx(ctx, f.Req.Source, f.newMachine(), opts)
}

// testHookCompile, when non-nil, runs at the top of every compile
// attempt with the flight's context — the tests' lever for stalls and
// panics that originate in the service layer rather than a pipeline
// stage.
var testHookCompile func(ctx context.Context)

// backoff returns the nth retry delay: RetryBase doubling per attempt,
// capped at RetryMax, plus up to 50% jitter so retry storms decorrelate.
func (s *Server) backoff(attempt int) time.Duration {
	d := s.cfg.RetryBase << uint(attempt-1)
	if d > s.cfg.RetryMax || d <= 0 {
		d = s.cfg.RetryMax
	}
	s.rngMu.Lock()
	j := time.Duration(s.rng.Int63n(int64(d)/2 + 1))
	s.rngMu.Unlock()
	return d + j
}

// transientFault reports whether err is worth retrying: an isolated
// stage fault (panic or injected error) anywhere but the frontend.
// Frontend failures are permanent — same input, same parse — and
// budget/validation errors have their own handling.
func transientFault(err error) bool {
	var se *pipesched.StageError
	if !errors.As(err, &se) {
		return false
	}
	return se.Stage != "frontend"
}

// budgetFailure reports whether err is a search-budget blowout — the
// outcomes the circuit breaker counts.
func budgetFailure(err error) bool {
	return errors.Is(err, pipesched.ErrCurtailed) || errors.Is(err, pipesched.ErrDeadline)
}

// mapCtxErr maps a flight context error onto the public taxonomy.
func mapCtxErr(err error) error {
	if errors.Is(err, context.DeadlineExceeded) {
		return fmt.Errorf("%w: budget expired in queue", pipesched.ErrDeadline)
	}
	return fmt.Errorf("%w: request abandoned in queue", pipesched.ErrCanceled)
}

func secondsToDuration(s float64) time.Duration {
	d := time.Duration(s * float64(time.Second))
	if d < 100*time.Millisecond {
		d = 100 * time.Millisecond
	}
	return d
}

// Draining reports whether Shutdown has begun.
func (s *Server) Draining() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.draining
}

// QueueDepth returns the number of queued (not yet executing) flights.
func (s *Server) QueueDepth() int { return len(s.jobs) }

// DiskStore exposes the persistent cache tier's store — the fleet layer
// uses it for key-range handoff on membership change. Nil when no
// Config.CacheDir was set (or the tier failed to open).
func (s *Server) DiskStore() *store.Store {
	if s.disk == nil {
		return nil
	}
	return s.disk.st
}

// DiskRecovery reports the persistent tier's startup recovery scan:
// entries recovered and servable, entries quarantined as corrupt. Zero
// when no tier is configured.
func (s *Server) DiskRecovery() store.RecoveryReport {
	if s.disk == nil {
		return store.RecoveryReport{}
	}
	return s.disk.rep
}

// DiskErr reports why the persistent tier is unavailable (nil when it
// is healthy or was never configured).
func (s *Server) DiskErr() error { return s.diskErr }

// Shutdown drains the server: admission stops immediately
// (ErrDraining), queued and running work runs to completion, and once
// ctx expires any still-running searches are canceled — the anytime
// pipeline then returns best incumbents within microseconds, so every
// waiter is answered promptly either way. Shutdown is idempotent; it
// returns ctx.Err() when the drain deadline forced degradation, nil on
// a clean drain.
func (s *Server) Shutdown(ctx context.Context) error {
	s.mu.Lock()
	first := !s.draining
	s.draining = true
	s.mu.Unlock()
	if first {
		close(s.jobs)
	}
	done := make(chan struct{})
	go func() { s.wg.Wait(); close(done) }()
	// The persistent cache tier is deliberately NOT closed here: it
	// holds no file descriptors between operations, the drained worker
	// pool can no longer write to it, and the fleet layer still reads it
	// for key-range handoff after a graceful node removal.
	select {
	case <-done:
		s.cancelBase()
		return nil
	case <-ctx.Done():
		s.cancelBase() // degrade in-flight searches to incumbents
		<-done
		return ctx.Err()
	}
}

// Close is Shutdown with an immediate deadline: stop admitting, degrade
// everything in flight, answer every waiter, return.
func (s *Server) Close() {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_ = s.Shutdown(ctx)
}
