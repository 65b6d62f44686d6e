package server

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"testing"
	"time"

	"pipesched"
	"pipesched/internal/dag"
	"pipesched/internal/faultinject"
	"pipesched/internal/machine"
	"pipesched/internal/sim"
)

// TestSoakChaos is the delivery-guarantee acceptance test: with faults
// injected at every pipeline stage (probabilistic and deterministic-Nth),
// plus caller cancellations and invalid requests mixed in, EVERY
// accepted request must terminate — with a schedule the independent
// simulator verifies legal, a typed error, or both. No hangs, no
// silent drops, no untyped errors.
func TestSoakChaos(t *testing.T) {
	inj := faultinject.New().Seed(42).
		Plan(faultinject.Search, faultinject.Plan{Err: errors.New("chaos: search fault"), Prob: 0.2}).
		Plan(faultinject.Regalloc, faultinject.Plan{PanicValue: "chaos: regalloc panic", Prob: 0.1}).
		Plan(faultinject.DAG, faultinject.Plan{Err: errors.New("chaos: dag fault"), Prob: 0.05}).
		Plan(faultinject.Codegen, faultinject.Plan{Err: errors.New("chaos: codegen fault"), Nth: 7})
	defer faultinject.Activate(inj)()

	s := New(Config{
		Workers:          4,
		QueueDepth:       8,
		DefaultTimeout:   time.Second,
		MaxRetries:       2,
		RetryBase:        time.Millisecond,
		RetryMax:         2 * time.Millisecond,
		BreakerThreshold: 3,
		BreakerCooldown:  50 * time.Millisecond,
		CacheEntries:     32,
	})

	const clients = 8
	perClient := 40
	if testing.Short() {
		perClient = 15
	}
	type outcome struct {
		resp *Response
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
				var req *Request
				switch rng.Intn(10) {
				case 0: // invalid: typed rejection path
					req = &Request{Machine: MachineSpec{Preset: "simulation"}}
				case 1: // source input: exercises the frontend
					req = &Request{
						Source:  fmt.Sprintf("b = %d\na = b * a\n", rng.Intn(50)),
						Machine: MachineSpec{Preset: "simulation"},
					}
				default: // tuple input over a handful of keys: dedup + cache
					req = tupleRequest(rng.Intn(6))
				}
				ctx, cancel := context.Background(), context.CancelFunc(func() {})
				if rng.Intn(5) == 0 { // caller-side chaos: tiny deadlines
					ctx, cancel = context.WithTimeout(ctx, time.Duration(rng.Intn(3))*time.Millisecond)
				}
				resp, err := s.Submit(ctx, req)
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
		t.Fatal("soak hung: not every request terminated")
	}
	close(results)

	m := machine.Presets()["simulation"]()
	verified, hard := 0, 0
	typed := map[string]int{}
	for o := range results {
		if o.err != nil {
			code := ErrorCode(o.err)
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
		// schedule, whatever rung it landed on.
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
	t.Logf("soak: %d schedules sim-verified, %d hard failures, typed errors %v, codegen Nth fired %d/%d crossings",
		verified, hard, typed, inj.Fired(faultinject.Codegen), inj.Crossings(faultinject.Codegen))
	if verified == 0 {
		t.Fatal("soak produced no verifiable schedules")
	}
	if inj.Fired(faultinject.Codegen) != 1 {
		t.Errorf("deterministic Nth plan fired %d times, want exactly 1", inj.Fired(faultinject.Codegen))
	}

	// A clean drain must succeed with nothing left in flight.
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := s.Shutdown(ctx); err != nil {
		t.Fatalf("post-soak drain: %v", err)
	}
}

// TestSoakBreakerTripAndRecover proves the breaker arc end to end under
// concurrent load: forced budget blowouts trip the key's circuit (fast-
// path Heuristic responses appear), and once the fault clears, the
// half-open probe restores full searches.
func TestSoakBreakerTripAndRecover(t *testing.T) {
	cfg := testConfig()
	cfg.BreakerThreshold = 2
	cfg.BreakerCooldown = 50 * time.Millisecond
	cfg.CacheEntries = -1
	s := newTestServer(t, cfg)
	req := &Request{Tuples: chainTuples(8), Machine: MachineSpec{Preset: "simulation"}}
	key := fingerprintOfRequest(t, req)

	restore := faultinject.Activate(faultinject.New().
		Plan(faultinject.Search, faultinject.Plan{CurtailLambda: 1}))
	for i := 0; i < cfg.BreakerThreshold; i++ {
		if _, err := s.Submit(context.Background(), req); !errors.Is(err, pipesched.ErrCurtailed) {
			t.Fatalf("trip %d: err = %v, want ErrCurtailed", i, err)
		}
	}
	if st := s.breaker.stateOf(key); st != stateOpen {
		t.Fatalf("breaker state = %v, want open after %d blowouts", st, cfg.BreakerThreshold)
	}

	// Open circuit under concurrent load: every request is answered
	// from the fast path, degraded but legal and error-free.
	var wg sync.WaitGroup
	var fastMu sync.Mutex
	fast := 0
	for i := 0; i < 6; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			resp, err := s.Submit(context.Background(), req)
			if err != nil || resp.Compiled == nil {
				t.Errorf("open circuit: resp=%v err=%v", resp, err)
				return
			}
			if resp.FastPath && resp.Compiled.Quality == pipesched.Heuristic {
				fastMu.Lock()
				fast++
				fastMu.Unlock()
			}
		}()
	}
	wg.Wait()
	if fast == 0 {
		t.Fatal("no fast-path responses while the circuit was open")
	}
	restore()

	// Fault cleared: after the cooldown the probe's full search succeeds
	// and the circuit closes again.
	time.Sleep(cfg.BreakerCooldown + 10*time.Millisecond)
	resp, err := s.Submit(context.Background(), req)
	if err != nil || resp.FastPath || resp.Compiled.Quality != pipesched.Optimal {
		t.Fatalf("probe: resp=%+v err=%v, want full optimal search", resp, err)
	}
	if st := s.breaker.stateOf(key); st != stateClosed {
		t.Fatalf("breaker state = %v, want closed after recovery", st)
	}
}
