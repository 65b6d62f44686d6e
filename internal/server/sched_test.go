package server

import (
	"context"
	"encoding/json"
	"errors"
	"testing"

	"pipesched"
)

// schedRequest builds a tuple request for block n under a scheduler
// mode given in its textual form.
func schedRequest(n int, sched string) *Request {
	r := tupleRequest(n)
	r.Options.Sched = sched
	return r
}

// TestFingerprintSchedDistinct: the scheduler mode — including its
// parameters — must be part of the content fingerprint, or different
// modes would share cache entries, dedup onto each other, and land on
// the same fleet node as "identical" work.
func TestFingerprintSchedDistinct(t *testing.T) {
	modes := []string{"", "minreg-lex", "minreg-k=2", "minreg-k=3", "scoreboard=1x1", "scoreboard=4x2"}
	seen := map[string]string{}
	for _, mode := range modes {
		fp, err := Fingerprint(schedRequest(1, mode))
		if err != nil {
			t.Fatalf("Fingerprint(%q): %v", mode, err)
		}
		if prev, dup := seen[fp]; dup {
			t.Errorf("modes %q and %q share fingerprint %s", prev, mode, fp)
		}
		seen[fp] = mode
	}
	// "paper" is the canonical spelling of the empty mode: same work,
	// same fingerprint.
	fpEmpty, _ := Fingerprint(schedRequest(1, ""))
	fpPaper, err := Fingerprint(schedRequest(1, "paper"))
	if err != nil {
		t.Fatalf("Fingerprint(paper): %v", err)
	}
	if fpEmpty != fpPaper {
		t.Errorf("empty and explicit paper mode fingerprints differ")
	}
}

// TestSubmitBadSched: a malformed sched option is a typed invalid
// request, surfaced through both Submit and Fingerprint.
func TestSubmitBadSched(t *testing.T) {
	s := newTestServer(t, testConfig())
	for _, bad := range []string{"minreg-k=0", "minreg-k=banana", "scoreboard=0x2", "warp"} {
		if _, err := s.Submit(context.Background(), schedRequest(1, bad)); !errors.Is(err, ErrInvalidRequest) {
			t.Errorf("Submit(sched=%q) = %v, want ErrInvalidRequest", bad, err)
		}
		if _, err := Fingerprint(schedRequest(1, bad)); !errors.Is(err, ErrInvalidRequest) {
			t.Errorf("Fingerprint(sched=%q) = %v, want ErrInvalidRequest", bad, err)
		}
	}
}

// TestSchedModeCachePollution: the same block compiled under different
// modes must produce independent cache entries — a paper result must
// never be served for a pressure-mode request or vice versa — while
// repeats within one mode still hit.
func TestSchedModeCachePollution(t *testing.T) {
	s := newTestServer(t, testConfig())
	ctx := context.Background()

	submit := func(sched string) *Response {
		t.Helper()
		resp, err := s.Submit(ctx, schedRequest(7, sched))
		if err != nil {
			t.Fatalf("Submit(sched=%q): %v", sched, err)
		}
		if resp.Compiled == nil {
			t.Fatalf("Submit(sched=%q): nil result", sched)
		}
		return resp
	}

	paper := submit("")
	if paper.Cached {
		t.Fatal("first paper submit served from cache")
	}

	lex := submit("minreg-lex")
	if lex.Cached {
		t.Fatal("minreg-lex submit polluted by the paper cache entry")
	}
	if lex.Compiled.MaxLive < 1 {
		t.Errorf("minreg-lex result MaxLive = %d, want >= 1", lex.Compiled.MaxLive)
	}
	if lex.Compiled.Sched.String() != "minreg-lex" {
		t.Errorf("minreg-lex result carries mode %s", lex.Compiled.Sched)
	}
	// The lexicographic mode never pays NOPs for pressure: same primary
	// objective as the paper optimum.
	if lex.Compiled.TotalNOPs != paper.Compiled.TotalNOPs {
		t.Errorf("minreg-lex NOPs %d != paper NOPs %d", lex.Compiled.TotalNOPs, paper.Compiled.TotalNOPs)
	}

	sb := submit("scoreboard=4x2")
	if sb.Cached {
		t.Fatal("scoreboard submit polluted by an in-order cache entry")
	}
	if len(sb.Compiled.IssueTicks) == 0 {
		t.Error("scoreboard result carries no issue ticks")
	}

	// Repeats within each mode hit their own entries.
	for _, mode := range []string{"", "minreg-lex", "scoreboard=4x2"} {
		if again := submit(mode); !again.Cached {
			t.Errorf("repeat submit(sched=%q) missed the cache", mode)
		}
	}
	// And the paper entry is still the paper result after the other
	// modes ran.
	if again := submit(""); again.Compiled.MaxLive != paper.Compiled.MaxLive || again.Compiled.TotalNOPs != paper.Compiled.TotalNOPs {
		t.Error("paper cache entry mutated by other-mode traffic")
	}
}

// TestWireRoundTripSched: mode identity, MAXLIVE and scoreboard issue
// ticks must survive the JSON wire shape — the fleet rebuilds Compiled
// results from exactly these bytes.
func TestWireRoundTripSched(t *testing.T) {
	s := newTestServer(t, testConfig())
	ctx := context.Background()
	for _, sched := range []string{"minreg-k=3", "scoreboard=4x2"} {
		resp, err := s.Submit(ctx, schedRequest(9, sched))
		if err != nil {
			t.Fatalf("Submit(%q): %v", sched, err)
		}
		w := toWire("rt", resp, nil, ErrorCode)
		w.AttachSchedule(resp)
		raw, err := json.Marshal(w)
		if err != nil {
			t.Fatalf("marshal: %v", err)
		}
		var back WireResponse
		if err := json.Unmarshal(raw, &back); err != nil {
			t.Fatalf("unmarshal: %v", err)
		}
		mode, err := pipesched.ParseSchedMode(back.Sched)
		if err != nil {
			t.Fatalf("wire sched %q: %v", back.Sched, err)
		}
		if mode != resp.Compiled.Sched {
			t.Errorf("%q: wire mode %s != compiled mode %s", sched, mode, resp.Compiled.Sched)
		}
		if back.MaxLive != resp.Compiled.MaxLive {
			t.Errorf("%q: wire MaxLive %d != %d", sched, back.MaxLive, resp.Compiled.MaxLive)
		}
		if back.Schedule == nil {
			t.Fatalf("%q: no wire schedule", sched)
		}
		if got, want := len(back.Schedule.IssueTicks), len(resp.Compiled.IssueTicks); got != want {
			t.Errorf("%q: wire issue ticks %d != %d", sched, got, want)
		}
	}
}
