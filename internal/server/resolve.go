package server

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"sync"

	"pipesched"
	"pipesched/internal/machine"
)

// Resolved is a wire Request turned into work: validated, its machine
// and options built and its content key computed. It is read-only once
// Resolve returns, so one Resolved may feed several servers at once (a
// fleet's hedged attempts). Tuples are not parsed here: a server parses
// them only on a cache miss.
type Resolved struct {
	Req *Request
	// Key content-addresses the work: it keys a server's cache,
	// singleflight and circuit breaker, and the fleet ring.
	Key  string
	m    *pipesched.Machine
	opts pipesched.Options
}

// Resolve is the one place a wire request becomes work. It rejects a
// malformed request with an error matching ErrInvalidRequest: no input,
// both source and tuples, an unknown preset, an unparsable machine, or
// an unknown mode or sched. A malformed tuple block is found later, on
// the cache miss that parses it.
func Resolve(req *Request) (*Resolved, error) {
	if req == nil {
		return nil, fmt.Errorf("%w: nil request", ErrInvalidRequest)
	}
	if (req.Source == "") == (req.Tuples == "") {
		return nil, fmt.Errorf("%w: exactly one of source or tuples must be set", ErrInvalidRequest)
	}
	m, text, err := resolveMachine(req.Machine)
	if err != nil {
		return nil, err
	}
	o, err := resolveOptions(req.Options)
	if err != nil {
		return nil, err
	}
	return &Resolved{Req: req, Key: fingerprint(req.Source, req.Tuples, text, o), m: m, opts: o}, nil
}

// Fingerprint returns req's content key, Resolve(req).Key.
func Fingerprint(req *Request) (string, error) {
	r, err := Resolve(req)
	if err != nil {
		return "", err
	}
	return r.Key, nil
}

// fingerprint content-addresses one unit of compilation work: the block
// (source or tuple text), the machine (its canonical table rendering,
// machineText — two structurally identical machines hash alike
// regardless of how they were specified), and every option that can
// change the emitted schedule. It keys both the result cache /
// singleflight dedup and the circuit breaker, so "the same block on the
// same machine" collapses to one search and accumulates one failure
// history.
func fingerprint(source, tuples, machineText string, o pipesched.Options) string {
	h := sha256.New()
	io.WriteString(h, "src\x00")
	io.WriteString(h, source)
	io.WriteString(h, "\x00tuples\x00")
	io.WriteString(h, tuples)
	io.WriteString(h, "\x00machine\x00")
	io.WriteString(h, machineText)
	fmt.Fprintf(h, "\x00opts\x00%d|%t|%t|%d|%d|%t|%t|%t|%s",
		o.Lambda, o.Optimize, o.Reassociate, o.Registers, o.Mode,
		o.ExplainNOPs, o.AssignPipelines, o.StrongEquivalence,
		o.Sched.String())
	return hex.EncodeToString(h.Sum(nil))
}

// preset is one named machine: its constructor and the canonical text
// of the machine it builds.
type preset struct {
	mk   func() *pipesched.Machine
	text string
}

// presets renders each preset's canonical text once per process. A
// request still gets a fresh machine of its own: Machine's fields are
// exported and mutable, so no machine is shared.
var presets = sync.OnceValue(func() map[string]preset {
	t := map[string]preset{}
	for name, mk := range machine.Presets() {
		t[name] = preset{mk: mk, text: mk().String()}
	}
	return t
})

// resolveMachine parses a MachineSpec into a validated machine and its
// canonical text. A text machine is parsed and rendered per request:
// its spec is the caller's, so nothing of it is kept.
func resolveMachine(spec MachineSpec) (*pipesched.Machine, string, error) {
	switch {
	case spec.Preset != "":
		p, ok := presets()[spec.Preset]
		if !ok {
			return nil, "", fmt.Errorf("%w: unknown machine preset %q", ErrInvalidRequest, spec.Preset)
		}
		return p.mk(), p.text, nil
	case spec.Text != "":
		m, err := machine.ParseString(spec.Text)
		if err != nil {
			return nil, "", fmt.Errorf("%w: %w", ErrInvalidRequest, err)
		}
		return m, m.String(), nil
	}
	return nil, "", fmt.Errorf("%w: machine preset or text required", ErrInvalidRequest)
}

// resolveOptions maps wire options onto pipesched.Options.
func resolveOptions(o RequestOptions) (pipesched.Options, error) {
	opts := pipesched.Options{
		Lambda:            o.Lambda,
		Optimize:          o.Optimize,
		Reassociate:       o.Reassociate,
		Registers:         o.Registers,
		ExplainNOPs:       o.ExplainNOPs,
		AssignPipelines:   o.AssignPipelines,
		StrongEquivalence: o.StrongEquivalence,
	}
	switch o.Mode {
	case "", "nop":
		opts.Mode = pipesched.NOPPadding
	case "explicit":
		opts.Mode = pipesched.ExplicitInterlock
	case "implicit":
		opts.Mode = pipesched.ImplicitInterlock
	case "tera":
		opts.Mode = pipesched.TeraInterlock
	default:
		return opts, fmt.Errorf("%w: unknown mode %q (want nop, explicit, implicit or tera)", ErrInvalidRequest, o.Mode)
	}
	sched, err := pipesched.ParseSchedMode(o.Sched)
	if err != nil {
		return opts, fmt.Errorf("%w: %w", ErrInvalidRequest, err)
	}
	opts.Sched = sched
	return opts, nil
}
