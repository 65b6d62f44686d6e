package server

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"strconv"
	"sync"

	"pipesched"
	"pipesched/internal/machine"
)

// Resolved is a wire Request turned into work: validated, its options
// built and its content key computed. It is read-only once Resolve
// returns, so one Resolved may feed several servers at once (a fleet's
// hedged attempts). Neither tuples nor a preset machine are built here:
// a server builds them only on a cache miss, the one path that
// compiles.
type Resolved struct {
	Req *Request
	// Key content-addresses the work: it keys a server's cache,
	// singleflight and circuit breaker, and the fleet ring.
	Key string
	// newMachine returns the machine to compile on: a fresh one from a
	// preset's constructor, or the machine a text spec parsed to.
	newMachine func() *pipesched.Machine
	opts       pipesched.Options
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
	mk, text, err := resolveMachine(req.Machine)
	if err != nil {
		return nil, err
	}
	o, err := resolveOptions(req.Options)
	if err != nil {
		return nil, err
	}
	return &Resolved{Req: req, Key: fingerprint(req.Source, req.Tuples, text, o), newMachine: mk, opts: o}, nil
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
	// A small request on a preset machine (~300 bytes of text) hashes
	// without allocating; a larger one allocates its buffer once.
	var scratch [1024]byte
	buf := scratch[:0]
	if n := len(source) + len(tuples) + len(machineText) + 160; n > len(scratch) {
		buf = make([]byte, 0, n)
	}
	buf = append(buf, "src\x00"...)
	buf = append(buf, source...)
	buf = append(buf, "\x00tuples\x00"...)
	buf = append(buf, tuples...)
	buf = append(buf, "\x00machine\x00"...)
	buf = append(buf, machineText...)
	buf = append(buf, "\x00opts\x00"...)
	buf = strconv.AppendInt(buf, o.Lambda, 10)
	buf = append(buf, '|')
	buf = strconv.AppendBool(buf, o.Optimize)
	buf = append(buf, '|')
	buf = strconv.AppendBool(buf, o.Reassociate)
	buf = append(buf, '|')
	buf = strconv.AppendInt(buf, int64(o.Registers), 10)
	buf = append(buf, '|')
	buf = strconv.AppendUint(buf, uint64(o.Mode), 10)
	buf = append(buf, '|')
	buf = strconv.AppendBool(buf, o.ExplainNOPs)
	buf = append(buf, '|')
	buf = strconv.AppendBool(buf, o.AssignPipelines)
	buf = append(buf, '|')
	buf = strconv.AppendBool(buf, o.StrongEquivalence)
	buf = append(buf, '|')
	buf = append(buf, o.Sched.String()...)
	sum := sha256.Sum256(buf)
	return hex.EncodeToString(sum[:])
}

// preset is one named machine: its constructor and the canonical text
// of the machine it builds.
type preset struct {
	mk   func() *pipesched.Machine
	text string
}

// presets renders each preset's canonical text once per process. Each
// compile still builds a fresh machine of its own: Machine's fields are
// exported and mutable, so no preset machine is shared.
var presets = sync.OnceValue(func() map[string]preset {
	t := map[string]preset{}
	for name, mk := range machine.Presets() {
		t[name] = preset{mk: mk, text: mk().String()}
	}
	return t
})

// resolveMachine validates a MachineSpec and returns the constructor of
// its machine and the machine's canonical text. A preset's constructor
// builds a fresh machine per call; a text machine is parsed and
// rendered per request (its spec is the caller's, so nothing of it is
// kept), and its constructor returns that parsed machine.
func resolveMachine(spec MachineSpec) (func() *pipesched.Machine, string, error) {
	switch {
	case spec.Preset != "":
		p, ok := presets()[spec.Preset]
		if !ok {
			return nil, "", fmt.Errorf("%w: unknown machine preset %q", ErrInvalidRequest, spec.Preset)
		}
		return p.mk, p.text, nil
	case spec.Text != "":
		m, err := machine.ParseString(spec.Text)
		if err != nil {
			return nil, "", fmt.Errorf("%w: %w", ErrInvalidRequest, err)
		}
		return func() *pipesched.Machine { return m }, m.String(), nil
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
