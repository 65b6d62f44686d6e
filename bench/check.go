package main

import (
	"fmt"
	"math/rand"

	"pipesched"
	"pipesched/internal/asm"
	"pipesched/internal/dag"
	"pipesched/internal/frontend"
	"pipesched/internal/machine"
	"pipesched/internal/sim"
)

// checkEnv gives every variable of src a value drawn from seed, the same
// for every block with the same variables.
func checkEnv(seed int64, src string) (map[string]int64, error) {
	prog, err := frontend.Parse(src)
	if err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(seed))
	env := map[string]int64{}
	for _, v := range prog.Vars() {
		env[v] = 1 + rng.Int63n(97)
	}
	return env, nil
}

// checkSemantics runs the emitted assembly on the register-machine
// interpreter and compares the final memory with the reference evaluation
// of the source, both starting from env. A block whose reference
// evaluation fails, for example on a division by zero, is unchecked:
// checked is false and err is nil.
func checkSemantics(src, assembly string, env map[string]int64) (checked bool, err error) {
	prog, err := frontend.Parse(src)
	if err != nil {
		return false, err
	}
	want := make(map[string]int64, len(env))
	for k, v := range env {
		want[k] = v
	}
	if prog.Eval(want) != nil {
		return false, nil
	}
	got, err := asm.Run(assembly, env)
	if err != nil {
		return true, fmt.Errorf("assembly does not run: %w", err)
	}
	for v, w := range want {
		if got[v] != w {
			return true, fmt.Errorf("assembly leaves %s = %d, source computes %d", v, got[v], w)
		}
	}
	return true, nil
}

// checkTiming proves a delivered schedule again on the independent
// simulator: every latency and enqueue constraint holds and the claimed
// NOPs (stalls in scoreboard mode) and ticks are what it simulates to.
func checkTiming(c *pipesched.Compiled, m *pipesched.Machine) error {
	g, err := dag.Build(c.Original)
	if err != nil {
		return err
	}
	in := sim.Input{Graph: g, M: m, Order: c.Order, Eta: c.Eta, Pipes: c.Pipes}
	if c.Sched.Kind == machine.SchedScoreboard {
		return sim.VerifyScoreboard(sim.ScoreboardInput{Input: in, Window: c.Sched.Window, Width: c.Sched.Width},
			c.IssueTicks, c.TotalNOPs)
	}
	return sim.Verify(in, c.TotalNOPs, c.Ticks)
}

// checker runs the three output checks on compiled blocks and collects
// what failed.
type checker struct {
	seed      int64
	m         *pipesched.Machine
	rp        replica
	o         *outcome
	checked   int // blocks whose semantics were compared
	unchecked int // blocks whose reference evaluation failed
}

// block checks one CompileCtx result of src. s is the replica's compile
// of src; nil makes the checker compile it untraced.
func (k *checker) block(name, src string, c *pipesched.Compiled, s *staged) {
	env, err := checkEnv(k.seed, src)
	if err != nil {
		k.o.problemf("%s: %v", name, err)
		return
	}
	switch ok, err := checkSemantics(src, c.Assembly, env); {
	case err != nil:
		k.o.problemf("%s: wrong values: %v", name, err)
	case ok:
		k.checked++
	default:
		k.unchecked++
	}
	if err := checkTiming(c, k.m); err != nil {
		k.o.problemf("%s: schedule fails simulation: %v", name, err)
	}
	if s == nil {
		if s, err = k.rp.fromSource(nil, "", -1, src); err != nil {
			k.o.problemf("%s: replica: %v", name, err)
			return
		}
	}
	if err := sameAsReplica(c, s); err != nil {
		k.o.problemf("%s: CompileCtx and the traced replica differ: %v", name, err)
	}
}

func (k *checker) summary() {
	k.o.notef("checked %d blocks: values, simulation and replica; %d of them unchecked for values (reference eval fails on the check environment)",
		k.checked+k.unchecked, k.unchecked)
}
