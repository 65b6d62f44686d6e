package pipesched

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"hash"
	"math/rand"
	"testing"

	"pipesched/internal/kernels"
	"pipesched/internal/synth"
)

// assemblyDigest is the SHA-256 of every assembly text TestAssemblyGolden
// emits. The compile pipeline's layers may change how they compute, never
// what they emit: a change here is a change in the delivered code.
const assemblyDigest = "af43fba873f51f27bfa69bb934ea5acdee4436a24c85c24870ae4493b066824c"

// TestAssemblyGolden pins the emitted assembly, byte for byte, over the
// kernel library and the paper-sim benchmark corpus (synth.Generate,
// seed 1990, 400 blocks of the Figure 5 size distribution over 8
// variables and 6 constants). Each source is compiled with Optimize and
// ExplainNOPs under all four delay modes on both built-in machines.
func TestAssemblyGolden(t *testing.T) {
	rng := rand.New(rand.NewSource(1990))
	var srcs []string
	for _, k := range kernels.All() {
		srcs = append(srcs, k.Source)
	}
	for i := 0; i < 400; i++ {
		b, err := synth.Generate(rng, synth.Params{
			Statements: synth.SizeDistribution(rng, 1)[0], Variables: 8, Constants: 6,
		})
		if err != nil {
			t.Fatal(err)
		}
		srcs = append(srcs, b.Source)
	}
	h := sha256.New()
	for _, m := range []*Machine{SimulationMachine(), ExampleMachine()} {
		for _, mode := range []DelayMode{NOPPadding, ExplicitInterlock, ImplicitInterlock, TeraInterlock} {
			digestCorpus(t, h, srcs, m, Options{Optimize: true, ExplainNOPs: true, Mode: mode})
		}
	}
	if got := hex.EncodeToString(h.Sum(nil)); got != assemblyDigest {
		t.Fatalf("assembly digest = %s, want %s", got, assemblyDigest)
	}
}

func digestCorpus(t *testing.T, h hash.Hash, srcs []string, m *Machine, o Options) {
	t.Helper()
	for i, src := range srcs {
		c, err := CompileCtx(context.Background(), src, m, o)
		if err != nil {
			t.Fatalf("%s %s source %d: %v", m.Name, o.Mode, i, err)
		}
		fmt.Fprintf(h, "%s %s %d\n%s", m.Name, o.Mode, i, c.Assembly)
	}
}
