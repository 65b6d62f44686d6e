package opt_test

import (
	"fmt"
	"math/rand"
	"reflect"
	"sync"
	"testing"

	"pipesched/internal/ir"
	"pipesched/internal/kernels"
	"pipesched/internal/opt"
	"pipesched/internal/synth"
	"pipesched/internal/tuplegen"
)

// corpus lowers the kernel library and the paper-sim benchmark corpus
// (synth.Generate, seed 1990, 400 blocks of the Figure 5 size
// distribution over 8 variables and 6 constants) to tuples.
func corpus(t *testing.T) []*ir.Block {
	t.Helper()
	var blocks []*ir.Block
	add := func(src, label string) {
		b, err := tuplegen.Compile(src, label)
		if err != nil {
			t.Fatalf("%s: %v", label, err)
		}
		blocks = append(blocks, b)
	}
	for _, k := range kernels.All() {
		add(k.Source, k.Name)
	}
	rng := rand.New(rand.NewSource(1990))
	for i := 0; i < 400; i++ {
		sb, err := synth.Generate(rng, synth.Params{
			Statements: synth.SizeDistribution(rng, 1)[0], Variables: 8, Constants: 6,
		})
		if err != nil {
			t.Fatal(err)
		}
		add(sb.Source, fmt.Sprintf("sim%d", i))
	}
	return blocks
}

// fixpoint runs a pass list on b until no pass changes it.
func fixpoint(passes []opt.Pass, b *ir.Block) {
	for changed := true; changed; {
		changed = false
		for _, p := range passes {
			if p.Run(b) {
				changed = true
			}
		}
	}
}

// TestOptimizeConcurrent runs Optimize, whose scratch comes from a pool,
// on eight goroutines at once, and eight Passes lists, one per
// goroutine: every output equals the sequential one and no input block
// changes.
func TestOptimizeConcurrent(t *testing.T) {
	blocks := corpus(t)
	inputs := make([]string, len(blocks))
	want := make([]*ir.Block, len(blocks))
	wantPasses := make([]*ir.Block, len(blocks))
	passes := opt.Passes()
	for i, b := range blocks {
		inputs[i] = b.String()
		want[i] = opt.Optimize(b)
		wantPasses[i] = b.Clone()
		fixpoint(passes, wantPasses[i])
	}

	const goroutines = 8
	errs := make(chan error, goroutines)
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			passes := opt.Passes() // a list of its own: lists must not be shared
			for _, i := range rand.New(rand.NewSource(int64(g))).Perm(len(blocks)) {
				if got := opt.Optimize(blocks[i]); !reflect.DeepEqual(got, want[i]) {
					errs <- fmt.Errorf("goroutine %d: Optimize(%s) =\n%v\nsequentially\n%v", g, blocks[i].Label, got, want[i])
					return
				}
				got := blocks[i].Clone()
				fixpoint(passes, got)
				if got.String() != wantPasses[i].String() {
					errs <- fmt.Errorf("goroutine %d: Passes on %s =\n%v\nsequentially\n%v", g, blocks[i].Label, got, wantPasses[i])
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	for i, b := range blocks {
		if b.String() != inputs[i] {
			t.Fatalf("Optimize changed its input %s", b.Label)
		}
	}
}
