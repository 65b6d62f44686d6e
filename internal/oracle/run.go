package oracle

import (
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"runtime"
	"sort"
	"sync"

	"pipesched/internal/dag"
	"pipesched/internal/ir"
	"pipesched/internal/machine"
	"pipesched/internal/synth"
)

// RunConfig configures one differential soak: Blocks synthetic blocks
// paired round-robin with Machines fuzzed machine models, every pair
// pushed through the full check suite.
type RunConfig struct {
	Blocks   int   // generated blocks (default 100)
	Machines int   // generated machines (default 10); index 0 is the paper's simulation machine
	Seed     int64 // master seed; every block, machine and transformation derives from it
	Workers  int   // concurrent pairs (default GOMAXPROCS)

	// MaxStatements bounds generated block size in source statements
	// (tuple counts land around 2.5-3x that). Default 7.
	MaxStatements int

	// Mode selects the scheduler mode under test, in
	// machine.ParseSchedMode's textual form ("" = paper). Every pair
	// runs CheckPair and CheckMetamorphic under it.
	Mode string

	// Machine bounds for machine.Random.
	MachineParams machine.Params

	// Check tunes the per-pair suite.
	Check Config

	// DisableMetamorphic skips the metamorphic invariants (they re-run
	// the search several times per pair).
	DisableMetamorphic bool

	// Artifacts, when non-nil, receives one JSON line per divergence
	// with full repro context (block text, machine JSON, shrunken
	// counterexample). Writes are serialized.
	Artifacts io.Writer

	// Progress, when non-nil, is called after each block finishes.
	Progress func(done, total int)
}

func (c RunConfig) withDefaults() RunConfig {
	if c.Blocks <= 0 {
		c.Blocks = 100
	}
	if c.Machines <= 0 {
		c.Machines = 10
	}
	if c.Workers <= 0 {
		c.Workers = runtime.GOMAXPROCS(0)
	}
	if c.MaxStatements <= 0 {
		c.MaxStatements = 7
	}
	return c
}

// Artifact is one JSONL failure record: the divergence plus everything
// needed to reproduce it without the generators.
type Artifact struct {
	Divergence
	Seed         int64           `json:"seed"`           // the run's master seed
	Mode         string          `json:"mode,omitempty"` // scheduler mode under test (canonical form; empty = paper)
	BlockIndex   int             `json:"block_index"`    // which generated block
	MachineIndex int             `json:"machine_index"`  // which generated machine
	BlockText    string          `json:"block_text"`     // full failing block, tuple form
	ShrunkText   string          `json:"shrunk_text"`    // 1-minimal counterexample, tuple form
	MachineJSON  json.RawMessage `json:"machine_json"`   // machine description
}

// Summary aggregates one soak run.
type Summary struct {
	Pairs       int            // (block, machine) pairs checked
	Tuples      int            // total tuples scheduled
	Divergences int            // total findings
	PerCheck    map[string]int // findings by check name
	Artifacts   []Artifact     // every finding, with repro context
}

// Checks renders the per-check counts deterministically.
func (s *Summary) Checks() string {
	if len(s.PerCheck) == 0 {
		return "none"
	}
	names := make([]string, 0, len(s.PerCheck))
	for n := range s.PerCheck {
		names = append(names, n)
	}
	sort.Strings(names)
	out := ""
	for i, n := range names {
		if i > 0 {
			out += " "
		}
		out += fmt.Sprintf("%s=%d", n, s.PerCheck[n])
	}
	return out
}

// blockSeed derives the per-block RNG seed. Every random decision for
// block i (its parameters, its text, its metamorphic transformations)
// flows from this, so a finding replays from (Seed, BlockIndex) alone.
func blockSeed(master int64, i int) int64 {
	return master + int64(i)*1_000_003
}

// machineSeed derives the per-machine RNG seed (offset keeps the machine
// stream disjoint from the block stream).
func machineSeed(master int64, j int) int64 {
	return master + 777_767 + int64(j)*10_000_019
}

// Machines materializes the run's machine set: index 0 is the paper's
// simulation machine (so every soak covers the preset the reproduction
// actually targets), the rest are fuzzed.
func (c RunConfig) machines() []*machine.Machine {
	c = c.withDefaults()
	ms := make([]*machine.Machine, c.Machines)
	ms[0] = machine.SimulationMachine()
	for j := 1; j < c.Machines; j++ {
		ms[j] = machine.Random(rand.New(rand.NewSource(machineSeed(c.Seed, j))), c.MachineParams)
	}
	return ms
}

// Run executes the soak and returns the aggregate summary. The error is
// non-nil only for infrastructure failures (generation or artifact I/O);
// scheduler divergences are reported in the Summary, not as an error.
func Run(cfg RunConfig) (*Summary, error) {
	cfg = cfg.withDefaults()
	mode, err := machine.ParseSchedMode(cfg.Mode)
	if err != nil {
		return nil, fmt.Errorf("oracle: %w", err)
	}
	if !mode.IsPaper() {
		cfg.Mode = mode.String() // canonical form in every artifact
	}
	machines := cfg.machines()

	sum := &Summary{PerCheck: map[string]int{}}
	var (
		mu       sync.Mutex
		firstErr error
		done     int
	)
	jobs := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < cfg.Workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range jobs {
				block, mi, divs, err := checkIndex(cfg, machines, i)
				mu.Lock()
				if err != nil {
					if firstErr == nil {
						firstErr = fmt.Errorf("oracle: block %d: %w", i, err)
					}
					mu.Unlock()
					continue
				}
				sum.Pairs++
				sum.Tuples += block.Len()
				for _, d := range divs {
					sum.Divergences++
					sum.PerCheck[d.Check]++
				}
				if len(divs) > 0 {
					arts, aerr := buildArtifacts(cfg, machines, i, mi, block, divs)
					sum.Artifacts = append(sum.Artifacts, arts...)
					if aerr != nil && firstErr == nil {
						firstErr = aerr
					}
				}
				done++
				if cfg.Progress != nil {
					cfg.Progress(done, cfg.Blocks)
				}
				mu.Unlock()
			}
		}()
	}
	for i := 0; i < cfg.Blocks; i++ {
		jobs <- i
	}
	close(jobs)
	wg.Wait()
	return sum, firstErr
}

// checkIndex generates block i, pairs it with its round-robin machine
// and runs the suite. Deterministic in (cfg.Seed, i).
func checkIndex(cfg RunConfig, machines []*machine.Machine, i int) (*ir.Block, int, []Divergence, error) {
	rng := rand.New(rand.NewSource(blockSeed(cfg.Seed, i)))
	b, err := synth.Generate(rng, synth.RandomParams(rng, cfg.MaxStatements))
	if err != nil {
		return nil, 0, nil, err
	}
	mi := i % len(machines)
	divs, err := checkBlock(cfg, b.IR, machines[mi], rng)
	return b.IR, mi, divs, err
}

// checkBlock runs the differential suite plus (optionally) the
// metamorphic invariants on one pre-generated block, dispatching on the
// configured scheduler mode.
func checkBlock(cfg RunConfig, block *ir.Block, m *machine.Machine, rng *rand.Rand) ([]Divergence, error) {
	g, err := dag.Build(block)
	if err != nil {
		return nil, fmt.Errorf("generated block does not build: %w", err)
	}
	mode, err := machine.ParseSchedMode(cfg.Mode)
	if err != nil {
		return nil, fmt.Errorf("bad scheduler mode: %w", err)
	}
	divs := CheckPair(g, m, mode, cfg.Check)
	if !cfg.DisableMetamorphic {
		divs = append(divs, CheckMetamorphic(g, m, mode, cfg.Check, rng)...)
	}
	return divs, nil
}

// buildArtifacts shrinks the failing block once per distinct check name
// and emits one JSONL record per divergence. Called with the run mutex
// held (artifact writes must not interleave).
func buildArtifacts(cfg RunConfig, machines []*machine.Machine, i, mi int, block *ir.Block, divs []Divergence) ([]Artifact, error) {
	m := machines[mi]
	mjson, err := json.Marshal(m)
	if err != nil {
		return nil, fmt.Errorf("oracle: marshal machine %d: %w", mi, err)
	}
	shrunkFor := map[string]string{}
	var arts []Artifact
	var werr error
	for _, d := range divs {
		shrunk, ok := shrunkFor[d.Check]
		if !ok {
			shrunk = shrinkFor(cfg, block, m, d.Check, i)
			shrunkFor[d.Check] = shrunk
		}
		a := Artifact{
			Divergence:   d,
			Seed:         cfg.Seed,
			Mode:         cfg.Mode,
			BlockIndex:   i,
			MachineIndex: mi,
			BlockText:    block.String(),
			ShrunkText:   shrunk,
			MachineJSON:  mjson,
		}
		arts = append(arts, a)
		if cfg.Artifacts != nil {
			line, err := json.Marshal(a)
			if err == nil {
				_, err = cfg.Artifacts.Write(append(line, '\n'))
			}
			if err != nil && werr == nil {
				werr = fmt.Errorf("oracle: write artifact: %w", err)
			}
		}
	}
	return arts, werr
}

// shrinkFor reduces block to a 1-minimal counterexample that still
// triggers a divergence with the given check name on machine m. The
// shrink predicate re-derives its metamorphic RNG from the block seed on
// every probe, so the transformation stream is identical at every size.
func shrinkFor(cfg RunConfig, block *ir.Block, m *machine.Machine, check string, i int) string {
	min := Shrink(block, func(cand *ir.Block) bool {
		rng := rand.New(rand.NewSource(blockSeed(cfg.Seed, i) ^ 0x5eed))
		divs, err := checkBlock(cfg, cand, m, rng)
		if err != nil {
			return false
		}
		for _, d := range divs {
			if d.Check == check {
				return true
			}
		}
		return false
	})
	return min.String()
}
