package campaign

import (
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"sync"
	"sync/atomic"

	"pipesched"
	"pipesched/internal/ir"
	"pipesched/internal/machine"
	"pipesched/internal/server"
)

// CompileStats counts what a compiler actually did, for the campaign
// report's cache and dedup hit rates.
type CompileStats struct {
	Requests int64 `json:"requests"`
	Cached   int64 `json:"cached"`    // served from a service cache tier
	DiskHits int64 `json:"disk_hits"` // the hit came from the durable tier
	Deduped  int64 `json:"deduped"`   // collapsed onto an in-flight twin
}

// statsSource is implemented by compilers that can report CompileStats.
type statsSource interface{ Stats() CompileStats }

// LocalCompiler runs the in-process scheduler directly — no service in
// the way. Merged traces larger than SplitOver tuples go through the
// windowed splitter (ScheduleLargeCtx) instead of one exact search, so
// an over-merged trace degrades to locally-optimal windows rather than
// blowing the search budget.
type LocalCompiler struct {
	M         *machine.Machine
	Options   pipesched.Options
	SplitOver int // 0 disables splitting
	Window    int // splitter window; 0 selects the splitter default

	requests atomic.Int64
}

func (lc *LocalCompiler) Compile(ctx context.Context, b *ir.Block) (*pipesched.Compiled, error) {
	lc.requests.Add(1)
	if lc.SplitOver > 0 && b.Len() > lc.SplitOver {
		return pipesched.ScheduleLargeCtx(ctx, b, lc.M, lc.Window, lc.Options)
	}
	return pipesched.ScheduleCtx(ctx, b, lc.M, lc.Options)
}

func (lc *LocalCompiler) Stats() CompileStats {
	return CompileStats{Requests: lc.requests.Load()}
}

// Submitter is the front-door surface the campaign runner drives:
// server.Server, fleet.Fleet and the HTTP server.Client all satisfy it,
// so a campaign runs unchanged against one service or a whole fleet, in
// process or over the wire.
type Submitter interface {
	Submit(ctx context.Context, req *server.Request) (*server.Response, error)
}

// SubmitCompiler drives a Submitter (service, fleet or HTTP client).
type SubmitCompiler struct {
	Sub       Submitter
	Machine   server.MachineSpec
	Options   server.RequestOptions
	TimeoutMS int64

	requests, cached, diskHits, deduped atomic.Int64
}

func (sc *SubmitCompiler) Compile(ctx context.Context, b *ir.Block) (*pipesched.Compiled, error) {
	sc.requests.Add(1)
	resp, err := sc.Sub.Submit(ctx, &server.Request{
		Tuples:    b.String(),
		Machine:   sc.Machine,
		Options:   sc.Options,
		TimeoutMS: sc.TimeoutMS,
	})
	if resp != nil {
		if resp.Cached {
			sc.cached.Add(1)
		}
		if resp.DiskHit {
			sc.diskHits.Add(1)
		}
		if resp.Deduped {
			sc.deduped.Add(1)
		}
		if resp.Compiled != nil {
			return resp.Compiled, err
		}
	}
	if err == nil {
		err = fmt.Errorf("campaign: empty response for block %q", b.Label)
	}
	return nil, err
}

func (sc *SubmitCompiler) Stats() CompileStats {
	return CompileStats{
		Requests: sc.requests.Load(), Cached: sc.cached.Load(),
		DiskHits: sc.diskHits.Load(), Deduped: sc.deduped.Load(),
	}
}

// ContentKey fingerprints a block's tuple content with the label left
// out, so identical code in differently-named blocks (across programs,
// or the same program compiled twice) collapses onto one compile. The
// machine and mode are bound into the compiler, so they are
// deliberately not part of this key.
func ContentKey(b *ir.Block) string {
	sum := contentSum(b)
	return hex.EncodeToString(sum[:])
}

// contentSum hashes the fields Block.String renders, without rendering
// them: each tuple's ID, its op and only the operands the op uses. IDs,
// ops, operand kinds, references and immediates are fixed-width and
// variable names are length-prefixed, so the encoding is
// self-delimiting: two blocks hash alike exactly when their
// label-stripped texts are equal (variable names being the identifiers
// the frontend and the tuple parser produce).
func contentSum(b *ir.Block) [sha256.Size]byte {
	var scratch [512]byte // a block of up to ~18 tuples hashes without allocating
	buf := scratch[:0]
	for _, t := range b.Tuples {
		buf = binary.LittleEndian.AppendUint64(buf, uint64(t.ID))
		buf = append(buf, byte(t.Op))
		ops, n := t.Operands()
		for _, o := range ops[:n] {
			buf = append(buf, byte(o.Kind))
			switch o.Kind {
			case ir.VarOperand:
				buf = binary.AppendUvarint(buf, uint64(len(o.Var)))
				buf = append(buf, o.Var...)
			case ir.RefOperand:
				buf = binary.LittleEndian.AppendUint64(buf, uint64(o.Ref))
			case ir.ImmOperand:
				buf = binary.LittleEndian.AppendUint64(buf, uint64(o.Imm))
			}
		}
	}
	return sha256.Sum256(buf)
}

// DedupCompiler collapses content-identical blocks onto a single inner
// compile, campaign-wide: concurrent requests for the same content
// join the in-flight compile (singleflight), later ones reuse the
// finished result. Results are shared and must be treated as
// immutable, which every consumer in this package honors.
type DedupCompiler struct {
	Inner Compiler

	mu      sync.Mutex
	flights map[string]*dedupFlight
	hits    atomic.Int64
	misses  atomic.Int64
}

type dedupFlight struct {
	done chan struct{}
	c    *pipesched.Compiled
	err  error
}

func NewDedupCompiler(inner Compiler) *DedupCompiler {
	return &DedupCompiler{Inner: inner, flights: map[string]*dedupFlight{}}
}

func (dc *DedupCompiler) Compile(ctx context.Context, b *ir.Block) (*pipesched.Compiled, error) {
	key := ContentKey(b)
	dc.mu.Lock()
	if f, ok := dc.flights[key]; ok {
		dc.mu.Unlock()
		dc.hits.Add(1)
		select {
		case <-f.done:
			return f.c, f.err
		case <-ctx.Done():
			return nil, ctx.Err()
		}
	}
	f := &dedupFlight{done: make(chan struct{})}
	dc.flights[key] = f
	dc.mu.Unlock()
	dc.misses.Add(1)
	f.c, f.err = dc.Inner.Compile(ctx, b)
	if f.err != nil && f.c == nil {
		// Hard failures are not cached: a later retry of the same
		// content gets a fresh chance (transient overload, deadline).
		dc.mu.Lock()
		delete(dc.flights, key)
		dc.mu.Unlock()
	}
	close(f.done)
	return f.c, f.err
}

// Hits and Misses report the campaign-level dedup effectiveness.
func (dc *DedupCompiler) Hits() int64   { return dc.hits.Load() }
func (dc *DedupCompiler) Misses() int64 { return dc.misses.Load() }

func (dc *DedupCompiler) Stats() CompileStats {
	if s, ok := dc.Inner.(statsSource); ok {
		return s.Stats()
	}
	return CompileStats{}
}
