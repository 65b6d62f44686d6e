package fleet

import (
	"context"
	"errors"
	"fmt"
	"sync"

	"pipesched/internal/fleet/store"
	"pipesched/internal/server"
)

// Typed sentinel errors of the fleet layer.
var (
	// ErrNodeDown: the node targeted by a sub-request is down (crashed,
	// or killed mid-flight, losing the answer). The router treats it as
	// a failover trigger, never surfaces it while replicas remain.
	ErrNodeDown = errors.New("fleet: node down")
	// ErrNodeSlow: the node did not answer within the per-attempt
	// transport budget but is not known to be dead — the connection was
	// accepted and simply outlived the attempt deadline. The router
	// fails over exactly like node-down, but the health verdict is left
	// to the prober: a slow worker must not be Kill-marked.
	ErrNodeSlow = errors.New("fleet: node slow")
	// ErrNoReplicas: every replica in the key's chain was down,
	// draining or overloaded. Carries the last underlying outcome.
	ErrNoReplicas = errors.New("fleet: no replica available")
	// ErrUnknownNode names a membership operation on an absent node ID.
	ErrUnknownNode = errors.New("fleet: unknown node")
)

// Node is one fleet backend: a server.Server plus the identity and
// lifecycle the router needs. In this in-process implementation a
// "node" is a worker pool with its own admission queue, circuit
// breakers, in-memory result LRU and durable cache directory — the
// same isolation boundaries a remote process would have, minus the
// network. Kill and Restart model a crash and a recovery:
//
//   - Kill marks the node down first (requests already in flight lose
//     their answers, exactly like a connection reset), then discards
//     the server — its memory cache, breaker state and queue die.
//   - Restart builds a fresh server over the same cache directory; the
//     store's recovery scan brings back every durable entry that
//     survived, quarantining any corruption.
type Node struct {
	backendLatency
	id  string
	dir string // durable cache directory ("" = memory-only node)
	cfg server.Config

	mu   sync.Mutex
	srv  *server.Server
	down bool
	// killGen counts crashes. A Submit that observes a different
	// generation after the call than before lost its answer to a crash;
	// a graceful Shutdown does NOT bump it, so drained in-flight answers
	// are still delivered.
	killGen uint64
}

// NewNode starts one backend node. dir, when non-empty, is the node's
// durable cache directory (created on demand).
func NewNode(id, dir string, cfg server.Config) *Node {
	cfg.CacheDir = dir
	cfg.Node = id // name this node in distributed-trace spans
	n := &Node{backendLatency: newBackendLatency(), id: id, dir: dir, cfg: cfg}
	n.srv = server.New(cfg)
	return n
}

// ID returns the node's stable identity on the ring.
func (n *Node) ID() string { return n.id }

// Healthy reports whether the node is up and accepting work.
func (n *Node) Healthy() bool {
	n.mu.Lock()
	defer n.mu.Unlock()
	return !n.down && n.srv != nil && !n.srv.Draining()
}

// Submit runs one resolved request on this node, which admits it
// without resolving it again. A down node — including one killed while
// the request was in flight — answers ErrNodeDown: a crash loses the
// answer even if the work had finished, exactly like a dropped
// connection, and the router must fail over.
func (n *Node) Submit(ctx context.Context, r *server.Resolved) (*server.Response, error) {
	n.mu.Lock()
	srv, gen, down := n.srv, n.killGen, n.down
	n.mu.Unlock()
	if down || srv == nil {
		return nil, fmt.Errorf("%w: %s", ErrNodeDown, n.id)
	}
	resp, err := srv.SubmitResolved(ctx, r)
	n.mu.Lock()
	lost := n.killGen != gen
	n.mu.Unlock()
	if lost {
		return nil, fmt.Errorf("%w: %s (killed mid-flight)", ErrNodeDown, n.id)
	}
	return resp, err
}

// Kill crashes the node: it goes down immediately (in-flight answers
// are lost to callers), then the server is torn down. Idempotent.
func (n *Node) Kill() {
	n.mu.Lock()
	if n.down {
		n.mu.Unlock()
		return
	}
	n.down = true
	n.killGen++
	srv := n.srv
	n.srv = nil
	n.mu.Unlock()
	if srv != nil {
		// Close answers any in-process waiters (their responses are
		// discarded by Submit's lost check) and stops the worker pool, so
		// the "crashed" goroutines don't linger.
		srv.Close()
	}
}

// Restart brings a killed node back: a fresh server over the same
// durable cache directory, recovered by the store's startup scan.
// Restarting a live node is a no-op.
func (n *Node) Restart() {
	n.mu.Lock()
	defer n.mu.Unlock()
	if !n.down {
		return
	}
	n.srv = server.New(n.cfg)
	n.down = false
}

// Shutdown gracefully drains the node: admission stops, accepted work
// finishes (or degrades at ctx expiry), then the node is down.
func (n *Node) Shutdown(ctx context.Context) error {
	n.mu.Lock()
	srv := n.srv
	n.srv = nil
	already := n.down
	n.down = true
	n.mu.Unlock()
	if already || srv == nil {
		return nil
	}
	return srv.Shutdown(ctx)
}

// DiskStore returns the node's durable cache store (nil for
// memory-only nodes or while the node is down). The fleet layer reads
// it for key-range handoff.
func (n *Node) DiskStore() *store.Store {
	n.mu.Lock()
	defer n.mu.Unlock()
	if n.srv == nil {
		return nil
	}
	return n.srv.DiskStore()
}

// Node is the in-process Backend (and supports crash simulation and
// direct durable-store access, which RemoteNode does not).
var (
	_ Backend    = (*Node)(nil)
	_ diskBacked = (*Node)(nil)
)

// DiskRecovery reports the last startup scan's recovery outcome.
func (n *Node) DiskRecovery() store.RecoveryReport {
	n.mu.Lock()
	defer n.mu.Unlock()
	if n.srv == nil {
		return store.RecoveryReport{}
	}
	return n.srv.DiskRecovery()
}
