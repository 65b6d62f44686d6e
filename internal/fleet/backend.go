package fleet

import (
	"context"

	"pipesched/internal/fleet/store"
	"pipesched/internal/server"
	"pipesched/internal/stats"
)

// Backend is one fleet member behind the router: something with a
// stable ring identity that can take a compile request and answer with
// the server.Submit contract. Two implementations exist:
//
//   - Node (node.go): an in-process server.Server — the original fleet
//     backend, still used for single-process deployments, benches and
//     most tests;
//   - RemoteNode (remote.go): a JSON-over-HTTP client for a
//     `pipesched worker` process, with transport failures mapped onto
//     the fleet's failover taxonomy.
//
// The interface carries two unexported methods (the router's latency
// bookkeeping), so implementations live in this package; processes
// outside it participate through RemoteNode.
type Backend interface {
	// ID is the backend's stable identity on the ring.
	ID() string
	// Healthy reports whether the backend is believed up and accepting
	// work right now. Routing consults it to skip dead replicas without
	// paying a round trip.
	Healthy() bool
	// Submit runs one request the router resolved, with server.Submit
	// semantics; transport and process failures surface as ErrNodeDown /
	// ErrNodeSlow so the router can fail over.
	Submit(ctx context.Context, r *server.Resolved) (*server.Response, error)
	// Shutdown stops the backend gracefully within ctx.
	Shutdown(ctx context.Context) error

	observeLatency(seconds float64)
	latWindow() *stats.Window
}

// backendLatency is the sliding winning-attempt latency window every
// backend embeds. The window survives crashes and restarts — it
// describes the backend's recent service history, not one incarnation.
type backendLatency struct {
	lat *stats.Window
}

func newBackendLatency() backendLatency { return backendLatency{lat: newLatencyWindow()} }

// observeLatency folds one winning-attempt latency into the backend's
// sliding window; the router calls it on every real answer the backend
// produced.
func (l *backendLatency) observeLatency(seconds float64) { l.lat.Observe(seconds) }

// latWindow exposes the window to the /fleet status endpoint.
func (l *backendLatency) latWindow() *stats.Window { return l.lat }

// diskBacked is the optional Backend facet for members whose durable
// cache store is directly readable by the router — in-process nodes.
// Key-range handoff on membership change only applies to these; a
// remote worker owns its cache directory and recovers it itself.
type diskBacked interface {
	DiskStore() *store.Store
}

// remoteProber is the optional Backend facet for members with a real
// failure detector: the fleet probe loop calls Probe instead of relying
// on local state. restarted reports that the worker process changed
// identity (PID) since the last successful probe, so the fleet can fold
// the new incarnation's cache-recovery scan into its counters.
type remoteProber interface {
	Probe(ctx context.Context) (st WorkerStatus, restarted bool, err error)
}
