// The fleet subcommand: a multi-node fault-tolerant compile fleet —
// consistent-hash routing over in-process backend nodes, each with its
// own crash-safe durable cache directory, with failover, hedged
// retries and graceful membership drain (see internal/fleet).
//
//	pipesched fleet -addr :8080 -nodes 3 -cache-dir /var/cache/pipesched
//
// The fleet exposes the same JSON API as `pipesched serve` (POST
// /compile single or batch, GET /healthz, GET /metrics) plus GET /fleet
// for the membership/health snapshot. SIGTERM drains every node.
//
// Exit status: 0 after a clean or budget-expired drain, 1 on a listen,
// serve or I/O failure.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/signal"
	"path/filepath"
	"syscall"
	"time"

	"pipesched"
	"pipesched/internal/fleet"
	"pipesched/internal/server"
)

// fleetReady, when non-nil, receives the bound address once the
// listener is up (test hook).
var fleetReady func(addr string)

// fleetNodeConfig is the per-node server configuration: workers per
// node (0 = GOMAXPROCS), a deep queue and a 4096-entry memory cache in
// front of each node's durable tier.
func fleetNodeConfig(workers int) server.Config {
	return server.Config{
		Workers:        workers,
		QueueDepth:     1024,
		DefaultTimeout: 10 * time.Second,
		CacheEntries:   4096,
	}
}

// runFleet is the testable body of `pipesched fleet`; ctx cancellation
// acts like SIGTERM.
func runFleet(ctx context.Context, args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("pipesched fleet", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		addr         = fs.String("addr", ":8080", "HTTP listen address")
		nodes        = fs.Int("nodes", 3, "backend nodes")
		replicas     = fs.Int("replicas", 2, "replica-set size per key: failover chain length")
		cacheDir     = fs.String("cache-dir", "", "durable cache root, one subdirectory per node (default: a temp dir)")
		workers      = fs.Int("workers", 0, "worker pool size per node (0 = GOMAXPROCS)")
		drainTimeout = fs.Duration("drain-timeout", 10*time.Second, "graceful drain budget on SIGTERM")
		statsJSON    = fs.String("stats-json", "", "write telemetry events (including trace spans) as JSON lines to this file")
		flightDir    = fs.String("flight-dir", "", "write flight-recorder dumps (panic, typed 5xx, SIGQUIT) to this directory")
	)
	if err := fs.Parse(args); err != nil {
		return 1
	}
	if fs.NArg() > 0 {
		fmt.Fprintf(stderr, "pipesched fleet: unexpected arguments %v\n", fs.Args())
		return 1
	}

	base := *cacheDir
	if base == "" {
		var err error
		base, err = os.MkdirTemp("", "pipesched-fleet-")
		if err != nil {
			fmt.Fprintf(stderr, "pipesched fleet: %v\n", err)
			return 1
		}
		fmt.Fprintf(stderr, "pipesched fleet: durable caches under %s (pass -cache-dir to persist across runs)\n", base)
	}
	pm := pipesched.EnableTelemetry()
	defer pipesched.DisableTelemetry()
	if *statsJSON != "" {
		sf, err := os.Create(*statsJSON)
		if err != nil {
			fmt.Fprintf(stderr, "pipesched fleet: %v\n", err)
			return 1
		}
		defer sf.Close()
		pm.SetSink(pipesched.NewJSONLTelemetrySink(sf))
	}
	// Distributed tracing is always on in fleet mode: the front door
	// mints (or joins) each request's trace, nodes attribute their spans
	// via server.Config.Node, and the flight recorder keeps the recent
	// window for black-box dumps.
	tr := pipesched.EnableTracing(pm, pipesched.TracerConfig{DumpDir: *flightDir})
	defer pipesched.DisableTracing()
	defer watchSIGQUIT(tr, *flightDir, "pipesched fleet", stderr)()

	f := fleet.New(fleet.Config{Replicas: *replicas, Metrics: pm})
	for i := 0; i < *nodes; i++ {
		id := fmt.Sprintf("node-%d", i)
		cfg := fleetNodeConfig(*workers)
		cfg.Metrics = pm
		f.AddNode(fleet.NewNode(id, filepath.Join(base, id), cfg))
	}

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		fmt.Fprintf(stderr, "pipesched fleet: %v\n", err)
		f.Close()
		return 1
	}
	hs := &http.Server{Handler: f.Handler()}
	fmt.Fprintf(stderr, "pipesched fleet: %d nodes, %d replicas, listening on http://%s (POST /compile, GET /healthz, GET /fleet, GET /metrics)\n",
		*nodes, *replicas, ln.Addr())
	if fleetReady != nil {
		fleetReady(ln.Addr().String())
	}

	sigCtx, stop := signal.NotifyContext(ctx, syscall.SIGTERM, syscall.SIGINT)
	defer stop()
	serveErr := make(chan error, 1)
	go func() { serveErr <- hs.Serve(ln) }()

	select {
	case err := <-serveErr:
		fmt.Fprintf(stderr, "pipesched fleet: %v\n", err)
		f.Close()
		return 1
	case <-sigCtx.Done():
	}

	fmt.Fprintf(stderr, "pipesched fleet: draining (budget %s)\n", *drainTimeout)
	drainCtx, cancel := context.WithTimeout(context.Background(), *drainTimeout)
	defer cancel()
	drainErr := f.Shutdown(drainCtx)
	_ = hs.Shutdown(drainCtx)
	if drainErr != nil {
		fmt.Fprintf(stderr, "pipesched fleet: drain budget expired, in-flight work degraded\n")
	} else {
		fmt.Fprintf(stderr, "pipesched fleet: drained cleanly\n")
	}
	return 0
}
