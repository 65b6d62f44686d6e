// The serve subcommand: a long-running JSON-over-HTTP compile service
// wrapping the library pipeline in the internal/server robustness layer
// (admission control, retries, circuit breaking, graceful drain).
//
//	pipesched serve -addr :8080
//
//	curl -s localhost:8080/compile -d '{"source":"a = b * c;","machine":{"preset":"simulation"}}'
//	curl -s localhost:8080/compile -d '{"requests":[{...},{...}]}'   # batch
//	curl -s localhost:8080/metrics                                  # Prometheus text
//
// SIGTERM/SIGINT starts a graceful drain: admission stops (503 +
// Retry-After), in-flight work finishes — or degrades to best
// incumbents when -drain-timeout expires — and the metrics endpoint is
// shut down last so the drain itself stays observable.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"time"

	"pipesched"
	"pipesched/internal/server"
)

// serveReady, when non-nil, receives the bound address once the
// listener is up (test hook).
var serveReady func(addr string)

// runServe is the testable body of `pipesched serve`; ctx cancellation
// acts like SIGTERM.
func runServe(ctx context.Context, args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("pipesched serve", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		addr         = fs.String("addr", ":8080", "HTTP listen address")
		workers      = fs.Int("workers", 0, "worker pool size (0 = GOMAXPROCS)")
		queue        = fs.Int("queue", 64, "work queue depth (admission bound)")
		defTimeout   = fs.Duration("default-timeout", 2*time.Second, "per-request compile budget when the request carries none")
		maxTimeout   = fs.Duration("max-timeout", 30*time.Second, "cap on any requested compile budget")
		retries      = fs.Int("max-retries", 2, "retry attempts for transient stage faults (-1 disables)")
		brThreshold  = fs.Int("breaker-threshold", 3, "consecutive budget failures opening a key's circuit (-1 disables)")
		brCooldown   = fs.Duration("breaker-cooldown", 5*time.Second, "open-circuit cooldown before the half-open probe")
		cacheSize    = fs.Int("cache", 1024, "result cache entries (-1 disables)")
		drainTimeout = fs.Duration("drain-timeout", 10*time.Second, "graceful drain budget on SIGTERM before in-flight work is degraded")
		statsJSON    = fs.String("stats-json", "", "write telemetry events as JSON lines to this file")
		flightDir    = fs.String("flight-dir", "", "write flight-recorder dumps (panic, typed 5xx, SIGQUIT) to this directory")
	)
	if !parseFlags(fs, args, stderr) {
		return 1
	}

	d := daemon{
		name: "pipesched serve", addr: *addr, statsJSON: *statsJSON,
		flightDir: *flightDir, sigquit: true, drain: *drainTimeout, ready: serveReady,
	}
	return d.run(ctx, stderr, func(pm *pipesched.Telemetry) (service, http.Handler) {
		srv := server.New(server.Config{
			Workers:          *workers,
			QueueDepth:       *queue,
			DefaultTimeout:   *defTimeout,
			MaxTimeout:       *maxTimeout,
			MaxRetries:       *retries,
			BreakerThreshold: *brThreshold,
			BreakerCooldown:  *brCooldown,
			CacheEntries:     *cacheSize,
			Metrics:          pm,
		})
		return srv, srv.Handler()
	}, func(a net.Addr) {
		fmt.Fprintf(stderr, "pipesched serve: listening on http://%s (POST /compile, GET /healthz, GET /metrics)\n", a)
	})
}
