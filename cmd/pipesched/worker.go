// The worker subcommand: one out-of-process fleet backend. It is a
// compile server (same wire protocol as `pipesched serve`) plus the
// process-fleet contract:
//
//   - on startup it prints a machine-readable ready line to stdout
//     ("pipesched-worker-ready addr=... pid=...") so a supervisor
//     learns the bound address (workers usually bind :0) and PID;
//
//   - every HTTP response carries X-Pipesched-Worker-PID, so failover
//     traces can prove which process incarnation served each attempt;
//
//   - GET /workerz reports the worker's identity, draining state and
//     durable-cache recovery counts — the router's failure detector;
//
//   - SIGTERM drains gracefully, exactly like serve.
//
//     pipesched worker -node w0 -addr 127.0.0.1:0 -cache-dir /var/cache/w0
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"strconv"
	"time"

	"pipesched"
	"pipesched/internal/fleet"
	"pipesched/internal/fleet/supervisor"
	"pipesched/internal/server"
)

// workerReady, when non-nil, receives the bound address once the
// listener is up (test hook).
var workerReady func(addr string)

// runWorker is the testable body of `pipesched worker`; ctx
// cancellation acts like SIGTERM.
func runWorker(ctx context.Context, args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("pipesched worker", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		addr         = fs.String("addr", "127.0.0.1:0", "HTTP listen address (port 0 = ephemeral, reported on the ready line)")
		node         = fs.String("node", "", "node identity on the fleet ring (required)")
		cacheDir     = fs.String("cache-dir", "", "durable cache directory (restarts recover it; empty = memory-only)")
		workers      = fs.Int("workers", 0, "worker pool size (0 = GOMAXPROCS)")
		queue        = fs.Int("queue", 64, "work queue depth (admission bound)")
		defTimeout   = fs.Duration("default-timeout", 2*time.Second, "per-request compile budget when the request carries none")
		maxTimeout   = fs.Duration("max-timeout", 30*time.Second, "cap on any requested compile budget")
		cacheSize    = fs.Int("cache", 1024, "result cache entries (-1 disables)")
		drainTimeout = fs.Duration("drain-timeout", 10*time.Second, "graceful drain budget on SIGTERM")
		statsJSON    = fs.String("stats-json", "", "write telemetry events as JSON lines to this file")
	)
	if !parseFlags(fs, args, stderr) {
		return 1
	}
	if *node == "" {
		fmt.Fprintf(stderr, "pipesched worker: -node is required\n")
		return 1
	}

	// Workers always trace: their spans join the router's trace through
	// the X-Pipesched-Trace header on forwarded requests.
	pid := os.Getpid()
	d := daemon{name: "pipesched worker", addr: *addr, statsJSON: *statsJSON, drain: *drainTimeout, ready: workerReady}
	return d.run(ctx, stderr, func(pm *pipesched.Telemetry) (service, http.Handler) {
		srv := server.New(server.Config{
			Workers:        *workers,
			QueueDepth:     *queue,
			DefaultTimeout: *defTimeout,
			MaxTimeout:     *maxTimeout,
			CacheEntries:   *cacheSize,
			CacheDir:       *cacheDir,
			Metrics:        pm,
			Node:           *node,
		})
		mux := http.NewServeMux()
		mux.Handle("/", stampPID(pid, srv.Handler()))
		mux.HandleFunc("/workerz", func(w http.ResponseWriter, r *http.Request) {
			st := fleet.WorkerStatus{Node: *node, PID: pid, Draining: srv.Draining()}
			if ds := srv.DiskStore(); ds != nil {
				st.DiskEntries = ds.Len()
			}
			rep := srv.DiskRecovery()
			st.Recovered, st.Quarantined = rep.Recovered, rep.Quarantined
			w.Header().Set(fleet.WorkerPIDHeader, strconv.Itoa(pid))
			server.WriteJSON(w, http.StatusOK, st)
		})
		return srv, mux
	}, func(a net.Addr) {
		// The ready line is the supervisor protocol: stdout, one line,
		// then the worker is quiet there (logs go to stderr).
		fmt.Fprintln(stdout, supervisor.FormatReady(a.String(), pid))
		fmt.Fprintf(stderr, "pipesched worker: node %s pid %d listening on http://%s\n", *node, pid, a)
	})
}

// stampPID adds the worker-PID header to every response, so routers and
// traces can attribute answers to a process incarnation.
func stampPID(pid int, next http.Handler) http.Handler {
	p := strconv.Itoa(pid)
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set(fleet.WorkerPIDHeader, p)
		next.ServeHTTP(w, r)
	})
}
