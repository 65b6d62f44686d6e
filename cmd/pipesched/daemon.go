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
)

// daemon is the lifecycle the long-running subcommands (serve, worker,
// fleet) share: telemetry with an optional JSONL sink, distributed
// tracing, listen, announce, wait for SIGTERM/SIGINT (or ctx), then a
// graceful drain in dependency order.
type daemon struct {
	name      string            // stderr prefix, e.g. "pipesched serve"
	addr      string            // listen address
	statsJSON string            // JSONL telemetry sink path ("" = none)
	flightDir string            // flight-recorder dump directory
	sigquit   bool              // dump the flight recorder on SIGQUIT
	drain     time.Duration     // graceful drain budget
	ready     func(addr string) // test hook, called once listening
}

// service is what a daemon serves and drains: a server or a fleet.
type service interface {
	Shutdown(context.Context) error
	Close()
}

// run starts the daemon and blocks until it has drained; it returns the
// exit code. start builds the service and its handler on the daemon's
// telemetry once the listener is bound, and announce prints the
// listening lines.
func (d daemon) run(ctx context.Context, stderr io.Writer, start func(*pipesched.Telemetry) (service, http.Handler), announce func(net.Addr)) int {
	fail := func(err error) int {
		fmt.Fprintf(stderr, "%s: %v\n", d.name, err)
		return 1
	}
	// A daemon always runs with telemetry and distributed tracing: every
	// request gets a trace (served back in X-Pipesched-Trace, joined from
	// it when a router forwards one), spans land in the sink, and the
	// flight recorder keeps the recent window for dumps.
	pm := pipesched.EnableTelemetry()
	defer pipesched.DisableTelemetry()
	if d.statsJSON != "" {
		f, err := os.Create(d.statsJSON)
		if err != nil {
			return fail(err)
		}
		defer f.Close()
		pm.SetSink(pipesched.NewJSONLTelemetrySink(f))
	}
	tr := pipesched.EnableTracing(pm, pipesched.TracerConfig{DumpDir: d.flightDir})
	defer pipesched.DisableTracing()
	if d.sigquit {
		defer watchSIGQUIT(tr, d.flightDir, d.name, stderr)()
	}

	ln, err := net.Listen("tcp", d.addr)
	if err != nil {
		return fail(err)
	}
	svc, h := start(pm)
	hs := &http.Server{Handler: h}
	announce(ln.Addr())
	if d.ready != nil {
		d.ready(ln.Addr().String())
	}

	sigCtx, stop := signal.NotifyContext(ctx, syscall.SIGTERM, syscall.SIGINT)
	defer stop()
	serveErr := make(chan error, 1)
	go func() { serveErr <- hs.Serve(ln) }()

	select {
	case err := <-serveErr:
		svc.Close()
		return fail(err)
	case <-sigCtx.Done():
	}

	// Graceful drain, in dependency order: stop admitting compile work
	// first so /healthz flips to draining, then let the HTTP layer
	// finish in-flight responses, then drain the workers, and only then
	// take down telemetry (the sink file closes via defer).
	fmt.Fprintf(stderr, "%s: draining (budget %s)\n", d.name, d.drain)
	drainCtx, cancel := context.WithTimeout(context.Background(), d.drain)
	defer cancel()
	drainErr := svc.Shutdown(drainCtx)
	_ = hs.Shutdown(drainCtx)
	if drainErr != nil {
		fmt.Fprintf(stderr, "%s: drain budget expired, in-flight work degraded\n", d.name)
	} else {
		fmt.Fprintf(stderr, "%s: drained cleanly\n", d.name)
	}
	return 0
}

// parseFlags parses a subcommand's flags and rejects positional
// arguments; false means exit 1, with the reason on stderr.
func parseFlags(fs *flag.FlagSet, args []string, stderr io.Writer) bool {
	if err := fs.Parse(args); err != nil {
		return false
	}
	if fs.NArg() > 0 {
		fmt.Fprintf(stderr, "%s: unexpected arguments %v\n", fs.Name(), fs.Args())
		return false
	}
	return true
}

// watchSIGQUIT dumps the flight recorder on SIGQUIT — the operator's
// "what was this process just doing?" signal — and returns a stop
// function. Dumps go to dir, or the OS temp dir when no -flight-dir
// was given (an explicit ask always produces a file).
func watchSIGQUIT(tr *pipesched.Tracer, dir, prog string, stderr io.Writer) func() {
	if dir == "" {
		dir = os.TempDir()
	}
	ch := make(chan os.Signal, 1)
	signal.Notify(ch, syscall.SIGQUIT)
	done := make(chan struct{})
	go func() {
		for {
			select {
			case <-done:
				return
			case <-ch:
				path := filepath.Join(dir, fmt.Sprintf("flightrecorder-%d-sigquit.jsonl", time.Now().UnixNano()))
				if err := tr.DumpNow(path, "sigquit"); err != nil {
					fmt.Fprintf(stderr, "%s: flight-recorder dump: %v\n", prog, err)
				} else {
					fmt.Fprintf(stderr, "%s: flight recorder dumped to %s\n", prog, path)
				}
			}
		}
	}()
	return func() { signal.Stop(ch); close(done) }
}
