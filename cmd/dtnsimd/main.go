// Command dtnsimd serves DTN simulations over HTTP: clients POST a
// scenario or sweep spec (the same JSON documents cmd/dtnsim -scenario
// and -dump produce) to /v1/jobs and poll the returned job id. Results
// are cached on disk under the spec's canonical content key, so
// resubmitting an equivalent spec — any JSON spelling, any shard or
// worker count, even after a daemon restart — answers instantly with
// byte-identical bodies and runs no simulation.
//
// Every job runs in this process, on the normalized spec its key and
// cache manifest come from. Normalizing drops the keys a client may
// send that never change a result byte (a scenario's inert "shards",
// a sweep's "workers"), so the daemon, not the client, decides how
// much of the machine a job takes. A scenario runs on the
// sequential engine, a sweep's grid on one goroutine per CPU (at most
// one per run), and -workers bounds how many jobs run at once.
//
// Endpoints:
//
//	POST   /v1/jobs               submit {"scenario": {...}} or {"sweep": {...}}
//	GET    /v1/jobs/{id}          job status
//	DELETE /v1/jobs/{id}          cancel a running job
//	GET    /v1/jobs/{id}/result   result JSON (deterministic bytes)
//	GET    /v1/jobs/{id}/series   metric-sample CSV (scenario) / sweep tables CSV
//	GET    /v1/jobs/{id}/events   full engine event CSV (scenario jobs)
//	GET    /v1/specs              registered protocol/mobility specs
//	GET    /healthz               liveness
//	GET    /metrics               job-manager counters (JSON)
//
// On SIGINT/SIGTERM the daemon stops accepting requests, lets running
// jobs finish for -drain, then cancels whatever remains (in-flight
// engine loops abort at their next interrupt poll) and exits.
//
// Usage:
//
//	dtnsimd -addr :8642 -cache /var/cache/dtnsimd -workers 4 -job-timeout 10m
//
// See EXPERIMENTS.md ("Running the service") for curl examples and
// DESIGN.md §11 for the architecture.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"dtnsim/internal/server"
)

func main() {
	var (
		addrFlag    = flag.String("addr", ":8642", "listen address")
		cacheFlag   = flag.String("cache", "dtnsimd-cache", "result cache directory (created if missing)")
		workersFlag = flag.Int("workers", 0, "max concurrently executing jobs (0 = all CPUs)")
		timeoutFlag = flag.Duration("job-timeout", 0, "per-job wall-time cap from submission, e.g. 10m (0 = none)")
		drainFlag   = flag.Duration("drain", 30*time.Second, "how long running jobs may finish after SIGTERM before being cancelled")
	)
	flag.Parse()

	srv, err := server.New(server.Options{
		CacheDir:   *cacheFlag,
		Workers:    *workersFlag,
		JobTimeout: *timeoutFlag,
	})
	if err != nil {
		fatal(err)
	}

	httpSrv := newHTTPServer(*addrFlag, srv.Handler())
	errCh := make(chan error, 1)
	go func() { errCh <- httpSrv.ListenAndServe() }()
	fmt.Fprintf(os.Stderr, "dtnsimd: listening on %s (cache %s)\n", *addrFlag, *cacheFlag)

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	select {
	case <-ctx.Done():
		// Graceful drain: close the listener and finish in-flight HTTP
		// exchanges, then give running jobs the -drain budget before
		// Drain cancels them through their contexts.
		fmt.Fprintf(os.Stderr, "dtnsimd: shutting down (drain %v)\n", *drainFlag)
		shutdownCtx, cancel := context.WithTimeout(context.Background(), *drainFlag)
		defer cancel()
		if err := httpSrv.Shutdown(shutdownCtx); err != nil {
			fmt.Fprintf(os.Stderr, "dtnsimd: http shutdown: %v\n", err)
		}
		if err := srv.Manager().Drain(shutdownCtx); err != nil {
			fmt.Fprintf(os.Stderr, "dtnsimd: cancelled remaining jobs: %v\n", err)
		}
	case err := <-errCh:
		if !errors.Is(err, http.ErrServerClosed) {
			fatal(err)
		}
	}
}

// Connection limits. A client gets readHeaderTimeout to send its request
// headers and an idle keep-alive connection is closed after idleTimeout.
// There is deliberately no WriteTimeout: a large artifact streams for as
// long as the client reads it.
const (
	readHeaderTimeout = 10 * time.Second
	idleTimeout       = 2 * time.Minute
)

func newHTTPServer(addr string, h http.Handler) *http.Server {
	return &http.Server{Addr: addr, Handler: h, ReadHeaderTimeout: readHeaderTimeout, IdleTimeout: idleTimeout}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "dtnsimd:", err)
	os.Exit(1)
}
