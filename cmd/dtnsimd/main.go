// Command dtnsimd serves DTN simulations over HTTP: clients POST a
// scenario or sweep spec (the same JSON documents cmd/dtnsim -scenario
// and -dump produce) to /v1/jobs and poll the returned job id. Results
// are cached on disk under the spec's canonical content key, so
// resubmitting an equivalent spec — any JSON spelling, any worker
// count, even after a daemon restart — answers instantly with
// byte-identical bodies and runs no simulation.
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
//	dtnsimd -workers-exec 4                 # scenario jobs on worker processes
//	dtnsimd -workers-hosts hostA:9761,hostB:9761   # ... on remote workers over TCP
//
// With -workers-exec N each scenario job's epochs execute on N spawned
// dtnsim-worker processes (DESIGN.md §13); with -workers-hosts the
// workers are instead dialed over TCP at those host:port addresses
// (dtnsim-worker -listen on each machine; -workers-ca verifies them
// over TLS), and -workers-exec chooses how many worker slots
// round-robin across the hosts (default: one per host). Distributed
// results are byte-identical to in-process ones, so the cache is
// oblivious to the executor: entries computed either way hit for both.
//
// See EXPERIMENTS.md ("Running the service") for curl examples and
// DESIGN.md §11 for the architecture.
package main

import (
	"context"
	"crypto/tls"
	"errors"
	"flag"
	"fmt"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"dtnsim/internal/dist"
	"dtnsim/internal/dist/transport"
	"dtnsim/internal/server"
)

func main() {
	var (
		addrFlag    = flag.String("addr", ":8642", "listen address")
		cacheFlag   = flag.String("cache", "dtnsimd-cache", "result cache directory (created if missing)")
		workersFlag = flag.Int("workers", 0, "max concurrently executing jobs (0 = all CPUs)")
		timeoutFlag = flag.Duration("job-timeout", 0, "per-job wall-time cap from submission, e.g. 10m (0 = none)")
		drainFlag   = flag.Duration("drain", 30*time.Second, "how long running jobs may finish after SIGTERM before being cancelled")
		execFlag    = flag.Int("workers-exec", 0, "execute each scenario job's epochs on N dtnsim-worker processes (0 = in-process; cached bytes are identical either way)")
		hostsFlag   = flag.String("workers-hosts", "", "comma-separated host:port list of dtnsim-worker -listen processes to execute scenario jobs on over TCP")
		caFlag      = flag.String("workers-ca", "", "PEM CA bundle that -workers-hosts connections must verify against (enables TLS)")
		binFlag     = flag.String("worker-bin", "", "dtnsim-worker binary for -workers-exec (default: sibling of this executable, then $PATH)")
	)
	flag.Parse()

	var workerTLS *tls.Config
	if *caFlag != "" {
		cfg, err := transport.ClientCAs(*caFlag)
		if err != nil {
			fatal(err)
		}
		workerTLS = cfg
	}
	srv, err := server.New(server.Options{
		CacheDir:   *cacheFlag,
		Workers:    *workersFlag,
		JobTimeout: *timeoutFlag,
		Dist: dist.Options{
			Workers:   *execFlag,
			Hosts:     splitHosts(*hostsFlag),
			TLS:       workerTLS,
			WorkerBin: *binFlag,
		},
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

// splitHosts parses the -workers-hosts value: comma-separated
// host:port entries, blanks trimmed and dropped.
func splitHosts(s string) []string {
	var hosts []string
	for _, part := range strings.Split(s, ",") {
		if part = strings.TrimSpace(part); part != "" {
			hosts = append(hosts, part)
		}
	}
	return hosts
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "dtnsimd:", err)
	os.Exit(1)
}
