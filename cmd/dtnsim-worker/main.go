// Command dtnsim-worker is the worker half of the distributed executor
// (DESIGN.md §13). It is not run by hand in pipe mode: the coordinator
// of a single local run, dtnsim -dist-workers, spawns N of these,
// speaks the internal/dist/frame protocol over stdin/stdout (a Hello
// handshake, one Init, then epoch rounds), and closes stdin to shut
// the worker down.
//
// With -listen host:port the worker instead serves coordinators over
// TCP: each accepted connection gets an independent protocol session,
// so one listening worker can serve several worker slots of one run
// (dtnsim -dist-hosts round-robins slots across hosts) and outlives
// individual coordinator sessions — which is what makes re-dial
// recovery possible after a connection loss. -tls-cert/-tls-key
// upgrade the listener to TLS; coordinators trust it via -dist-ca.
//
// All simulation state lives in the coordinator; the worker only
// executes the epoch items it is sent over the node snapshots (or
// cache references) shipped with them and answers with the states they
// left — patches, when the coordinator's Hello allows — so it keeps no
// files: stderr is its only other channel. -fail-rounds N drops the first session's
// connection before its Nth round reply, the fault-injection hook the
// CI kill-a-worker smoke leg uses to prove replay recovery.
package main

import (
	"bufio"
	"crypto/tls"
	"flag"
	"fmt"
	"net"
	"os"
	"sync/atomic"

	"dtnsim/internal/dist"
)

func main() {
	var (
		listenFlag = flag.String("listen", "", "serve coordinators over TCP at this host:port instead of stdin/stdout")
		certFlag   = flag.String("tls-cert", "", "PEM certificate for the -listen socket (requires -tls-key)")
		keyFlag    = flag.String("tls-key", "", "PEM private key for the -listen socket (requires -tls-cert)")
		failFlag   = flag.Int("fail-rounds", 0, "fault injection: drop the first session's connection before its Nth round reply (0 = off)")
	)
	flag.Parse()
	if flag.NArg() > 0 {
		fatal(fmt.Errorf("unexpected argument %q", flag.Arg(0)))
	}
	if (*certFlag == "") != (*keyFlag == "") {
		fatal(fmt.Errorf("-tls-cert and -tls-key must be set together"))
	}
	opts := dist.ServeOpts{FailAfterRounds: *failFlag}

	if *listenFlag == "" {
		if *certFlag != "" {
			fatal(fmt.Errorf("-tls-cert applies to -listen mode only"))
		}
		if err := dist.ServeWith(os.Stdin, os.Stdout, opts); err != nil {
			fatal(err)
		}
		return
	}

	ln, err := listen(*listenFlag, *certFlag, *keyFlag)
	if err != nil {
		fatal(err)
	}
	defer ln.Close()
	fmt.Fprintf(os.Stderr, "dtnsim-worker: listening on %s\n", ln.Addr())
	serveListener(ln, opts)
}

// listen opens the TCP listener, TLS-wrapped when a certificate is
// configured.
func listen(addr, certFile, keyFile string) (net.Listener, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	if certFile == "" {
		return ln, nil
	}
	cert, err := tls.LoadX509KeyPair(certFile, keyFile)
	if err != nil {
		ln.Close()
		return nil, err
	}
	return tls.NewListener(ln, &tls.Config{Certificates: []tls.Certificate{cert}}), nil
}

// serveListener accepts coordinator connections forever, serving each
// in its own goroutine with fresh session state. Fault injection is
// claimed by the first connection that actually sends protocol bytes —
// not merely the first accepted, so TCP health probes (CI's
// wait-for-port loop, load-balancer checks) cannot absorb it — and a
// killed session's replacement connection (the coordinator's re-dial)
// runs clean.
func serveListener(ln net.Listener, opts dist.ServeOpts) {
	var claimed atomic.Bool
	for {
		c, err := ln.Accept()
		if err != nil {
			fatal(err)
		}
		go func() {
			defer c.Close()
			br := bufio.NewReader(c)
			if _, err := br.Peek(1); err != nil {
				return // probe: connected and closed without speaking
			}
			sessOpts := dist.ServeOpts{}
			if opts.FailAfterRounds > 0 && claimed.CompareAndSwap(false, true) {
				sessOpts = opts
			}
			if err := dist.ServeWith(br, c, sessOpts); err != nil {
				fmt.Fprintln(os.Stderr, "dtnsim-worker: session:", err)
			}
		}()
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "dtnsim-worker:", err)
	os.Exit(1)
}
