package transport

import (
	"crypto/tls"
	"crypto/x509"
	"fmt"
	"io"
	"net"
	"os"
	"time"
)

// ClientCAs builds a coordinator-side TLS config that verifies worker
// listeners against the CA certificates in the PEM bundle at path —
// what dtnsim -dist-ca loads.
func ClientCAs(path string) (*tls.Config, error) {
	pemBytes, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	pool := x509.NewCertPool()
	if !pool.AppendCertsFromPEM(pemBytes) {
		return nil, fmt.Errorf("dist: no CA certificates in %s", path)
	}
	return &tls.Config{RootCAs: pool}, nil
}

// DefaultDialTimeout bounds one TCP connection attempt.
const DefaultDialTimeout = 10 * time.Second

// TCP dials workers already listening on host:port addresses
// (dtnsim-worker -listen). Worker slot i connects to Hosts[i % len],
// so more workers than hosts round-robin across them — a listening
// worker serves each accepted connection independently. Redial
// reconnects to the lost worker's host, which is the multi-host
// recovery path: the remote listener outlives individual sessions.
type TCP struct {
	// Hosts are the worker addresses, host:port each. Required.
	Hosts []string
	// TLS, when set, upgrades every connection to TLS. The config is
	// cloned per connection with ServerName defaulted from the host.
	TLS *tls.Config
	// Timeout bounds one connection attempt; 0 means
	// DefaultDialTimeout.
	Timeout time.Duration
}

func (t *TCP) dialOne(i int) (io.ReadWriteCloser, error) {
	if len(t.Hosts) == 0 {
		return nil, fmt.Errorf("dist: TCP transport has no worker hosts")
	}
	addr := t.Hosts[i%len(t.Hosts)]
	timeout := t.Timeout
	if timeout <= 0 {
		timeout = DefaultDialTimeout
	}
	d := net.Dialer{Timeout: timeout}
	c, err := d.Dial("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("dist: worker %d at %s: %w", i, addr, err)
	}
	if t.TLS == nil {
		return c, nil
	}
	cfg := t.TLS.Clone()
	if cfg.ServerName == "" && !cfg.InsecureSkipVerify {
		host, _, err := net.SplitHostPort(addr)
		if err != nil {
			host = addr
		}
		cfg.ServerName = host
	}
	tc := tls.Client(c, cfg)
	if err := tc.Handshake(); err != nil {
		c.Close()
		return nil, fmt.Errorf("dist: worker %d at %s: TLS handshake: %w", i, addr, err)
	}
	return tc, nil
}

// Dial implements Transport: connect all n worker slots.
func (t *TCP) Dial(n int) ([]io.ReadWriteCloser, error) {
	conns := make([]io.ReadWriteCloser, 0, n)
	for i := 0; i < n; i++ {
		c, err := t.dialOne(i)
		if err != nil {
			closeAll(conns)
			return nil, err
		}
		conns = append(conns, c)
	}
	return conns, nil
}

// Redial implements Transport: reconnect worker slot i to its host.
func (t *TCP) Redial(i int) (io.ReadWriteCloser, error) { return t.dialOne(i) }

// Close implements Transport: nothing held beyond the connections the
// coordinator already closed.
func (t *TCP) Close() error { return nil }
