package transport

// Transport-layer unit tests: process lifecycle (a required binary,
// spawn-failure cleanup, per-worker exit-error aggregation, respawn).
// The frame protocol is not involved — transports move opaque bytes.

import (
	"io"
	"strings"
	"testing"
)

// roundTrip writes a probe through the connection and expects it
// echoed back.
func roundTrip(t *testing.T, c io.ReadWriteCloser, probe string) {
	t.Helper()
	if _, err := c.Write([]byte(probe)); err != nil {
		t.Fatalf("write: %v", err)
	}
	buf := make([]byte, len(probe))
	if _, err := io.ReadFull(c, buf); err != nil {
		t.Fatalf("read: %v", err)
	}
	if string(buf) != probe {
		t.Fatalf("echoed %q, want %q", buf, probe)
	}
}

// TestPipesDialNeedsBin: Pipes does not search for a worker binary,
// so an unset Bin fails Dial before anything is spawned.
func TestPipesDialNeedsBin(t *testing.T) {
	p := &Pipes{}
	if _, err := p.Dial(1); err == nil {
		t.Fatal("Dial without a worker binary succeeded")
	}
	if len(p.cmds) != 0 {
		t.Errorf("%d processes tracked after failed Dial", len(p.cmds))
	}
}

// TestPipesDialFailureCleansUp pins the spawn-failure path: a binary
// that cannot start fails Dial with a useful error and leaves no
// processes behind (Close after the failure is a no-op).
func TestPipesDialFailureCleansUp(t *testing.T) {
	p := &Pipes{Bin: "/nonexistent/worker-binary"}
	if _, err := p.Dial(2); err == nil {
		t.Fatal("Dial with a nonexistent binary succeeded")
	}
	if len(p.cmds) != 0 {
		t.Errorf("%d processes tracked after failed Dial", len(p.cmds))
	}
	if err := p.Close(); err != nil {
		t.Errorf("Close after failed Dial: %v", err)
	}
}

// TestPipesCloseAggregatesExitErrors is the satellite obligation:
// when several workers exit abnormally, Close reports every worker's
// identity and exit error, not just the first.
func TestPipesCloseAggregatesExitErrors(t *testing.T) {
	p := &Pipes{Bin: "/bin/false"}
	conns, err := p.Dial(2)
	if err != nil {
		t.Fatalf("Dial: %v", err)
	}
	for _, c := range conns {
		c.Close()
	}
	err = p.Close()
	if err == nil {
		t.Fatal("Close of workers that exited 1 returned nil")
	}
	for _, want := range []string{"worker 0", "worker 1"} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("aggregated error %q does not mention %s", err, want)
		}
	}
}

// TestPipesRedial pins the respawn path: replacing a worker's process
// yields a fresh working connection and the replacement is reaped
// cleanly at Close.
func TestPipesRedial(t *testing.T) {
	p := &Pipes{Bin: "/bin/cat"}
	conns, err := p.Dial(1)
	if err != nil {
		t.Fatalf("Dial: %v", err)
	}
	roundTrip(t, conns[0], "before\n")
	conns[0].Close()
	replacement, err := p.Redial(0)
	if err != nil {
		t.Fatalf("Redial: %v", err)
	}
	roundTrip(t, replacement, "after\n")
	replacement.Close()
	if err := p.Close(); err != nil {
		t.Errorf("Close: %v", err)
	}
	if _, err := p.Redial(5); err == nil {
		t.Error("Redial of an unknown worker index succeeded")
	}
}
